"""Association-scheme matrices of the group and the three dimension paths.

The scheme has one 0/1 matrix per conjugacy class, (N_i)_{x,y} = 1 iff
y*x^-1 lies in class i, plus the diagonal dual idempotents picking out each
class along row/column of the identity element.  Three independent routes to
the dimension of the algebra they generate:

  * the count of class triples (i, j, k) with Cl_k contained in Cl_i * Cl_j,
    which is the dimension of the span of the sandwiches E*_i N_j E*_k;
  * the centralizer-algebra dimension (1/|G|) sum |C_G(g)|^2, equivalently
    the number of simultaneous-conjugation orbits on G x G;
  * the explicit closed form (3nd + n^2 + 4d^2) / 2.

The product closure of the generated algebra (closure module) sits between
the first two, so the four numbers agree exactly on every valid instance.

``verify_scheme_axioms`` reads the matrices as the class-index table D and
checks them on a few vectors.  The right translations x -> xg by the
generators keep D, D[xg, yg] = class(y x^-1) = D[x, y], and reach every
element from e, so D[x, y] = D[e, y x^-1]: the scheme is homogeneous (Bannai
and Ito, Algebraic Combinatorics I, 1984, ch. II).  Both facts are checked
with ``translations``, built by ``group.mul``, so a table that fails them
disagrees with ``group.mul``.  Then (i) holds iff it holds on row e, and
(iii) iff it holds on row e and column e, as D[w, e] = D[e, w^-1].
Conjugation fixes e, so once ``conjugation_certificate`` shows that it keeps
D, (N_i N_j)(e, w) depends only on the class of w, and (iv) is checked on one
column per class of ``group.mul``, its minimum in ``conjugation_minima``.

The triple count and the centralizer orders read only the products of the
l class representatives rep_i with all of G (``rep_products``), with l the
class count.  Simultaneous conjugation (u, v) -> (gug^-1, gvg^-1) keeps the
triple (class u, class v, class uv) and takes any u to its class
representative, so the pairs (rep_i, v) over all v already give every triple.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .closure import (
    conjugation_certificate, first_not_preserving, sandwich_count, terwilliger_closure_dim
)
from .conjugacy import class_index_table, conjugacy_classes, rep_products, structure_tensor
from .errors import AxiomFailure, GuardExceededError, OracleMismatch, ParityFailure
from .groups import D2Group, conjugation_minima, orbit_minima, translations
from .limits import DEFAULT_MATRIX_GUARD, ENUMERATION_LIMIT, check_guard


def adjacency_matrices(group: D2Group, guard: int = DEFAULT_MATRIX_GUARD) -> list[np.ndarray]:
    """The 0/1 scheme matrices, one per class, over element indices."""
    check_guard(group.order, guard, "dense matrices")
    table = class_index_table(group)
    return [(table == i).astype(np.int64) for i in range(len(conjugacy_classes(group)))]


def dual_idempotents(group: D2Group, guard: int = DEFAULT_MATRIX_GUARD) -> list[np.ndarray]:
    """Diagonal 0/1 idempotents E*_i marking the elements of each class."""
    check_guard(group.order, guard, "dense matrices")
    classes = conjugacy_classes(group)
    return [np.diag((classes.labels == i).astype(np.int64)) for i in range(len(classes))]


def verify_scheme_axioms(group: D2Group, guard: int = DEFAULT_MATRIX_GUARD) -> tuple[int, ...]:
    """Check the four defining identities of the scheme matrices on row e,
    column e and one column per class (see the module docstring): (i)
    N_0 = I, (ii) sum N_i = J, (iii) each transpose is again a scheme
    matrix, (iv) N_i N_j = sum_k p_ij^k N_k with the constants of
    ``structure_tensor``.  Raises AxiomFailure naming the first violated
    clause.  The matrices are read as the class-index table D, D[u, v] = i
    iff N_i(u, v) = 1, for which (ii) holds by construction.  Returns the
    transpose pairing: entry i is the j with N_i^T = N_j, one per class.
    """
    order = group.order
    check_guard(order, guard, "the scheme axioms")
    ell = len(conjugacy_classes(group))
    table = class_index_table(group)
    row, col = table[0], table[:, 0]  # D[e, w] and D[w, e]; e has index 0

    if not (row[0] == 0 and np.count_nonzero(row == 0) == 1):
        raise AxiomFailure("(i)", "N_0 is not the identity")

    # N_i^T = N_j iff each cell of N_i has its transpose in N_j: (e, w) in
    # D[w, e], (w, e) in D[e, w]; a class with two partners is split
    cells, partners = np.concatenate([row, col]), np.concatenate([col, row])
    pairing = np.arange(ell)
    pairing[cells] = partners
    bad = np.flatnonzero(np.bincount(cells[pairing[cells] != partners], minlength=ell))
    if bad.size:
        raise AxiomFailure("(iii)", f"transpose of N_{bad[0]} is not a scheme matrix")

    codes, counts = structure_tensor(group)
    if not (np.bincount(codes // (ell * ell), counts, minlength=ell) == order).all():
        raise AxiomFailure("(iv)", "structure constants p_ij^k do not sum to |G| over i, j")
    rho, gens = translations(group)[0], group.generators()
    if (moved := first_not_preserving(table, rho)) is not None:
        raise AxiomFailure(
            "(iv)", f"right translation by {gens[moved]} changes the class-index table")
    if orbit_minima(rho).any():
        raise AxiomFailure("(iv)", "right translations by the generators miss an element")
    if (moved := conjugation_certificate(group)) is not None:
        raise AxiomFailure("(iv)", f"conjugation by {gens[moved]} changes the class-index table")

    # (N_i N_j)(e, w) = #{v : D[e, v] = i, D[v, w] = j} must be p_ij^k, with
    # k = D[e, w]: the codes D[e, v] * l + D[v, w] of all v, sorted, are
    # expected[k], each code i * l + j repeated p_ij^k times (|G| in all, by
    # the sums above).  A column that differs is counted in full, to name
    # the first pair (i, j) failing
    code = np.min_scalar_type(ell * ell - 1)
    expected = np.repeat((codes % (ell * ell)).astype(code), counts).reshape(ell, order)
    columns = np.flatnonzero(conjugation_minima(group) == np.arange(order))  # each class's minimum
    at = table.take(columns, axis=1).T.astype(code, order="C")  # [w, v], D[v, w]
    sorted_codes = np.sort(row.astype(code) * ell + at, axis=1)
    mismatch = np.zeros(ell * ell, dtype=bool)
    for w in columns[(sorted_codes != expected[row[columns]]).any(axis=1)]:
        full = np.bincount(row * ell + table[:, w], minlength=ell * ell)
        mismatch |= full != np.bincount(expected[row[w]], minlength=ell * ell)
    if mismatch.any():
        a, b = divmod(int(np.argmax(mismatch)), ell)
        raise AxiomFailure(
            "(iv)", f"N_{a} N_{b} differs from its structure-constant expansion"
        )

    return tuple(pairing.tolist())


def dump_matrices(group: D2Group, guard: int = DEFAULT_MATRIX_GUARD) -> str:
    """Dense integer grids of every N_i and E*_i, for external verification."""
    classes = conjugacy_classes(group)
    mats = adjacency_matrices(group, guard=guard)
    duals = dual_idempotents(group, guard=guard)
    chunks = []
    for i, mat in enumerate(mats):
        chunks.append(f"N_{i} (class {classes[i].kind}, size {classes[i].size})")
        chunks.append("\n".join(" ".join(str(v) for v in row) for row in mat))
    for i, mat in enumerate(duals):
        chunks.append(f"E*_{i}")
        chunks.append("\n".join(" ".join(str(v) for v in row) for row in mat))
    return "\n".join(chunks) + "\n"


# -- dimension paths ---------------------------------------------------------


def dim_t0(group: D2Group, strategy: str = "triples", guard: int = DEFAULT_MATRIX_GUARD) -> int:
    """Dimension of the span of the sandwiches E*_i N_j E*_k.

    The default strategy counts the class triples (i, j, k) with Cl_k inside
    Cl_i * Cl_j, as the distinct pairs (class v, class rep_i * v) of each
    representative row i (see the module docstring).

    The "span" strategy is the closure's ``sandwich_count``: each
    sandwich is constant on the conjugation orbits, and in orbit coordinates
    the distinct ones have disjoint 0/1 supports, so their rank over Q is
    their number.
    """
    if strategy == "triples":
        classes = conjugacy_classes(group)
        ell = len(classes)
        rows, _ = rep_products(group)
        labels = classes.labels.astype(np.min_scalar_type(ell * ell - 1))
        # distinct codes counted by sorting each row: a bincount would need
        # l^2 bins per row
        codes = np.sort(labels * ell + labels[rows], axis=1)
        return int(np.count_nonzero(np.diff(codes, axis=1))) + ell
    if strategy != "span":
        raise ValueError(f"unknown strategy {strategy!r}")
    check_guard(group.order, guard, "the span path")
    return sandwich_count(group)


def dim_centralizer(group: D2Group) -> int:
    """Dimension of the centralizer algebra of the conjugation action, after the
    check of ``ENUMERATION_LIMIT``: (1/|G|) sum_k |Cl_k| |C_G(r_k)|^2, with the orders
    of ``rep_products``; ``conjugation_orbitals(group).count`` counts it on G x G."""
    if group.order > ENUMERATION_LIMIT:
        raise GuardExceededError(
            f"group order {group.order} exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    total = int((np.array(conjugacy_classes(group).sizes) * rep_products(group)[1] ** 2).sum())
    if total % group.order:
        raise OracleMismatch("sum of squared centralizer orders not divisible by |G|")
    return total // group.order


def dim_closed_form(group: D2Group) -> int:
    """(3nd + n^2 + 4d^2) / 2, exactly; n and d always share parity."""
    n, d = group.n, group.d
    total = 3 * n * d + n * n + 4 * d * d
    if total % 2:
        raise ParityFailure(f"3nd + n^2 + 4d^2 is odd for n = {n}, d = {d}")
    return total // 2


class TransitivityReport(namedtuple(
        "TransitivityReport",
        "dim_t0 dim_closed_form dim_centralizer dim_closure triply_transitive")):
    """The four dimension computations and the resulting verdict: ``dim_t0``,
    ``dim_closed_form`` and ``dim_centralizer`` are ints, ``dim_closure`` an
    int or None, ``triply_transitive`` a bool."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, int, int, int | None]:
        return (self.dim_t0, self.dim_closed_form, self.dim_centralizer, self.dim_closure)


def is_triply_transitive(
    group: D2Group, guard: int = DEFAULT_MATRIX_GUARD, need_closure: bool = False
) -> TransitivityReport:
    """Compute all dimension paths; the verdict compares the sandwich span
    against the centralizer algebra.

    The closure path runs only within the matrix guard: above it, the value
    is None unless ``need_closure`` forces the computation, in which case the
    guard violation propagates.
    """
    cent = dim_centralizer(group)  # first: it checks the enumeration limit
    t0 = dim_t0(group)
    closed = dim_closed_form(group)
    closure: int | None = None
    if group.order <= guard or need_closure:  # above the guard, the closure raises
        closure = terwilliger_closure_dim(group, guard=guard)
    return TransitivityReport(
        dim_t0=t0,
        dim_closed_form=closed,
        dim_centralizer=cent,
        dim_closure=closure,
        triply_transitive=(t0 == cent),
    )
