"""Block multiplicities of the centralizer algebra, and the evidence for them.

The conjugation action of the group on itself has permutation character
psi(g) = |C_G(g)|, counted at the class representatives.  Its decomposition
psi = sum d_j chi_j gives the Wedderburn blocks M_{d_j} of the centralizer
algebra (equal to the Terwilliger algebra here).  ``wedderburn_report``
compares two routes to the d_j: the closed form by the divisibility pattern
of the label vectors, and the character sum d_j = sum_k conj(chi_j(g_k))
over class reps.  The inner product <psi, chi_j> = (1/|G|) sum_k |Cl_k| psi_k
conj(chi_j(g_k)) is that sum term by term once |Cl_k| psi_k = |G|, the
orbit-stabilizer count that ``permutation_character`` checks class by class,
so the report runs the check and not ``multiplicities_inner_product``.  The
block dimensions below are the rest of the evidence.

Both sums are exact: ``CharacterTable.class_sums`` reduces them mod the
cyclotomic polynomial, a block of rows at a time, with no tolerance.

The primitive central idempotents e_j give a further oracle: the block
T~ e_j has dimension d_j^2, a character sum over integer counts
(``_block_trace_counts``), through ``class_sums`` too.  Their relations
e_j e_m = delta_jm e_j and sum e_j = I follow from the certificate of
``characters.verify_orthogonality``.  ``central_idempotent`` builds e_j as a
dense matrix, for the tests: the row's complex values come from
``CharacterTable.complex_values`` and the conjugations g u g^-1 from the
full ``index_tables`` block, so it is guarded by the matrix guard.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .characters import (
    CharacterTable,
    CharLabel,
    LinearLabel,
    character_labels,
    character_table,
)
from .conjugacy import conjugacy_classes, rep_products, structure_tensor
from .errors import IdempotencyFailure, MultiplicityMismatch, NonIntegralMultiplicity, ParityFailure
from .groups import D2Group, index_tables, inverses
from .limits import DEFAULT_MATRIX_GUARD, ENUMERATION_LIMIT, check_guard
from .scheme import dim_centralizer


class MultiplicityVector(namedtuple("MultiplicityVector", "labels values")):
    """Per-character block multiplicities, in table row order: ``labels``
    is a tuple[CharLabel, ...], ``values`` a tuple[int, ...]."""

    __slots__ = ()

    def blocks(self) -> list[int]:
        """Nonzero block sizes, in label order (zero summands are vacuous)."""
        return [v for v in self.values if v > 0]

    @property
    def sum_d_sq(self) -> int:
        return sum(v * v for v in self.values)

    def sum_d_deg(self) -> int:
        return sum(v * label.degree for v, label in zip(self.values, self.labels))


def permutation_character(group: D2Group) -> list[int]:
    """psi(g) = |C_G(g)| = |G| / |Cl(g)| on class representatives, from ``rep_products``."""
    classes = conjugacy_classes(group)
    _, values = rep_products(group)
    sizes = np.array(classes.sizes)
    bad = np.flatnonzero(values * sizes != group.order)
    if bad.size:
        k = int(bad[0])
        raise MultiplicityMismatch(
            f"class {k}: centralizer order {values[k]} inconsistent with class size {sizes[k]}"
        )
    return values.tolist()


def _exact_integers(table: CharacterTable, weights: np.ndarray, what: str) -> np.ndarray:
    """The values sum_k weights[k] conj(chi_j(k)) of ``CharacterTable.class_sums``;
    raises NonIntegralMultiplicity, naming the label, on the first that is
    not a rational integer."""
    values, exact = table.class_sums(weights)
    if not exact.all():
        label = table.labels[int(np.argmin(exact))]
        raise NonIntegralMultiplicity(f"{what} of {label.describe()} is not an integer")
    return values


def multiplicities_char_sum(group: D2Group, table: CharacterTable) -> MultiplicityVector:
    """d_j = sum over class representatives of conj(chi_j), exactly."""
    values = _exact_integers(table, np.ones(len(table.classes), dtype=np.int64), "character sum")
    if (values < 0).any():
        raise NonIntegralMultiplicity(f"character sums {values.tolist()} include a negative one")
    return MultiplicityVector(labels=tuple(table.labels), values=tuple(values.tolist()))


def multiplicities_inner_product(group: D2Group, table: CharacterTable) -> MultiplicityVector:
    """d_j = <psi, chi_j> with psi the conjugation permutation character:
    (1/|G|) sum_k |Cl_k| psi_k conj(chi_j(g_k)), exactly; the character sum
    again once ``permutation_character`` returns, so no report runs it."""
    weights = np.array(permutation_character(group), dtype=np.int64)
    weights *= table.classes.sizes
    totals = _exact_integers(table, weights, "|G| <psi, chi>")
    values, rest = np.divmod(totals, group.order)
    if rest.any() or (values < 0).any():
        raise NonIntegralMultiplicity(
            f"<psi, chi> = {(totals / group.order).tolist()} are not all non-negative integers"
        )
    return MultiplicityVector(labels=tuple(table.labels), values=tuple(values.tolist()))


def multiplicities_closed_form(group: D2Group) -> MultiplicityVector:
    """The case-by-case closed form, driven by divisibility of the labels."""
    labels = character_labels(group)
    n, d = group.n, group.d
    d_vec = group.fixed.d_vec
    n_vec = group.fixed.n_vec
    values = []
    for label in labels:
        if isinstance(label, LinearLabel):
            trivial_on_quotient = all(l % di == 0 for l, di in zip(label.i_vec, d_vec))
            if trivial_on_quotient:
                # (n + 3d)/2 for the principal sign, (n - d)/2 for the other
                if (n - d) % 2:
                    raise ParityFailure(f"n = {n} and d = {d} differ in parity")
                val = (n + 3 * d) // 2 if label.sign == 1 else (n - d) // 2
            elif all((ni * l) % di == 0 for l, di, ni in zip(label.i_vec, d_vec, n_vec)):
                if d % 2:
                    raise ParityFailure(f"d = {d} is odd, so d/2 is not a multiplicity")
                val = d // 2
            else:
                val = 0
        else:
            val = d if all(k % di == 0 for k, di in zip(label.j_vec, d_vec)) else 0
        values.append(val)
    return MultiplicityVector(labels=labels, values=tuple(values))


# -- central idempotents ------------------------------------------------------


def central_idempotent(
    group: D2Group,
    table: CharacterTable,
    label_index: int,
    guard: int = DEFAULT_MATRIX_GUARD,
) -> np.ndarray:
    """e_j = (deg_j / |G|) sum_g conj(chi_j(g)) Phi(g), as a complex matrix."""
    order = group.order
    check_guard(order, guard, "idempotent matrices")
    # e[u, g u g^-1] accumulates conj(chi(g)) over all g
    weights = np.conjugate(table.complex_values()[label_index])[table.classes.labels]
    mult = index_tables(group)
    targets = np.arange(order) * order + mult[mult, inverses(group)[:, None]]
    e = np.zeros(order * order, dtype=complex)
    np.add.at(e, targets.ravel(), np.repeat(weights, order))
    deg = table.labels[label_index].degree
    return e.reshape(order, order) * (deg / order)


def verify_central_idempotents(
    group: D2Group, table: CharacterTable, values: tuple[int, ...]
) -> tuple[int, ...]:
    """Check dim(T~ e_j) = d_j^2, given the multiplicities d_j in table row
    order, for e_j the image of (deg_j / |G|) sum_g conj(chi_j(g)) g:
    deg_j * T_j = |G| * d_j^2 exactly, with T_j = sum_k conj(chi_j(k)) K[k]
    for the counts K of ``_block_trace_counts``; return the block dimensions
    d_j^2.  It forms no |G| x |G| or l^3 array, so it is guarded by the
    limit of the l * |G| passes it reads, ``ENUMERATION_LIMIT``, as
    ``dim_centralizer`` is, and not by the matrix guard."""
    check_guard(group.order, ENUMERATION_LIMIT, "the central idempotents")
    traces, exact = table.class_sums(_block_trace_counts(group))
    scaled = np.array(table.degrees) * traces  # |G| * dim(T~ e_j)
    targets = np.array(values) ** 2
    wrong = ~exact | (scaled != group.order * targets)
    if wrong.any():
        j = int(np.argmax(wrong))
        if not exact[j]:
            raise IdempotencyFailure(f"block of e_{j} has a trace that is not an integer")
        dim = f"{scaled[j]}/{group.order}" if scaled[j] % group.order else scaled[j] // group.order
        raise IdempotencyFailure(f"block of e_{j} has dimension {dim}, expected {targets[j]}")

    return tuple(targets.tolist())


def _block_trace_counts(group: D2Group) -> np.ndarray:
    """K[k] = (|Cl_k| / |G|) sum_{i, j} p_ij^k psi_i psi_j, exactly, with p
    from ``structure_tensor`` and psi_i = |G| / |Cl_i| the permutation
    character, from the class sizes and not the tables.

    dim(T~ e_j) is the trace of right multiplication by the idempotent e_j,
    linear in e_j = (deg_j / |G|) sum_g conj(chi_j(g)) Phi(g), so it is
    (deg_j / |G|) sum_k conj(chi_j(k)) K[k] with K[k] the trace of
    X -> P(X) Phi(K_k) on End(CG), P(X) = (1/|G|) sum_h Phi(h) X Phi(h)^-1
    the projection onto T~.  tr(X -> A X B) = tr A tr B makes that
    (1/|G|) sum_h psi(h) sum_{g in Cl_k} psi(h^-1 g), and grouping the pairs
    (h, h^-1 g) by class gives the sum over p, at most |G|^3.  Raises
    IdempotencyFailure when |G| does not divide |Cl_k| times the sum."""
    classes = conjugacy_classes(group)
    ell = len(classes)
    psi = group.order // np.array(classes.sizes, dtype=np.int64)
    codes, counts = structure_tensor(group)
    sums = np.zeros(ell, dtype=np.int64)
    step = 1 << 13  # codes a chunk, so no temporary grows with dim T
    for lo in range(0, len(codes), step):
        k, ij = np.divmod(codes[lo:lo + step], ell * ell)
        i, j = np.divmod(ij, ell)
        np.add.at(sums, k, counts[lo:lo + step] * psi[i] * psi[j])
    sums *= classes.sizes
    traces, rest = np.divmod(sums, group.order)
    if rest.any():
        bad = int(np.argmax(rest != 0))
        raise IdempotencyFailure(
            f"block trace count of class {bad} is {sums[bad]}/{group.order}, not an integer"
        )
    return traces


# -- combined report -----------------------------------------------------------


class WedderburnReport(namedtuple(
        "WedderburnReport",
        "group_name order labels closed_form blocks sum_d_sq sum_d_deg centralizer_dim")):
    """What ``wedderburn_report`` found: ``group_name`` (str), ``order``,
    ``sum_d_sq``, ``sum_d_deg`` and ``centralizer_dim`` (int), ``labels``
    (tuple[CharLabel, ...]), ``closed_form`` and ``blocks`` (tuple[int, ...])."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "characters": [
                {
                    "label": label.describe(),
                    "degree": label.degree,
                    "multiplicity": m,
                    "sources_agree": True,
                }
                for label, m in zip(self.labels, self.closed_form)
            ],
            "blocks": list(self.blocks),
            "sum_d_squared": self.sum_d_sq,
            "centralizer_dim": self.centralizer_dim,
            "sum_d_times_degree": self.sum_d_deg,
        }


def wedderburn_report(group: D2Group) -> WedderburnReport:
    """Check the closed-form multiplicities against the character sums, the
    orbit-stabilizer count of ``permutation_character``, sum d^2 = dim of the
    centralizer algebra and sum d*deg = |G|.

    Raises MultiplicityMismatch when one of them fails.
    """
    cent = dim_centralizer(group)  # first: it checks the enumeration limit
    table = character_table(group)
    closed = multiplicities_closed_form(group)
    sums = multiplicities_char_sum(group, table)
    permutation_character(group)  # raises unless |C_G(r_k)| |Cl_k| = |G| for every k

    if closed.values != sums.values:
        raise MultiplicityMismatch(
            f"closed form {closed.values} vs char sums {sums.values} on {group.name}"
        )
    if closed.sum_d_sq != cent:
        raise MultiplicityMismatch(
            f"sum d^2 = {closed.sum_d_sq} but centralizer dimension is {cent}"
        )
    if closed.sum_d_deg() != group.order:
        raise MultiplicityMismatch(
            f"sum d*deg = {closed.sum_d_deg()} but |G| = {group.order}"
        )
    return WedderburnReport(
        group_name=group.name,
        order=group.order,
        labels=closed.labels,
        closed_form=closed.values,
        blocks=tuple(closed.blocks()),
        sum_d_sq=closed.sum_d_sq,
        sum_d_deg=closed.sum_d_deg(),
        centralizer_dim=cent,
    )
