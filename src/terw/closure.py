"""Exact algebra-closure dimension and the conjugation-orbit machinery.

Two closure paths are provided.

``algebra_dimension`` is the plain oracle: seed a basis with the generator
matrices, repeatedly append products of basis elements with generators
(both sides), and row-reduce the flattened matrices exactly until the
dimension stabilizes.  Integer matrices are multiplied with
arbitrary-precision entries, so there is no tolerance anywhere.

``terwilliger_closure_dim`` specializes the same idea to the generators of
the Terwilliger algebra (scheme matrices plus dual idempotents) and makes it
fast enough for batch sweeps.  The key fact, checked exactly per instance
rather than assumed: all generators commute with every conjugation
permutation, hence everything the closure can produce is constant on the
orbits of G acting on G x G by simultaneous conjugation.  Each matrix is
then represented by one integer per orbit, products with generators become
sparse operator applications, and the orbit count is a hard ceiling for the
dimension (reaching it certifies equality with the centralizer algebra and
closure in one step).  The orbits are labelled by union-find over the pair
permutations of the generators (``groups.orbit_minima``), with no inverses.

With the dual idempotents among the generators, the algebra T is the direct
sum of its blocks E*_a T E*_b (Terwilliger, J. Algebraic Combin. 1, 1992),
and the orbit with representative (u, v) lies in block (class of u, class of
v).  Every generated vector is then split into its block parts, and each
part is ranked in its block's own basis, capped at the block's orbit count;
a part whose block is full is skipped.  Multiplying by an E*_i keeps or drops
whole parts, so only the scheme matrices act as operators, and these are
built only when a round leaves a block below its cap: for the groups here
the sandwiches E*_a N_j E*_b of round 0 already fill every block.  Without
the dual idempotents the same search runs with all orbits in one block.

Both paths rank integer vectors over Q with one basis, ``SparseRationalBasis``.
It eliminates fraction-free, as in Bareiss (Math. Comp. 22, 1968), but keeps
each row primitive instead of dividing by the previous pivot; no rational
number is ever formed.  The rank stops at ``cap`` only when it reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Sequence

import numpy as np

from .conjugacy import class_index_table, conjugacy_classes
from .errors import GuardExceededError, OracleMismatch
from .groups import D2Group, conjugation_table, index_tables, orbit_minima, per_group, read_only
from .limits import DEFAULT_MATRIX_GUARD, check_guard

SparseVec = dict[int, int]


class SparseRationalBasis:
    """Row-reduced basis of sparse integer vectors, ranked over Q.

    The pivot of a row is its smallest nonzero coordinate.  Each row is
    primitive (its entries have gcd 1) with a positive pivot coefficient.
    Entries are Python ints, so no product can overflow.
    """

    def __init__(self):
        self.rows: dict[int, SparseVec] = {}

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def insert(self, vec: SparseVec) -> bool:
        """Reduce vec against the basis; add the residual if nonzero."""
        work = {int(col): int(val) for col, val in vec.items() if val}
        while work:
            pivot = min(work)
            row = self.rows.get(pivot)
            if row is None:
                break
            coeff, lead = work[pivot], row[pivot]
            if lead != 1:
                # scale by lead / gcd(coeff, lead) rather than by lead, to keep
                # entries small
                shared = gcd(coeff, lead)
                coeff, lead = coeff // shared, lead // shared
                work = {col: val * lead for col, val in work.items()}
            for col, val in row.items():
                new = work.get(col, 0) - coeff * val
                if new:
                    work[col] = new
                else:
                    work.pop(col, None)
        if not work:
            return False
        pivot = min(work)
        content = gcd(*work.values())
        if work[pivot] < 0:
            content = -content
        self.rows[pivot] = {col: val // content for col, val in work.items()}
        return True


def algebra_dimension(
    generators: Sequence[np.ndarray],
    guard: int = DEFAULT_MATRIX_GUARD,
) -> int:
    """Dimension of the matrix algebra generated by the given integer matrices.

    Breadth-first closure: new candidates are products of matrices that grew
    the basis with the original generators, on both sides; stops when a full
    round adds nothing.
    """
    if not generators:
        raise ValueError("need at least one generator")
    side = generators[0].shape[0]
    if side > guard:
        raise GuardExceededError(f"matrix side {side} exceeds guard {guard}")
    gens = [np.asarray(g, dtype=object) for g in generators]

    def flat(mat: np.ndarray) -> SparseVec:
        entries = mat.ravel()
        cols = np.flatnonzero(entries)
        return dict(zip(cols.tolist(), entries[cols].tolist()))

    basis = SparseRationalBasis()
    frontier = [g for g in gens if basis.insert(flat(g))]
    while frontier:
        new: list[np.ndarray] = []
        for mat in frontier:
            for gen in gens:
                for prod in (mat @ gen, gen @ mat):
                    if basis.insert(flat(prod)):
                        new.append(prod)
        frontier = new
    return basis.dimension


# -- conjugation orbits -------------------------------------------------------


@dataclass
class Orbitals:
    """Orbits of G acting on G x G by simultaneous conjugation.

    ``labels[u, v]`` is the orbit id of the pair (u, v) over element indices;
    ids are contiguous and assigned in order of each orbit's first pair.
    ``reps`` is the (2, count) int32 array of those first pairs.
    """

    count: int
    labels: np.ndarray
    reps: np.ndarray


@per_group
def conjugation_perms(group: D2Group) -> np.ndarray:
    """Permutations x -> g x g^-1 of element indices, one int32 row per
    group generator g."""
    gens = np.array([group.index(g) for g in group.generators()])
    return read_only(conjugation_table(group, gens))


@per_group
def conjugation_orbitals(group: D2Group) -> Orbitals:
    """Label the simultaneous-conjugation orbits on G x G by union-find
    (``orbit_minima``) over the pair permutations (u, v) -> (gug^-1, gvg^-1)
    of the generators g; union-find needs no inverse permutations.  The pair
    code u * |G| + v is an int32, so |G|^2 must stay below 2^31."""
    order = group.order
    if order * order >= 2**31:
        raise GuardExceededError(f"group order {order}: pair codes exceed int32")
    # the pair permutations are freed once orbit_minima returns
    root = orbit_minima([(p[:, None] * order + p).ravel() for p in conjugation_perms(group)])
    # each orbit's first pair is its root
    first = np.flatnonzero(root == np.arange(order * order, dtype=root.dtype)).astype(np.int32)
    ids = np.empty_like(root)
    ids[first] = np.arange(len(first), dtype=root.dtype)
    return Orbitals(
        count=len(first),
        labels=read_only(ids[root].reshape(order, order)),
        reps=read_only(np.stack(np.divmod(first, np.int32(order)))),
    )


# -- Terwilliger closure in orbit coordinates ---------------------------------


def first_not_preserving(table: np.ndarray, perms: Iterable[np.ndarray]) -> int | None:
    """Position of the first p in perms with table[p][:, p] != table, or
    None if every p preserves the table."""
    moved = (k for k, p in enumerate(perms) if not np.array_equal(table[np.ix_(p, p)], table))
    return next(moved, None)


def _assert_conjugation_invariant(table: np.ndarray, perms: Iterable[np.ndarray]) -> None:
    """Exact certificate that every scheme matrix and dual idempotent lies in
    the centralizer algebra: the class-of-quotient table is invariant under
    simultaneous conjugation, and classes are conjugation-stable."""
    if first_not_preserving(table, perms) is not None:
        raise OracleMismatch(
            "conjugation does not preserve the class table; generators "
            "would not lie in the centralizer algebra"
        )


Operator = Callable[[SparseVec], SparseVec]


def _gather_operator(sources: np.ndarray) -> Operator:
    """The operator whose output at orbit ``row`` is the sum over k of its
    input at orbit ``sources[k, row]``; the rows reading each source are
    kept in increasing order."""
    rows = np.repeat(np.arange(sources.shape[1]), sources.shape[0])
    sources = sources.T.ravel()
    order = np.argsort(sources, kind="stable")
    sources, rows = sources[order], rows[order]
    bounds = (np.flatnonzero(np.diff(sources)) + 1).tolist()
    starts, ends, rows = [0, *bounds], [*bounds, len(rows)], rows.tolist()
    incoming = {
        src: rows[a:b] for src, a, b in zip(sources[starts].tolist(), starts, ends)
    }

    def apply(vec: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for col, val in vec.items():
            for row in incoming.get(col, ()):
                out[row] = out.get(row, 0) + val
        return {k: v for k, v in out.items() if v}

    return apply


def scheme_operators(group: D2Group) -> list[Operator]:
    """The operators that multiply by each scheme matrix N_j, on the left and
    then on the right, in orbit coordinates."""
    classes = conjugacy_classes(group)
    orb = conjugation_orbitals(group)
    rep_u, rep_v = orb.reps
    mult, inv = index_tables(group)
    operators: list[Operator] = []
    for j in range(len(classes)):
        elems = np.flatnonzero(classes.labels == j)
        # (N_j X)(u, v) = sum over c in class j of X(c*u, v)
        operators.append(_gather_operator(orb.labels[mult[np.ix_(elems, rep_u)], rep_v]))
        # (X N_j)(u, v) = sum over c in class j of X(u, c^-1 * v)
        operators.append(_gather_operator(orb.labels[rep_u, mult[np.ix_(inv[elems], rep_v)]]))
    return operators


def terwilliger_generator_coords(
    group: D2Group, include_scheme: bool = True, include_dual: bool = True
) -> tuple[list[SparseVec], np.ndarray | None]:
    """Orbit coordinates of the scheme matrices and of the dual idempotents
    (either family may be left out), and the block of each orbit.

    The block of the orbit with rep (u, v) is class(u) * l + class(v), the
    E*_a T E*_b it lies in.  Blocks are returned only with the dual
    idempotents: without them the algebra need not split.
    """
    classes = conjugacy_classes(group)
    orb = conjugation_orbitals(group)
    rep_u, rep_v = orb.reps
    row_class = classes.labels[rep_u]  # class of u at each orbit rep (u, v)
    vectors: list[SparseVec] = []
    if include_scheme:
        rel = class_index_table(group)[rep_u, rep_v]  # class of v*u^-1
        for j in range(len(classes)):
            vectors.append(dict.fromkeys(np.flatnonzero(rel == j).tolist(), 1))
    if not include_dual:
        return vectors, None
    diag_class = np.where(rep_u == rep_v, row_class, -1)  # -1 off the diagonal
    for i in range(len(classes)):
        vectors.append(dict.fromkeys(np.flatnonzero(diag_class == i).tolist(), 1))
    return vectors, row_class * len(classes) + classes.labels[rep_v]


def _block_parts(vec: SparseVec, block_of: list[int] | None) -> Iterable[tuple[int, SparseVec]]:
    """The nonzero parts of vec, one per block, with their block ids."""
    if block_of is None:
        return [(0, vec)] if vec else []
    parts: dict[int, SparseVec] = {}
    for col, val in vec.items():
        if val:
            parts.setdefault(block_of[col], {})[col] = val
    return parts.items()


def closure_dim_in_orbit_coords(
    vectors: list[SparseVec],
    operators: Callable[[], Sequence[Operator]],
    cap: int,
    blocks: np.ndarray | None = None,
) -> int:
    """Exact breadth-first closure dimension in orbit coordinates.

    Each round applies every operator to the vectors that grew the basis in
    the round before.  ``cap`` is the orbit count: since every product stays
    constant on orbits, a rank that reaches it proves closure without
    generating more products.

    ``blocks`` gives the block of each coordinate, for an algebra that holds
    the projection onto each block: every vector is then split into its
    block parts and each part is ranked in its block's own basis, capped at
    the block's coordinate count, and a part whose block is full is
    skipped.  Without ``blocks`` all coordinates form one block.
    ``operators`` is called at most once, when a round ends with a block
    below its cap.
    """
    if blocks is None:
        block_of, caps = None, [cap]
    else:
        block_of, caps = blocks.tolist(), np.bincount(blocks).tolist()
    bases = [SparseRationalBasis() for _ in caps]
    rank = 0
    ops: Sequence[Operator] | None = None
    batch: Iterable[SparseVec] = vectors
    while True:
        frontier = []
        for vec in batch:
            for block, part in _block_parts(vec, block_of):
                basis = bases[block]
                if basis.dimension < caps[block] and basis.insert(part):
                    rank += 1
                    if rank == cap:
                        return cap
                    frontier.append(part)
        if not frontier:
            return rank
        if ops is None:
            ops = operators()
        batch = (op(vec) for vec in frontier for op in ops)


def terwilliger_closure_dim(
    group: D2Group,
    guard: int = DEFAULT_MATRIX_GUARD,
    include_scheme: bool = True,
    include_dual: bool = True,
) -> int:
    """Closure dimension of the algebra generated by the scheme matrices and
    dual idempotents (by default: the Terwilliger algebra).

    Restricting the generator set exercises genuinely smaller algebras, e.g.
    the scheme matrices alone span the commutative adjacency algebra.
    """
    check_guard(group.order, guard, "the closure path")
    _assert_conjugation_invariant(class_index_table(group), conjugation_perms(group))
    vectors, blocks = terwilliger_generator_coords(group, include_scheme, include_dual)
    if not vectors:
        raise ValueError("need at least one family of generators")

    def operators() -> list[Operator]:
        # multiplying by E*_i keeps or drops whole block parts, so only the
        # scheme matrices need operators
        return scheme_operators(group) if include_scheme else []

    return closure_dim_in_orbit_coords(
        vectors, operators, cap=conjugation_orbitals(group).count, blocks=blocks
    )
