"""Exact algebra-closure dimension and the conjugation-orbit machinery.

``algebra_dimension`` is the plain oracle: seed a basis with the generator
matrices, append the products of basis elements with the generators on the
right, and row-reduce the flattened matrices exactly until the dimension
stabilizes or reaches side^2.  ``matrix_products`` multiplies a block of
them by all the generators at once and sums the terms by one sort, in int64
when a bound keeps every partial sum below 2^63 and in Python ints
otherwise: no tolerance, no overflow.  Right products suffice: when the
search stops, every element that grew the span W has been multiplied on the
right by every generator s, so W s lies in W; by induction W holds every
word in the generators, so it is the algebra.

``terwilliger_closure_dim`` specializes it to the scheme matrices and the
dual idempotents.  They commute with every conjugation permutation, which
``conjugation_certificate`` checks exactly per group: the class-index table
is invariant under the generators' conjugations ``groups.conjugations``.  It
is a per-group artefact, so ``verify_scheme_axioms`` and every closure of a
group share its one scan, and a closure called on its own reads it before it
counts.  So everything the closure produces is constant on the orbits of G
on G x G under simultaneous conjugation: a matrix is one integer per orbit,
kept as a sparse row (its nonzero columns and values), and the orbit count
caps the dimension (reaching it certifies equality with the centralizer
algebra).  The orbits are labelled by union-find (``groups.orbit_minima``)
over the pair permutations (u, v) -> (s^-1 u s, s^-1 v s), with no inverses.

Both run one search, ``closure_dim_in_orbit_coords``: one basis, seeded with
the generators, and one batched product function that forms, a block of
frontier rows at a time, all their products with the generators, and hands
each block's products to the basis as they are formed, so that a round is
never formed whole: ``matrix_products`` for explicit matrices, and in orbit
coordinates ``orbit_products`` for the families it was given (without the
dual idempotents, the adjacency algebra).  The products by the N_j read one
``per_group`` artefact, ``scatter_index``, the (class, orbit) codes each
source orbit adds to, so their cost follows the nonzeros of a block times |G|.
The basis, ``SparseRationalBasis``, ranks integer vectors over Q.  It
eliminates fraction-free, as in Bareiss (Math. Comp. 22, 1968), but keeps
each row primitive instead of dividing by the previous pivot; no rational
number is ever formed.  Its rows are in reduced echelon form, each zero at
every other row's pivot, so a vector is reduced in one pass over the pivots
where it is nonzero, with no fill-in to chase; a row that grows the basis
is cleared from the rows that hold its pivot column.  It takes the search's
sparse rows as they are and reads their values once, by ``tolist``.  The
rank stops at ``cap`` only when it reaches it.

The full closure needs no elimination: each orbit lies in exactly one
sandwich E*_a N_j E*_b, so the distinct sandwiches are independent and
``sandwich_count`` counts them.  They lie in the algebra and its rank never
passes the orbit count, so a count at the cap is the closure dimension; for
the groups here it always is, and the product rounds run only below it.

The search keeps most products away from the basis (``_unseen``).  A
product is skipped when it is zero, when it equals a vector of the previous
frontier (X I = X, E E = E), or when it equals a product already formed in
the same round (A_i A_j = A_j A_i).  Each of these already lies in the span
the basis holds: the frontier vectors grew it, and an earlier product of the
round was offered to it first.  So its insert would return False, and the
frontiers, the order of growth and the dimension are those of the search
without the skip.  Products are compared by their exact content, the column
bytes and the Python ints of a sparse row, never by a digest, and the keys
are kept for one round only.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .conjugacy import class_index_table, conjugacy_classes
from .errors import GuardExceededError, OracleMismatch
from .groups import (
    D2Group, conjugations, index_tables, inverses, orbit_minima, per_group, read_only
)
from .limits import DEFAULT_MATRIX_GUARD, check_guard

SparseVec = dict[int, int]
SparseRow = tuple[np.ndarray, np.ndarray]  # increasing columns and their nonzero values
Products = Callable[[Sequence[SparseRow]], Iterable[SparseRow]]

INT64_LIMIT = 2**63


def _subtract(work: SparseVec, coeff: int, row: SparseVec, pivot: int) -> SparseVec:
    """A positive multiple of work minus a multiple of row, zero at pivot,
    for coeff = work[pivot]: fraction-free, work is scaled by row[pivot] /
    gcd(coeff, row[pivot]) rather than by row[pivot], to keep entries small.
    work may be changed in place, and zeros may remain."""
    lead = row[pivot]
    if lead != 1:
        shared = gcd(coeff, lead)
        coeff, lead = coeff // shared, lead // shared
        if lead != 1:
            work = {col: val * lead for col, val in work.items()}
    for col, val in row.items():
        work[col] = work.get(col, 0) - coeff * val
    return work


def _primitive(work: SparseVec, pivot: int) -> SparseVec:
    """The nonzero entries of work divided by their gcd, signed so that the
    pivot entry is positive."""
    lead = work[pivot]
    content = 1 if lead in (1, -1) else gcd(*work.values())  # the gcd divides the lead
    if lead < 0:
        content = -content
    return {col: val // content for col, val in work.items() if val}


class SparseRationalBasis:
    """Basis of sparse integer vectors in reduced row-echelon form, ranked
    over Q.

    The pivot of a row is its smallest nonzero coordinate, and every row is
    zero at the pivot of every other row.  Each row is primitive (its
    entries have gcd 1) with a positive pivot coefficient, so the rows are
    the one such basis of their span.  Entries are Python ints, so no
    product can overflow.
    """

    def __init__(self):
        self.rows: dict[int, SparseVec] = {}
        # the pivots of the rows that are nonzero at each column besides their
        # pivot, so that a new pivot is cleared without a scan of every row
        self.holders: dict[int, set[int]] = {}

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def insert(self, vec: SparseRow) -> bool:
        """Reduce the sparse row vec against the basis; add the residual if
        nonzero.  Its values may be of any integer dtype or Python ints in
        an object array; ``tolist`` reads them all as exact Python ints,
        and the arrays are left unchanged.

        The basis rows are zero at each other's pivots, so subtracting one
        changes vec at no other pivot: one pass over the pivots where vec
        is nonzero reduces it.  A nonzero residual becomes a new row, and
        its pivot is cleared from every row that has it, fraction-free.
        """
        cols, vals = vec
        work = dict(zip(cols.tolist(), vals.tolist()))
        rows = self.rows
        for pivot in rows.keys() & work.keys():
            coeff = work[pivot]
            if coeff:
                work = _subtract(work, coeff, rows[pivot], pivot)
        if not any(work.values()):
            return False
        pivot = min(col for col, val in work.items() if val)
        new = _primitive(work, pivot)
        holders = self.holders
        others = new.keys() - {pivot}
        for at in holders.pop(pivot, ()):
            row = rows[at] = _primitive(_subtract(rows[at], rows[at][pivot], new, pivot), at)
            for col in others:  # only the columns of new can change
                if col in row:
                    holders.setdefault(col, set()).add(at)
                elif col in holders:
                    holders[col].discard(at)
        for col in others:
            holders.setdefault(col, set()).add(pivot)
        rows[pivot] = new
        return True


def _row_content(vec: SparseRow) -> Hashable:
    cols, vals = vec
    return (cols.tobytes(), tuple(vals.tolist())) if len(cols) else None


def _unseen(
    candidates: Iterable[SparseRow], previous: Iterable[Hashable]
) -> Iterator[tuple[SparseRow, Hashable]]:
    """The candidates that are nonzero and repeat neither a vector of the
    previous frontier, given by its ``_row_content`` keys, nor an earlier
    candidate, each with its key.  Every candidate left out lies in the span
    of the basis already (see the module docstring)."""
    seen = {None, *previous}
    for vec in candidates:
        key = _row_content(vec)
        if key not in seen:
            seen.add(key)
            yield vec, key


def _positions(indptr: np.ndarray, keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions in a CSR index of the entries of each key in turn, ``lengths`` of each."""
    ends = np.cumsum(lengths)
    at = np.repeat(indptr[keys] - ends + lengths, lengths)
    at += np.arange(len(at))
    return at


def matrix_products(generators: Sequence[SparseRow], side: int) -> Products:
    """The function that yields the nonzero products X s of a frontier of
    side x side matrices with each generator s on the right: row by row,
    generator by generator, columns increasing.  Matrices and generators
    are sparse rows over the codes i * side + k.

    The generators' entries are indexed by their row k in CSR form.  In a
    block of at most ``BLOCK_ENTRIES`` terms (``_blocks``), entry (i, k) of
    block row f adds X[i, k] s[k, j] at f * (count * side^2) + g * side^2 +
    i * side + j for each entry (k, j) of each generator g; one stable sort
    and one ``np.add.reduceat`` sum the terms of each code.  Every term and
    partial sum is at most max|X| times the largest absolute column sum of a
    generator (at least 1): below 2^63 they are summed in int64, otherwise in
    Python ints; no term passes through float64, whose sums are exact to 2^53.
    """
    count, area = len(generators), side * side
    gen = np.repeat(np.arange(count), [len(cols) for cols, _ in generators])
    row, col = np.divmod(np.concatenate([cols for cols, _ in generators]), side)
    vals = np.concatenate([vals for _, vals in generators]).astype(object)
    by_row = np.argsort(row, kind="stable")
    targets, values = (gen * area + col)[by_row], vals[by_row]
    indptr = np.searchsorted(row[by_row], np.arange(side + 1))
    col_sums = np.zeros(count * side, dtype=object)
    np.add.at(col_sums, gen * side + col, np.abs(vals))
    col_sum = max([1, *col_sums.tolist()])
    values64 = values.astype(np.int64) if col_sum < INT64_LIMIT else None

    def products(frontier: Sequence[SparseRow]) -> Iterator[SparseRow]:
        sizes = [len(cols) for cols, _ in frontier]
        i, k = np.divmod(np.concatenate([cols for cols, _ in frontier]), side)
        x = np.concatenate([vals for _, vals in frontier])
        lengths = indptr[k + 1] - indptr[k]
        bounds = np.cumsum([0, *sizes]).tolist()
        for first, last in _blocks(np.add.reduceat(lengths, bounds[:-1]).tolist()):
            a, b = bounds[first], bounds[last]
            at = _positions(indptr, k[a:b], lengths[a:b])
            base = np.repeat(np.arange(last - first), sizes[first:last]) * (count * area)
            code = targets[at] + np.repeat(base + i[a:b] * side, lengths[a:b])
            top = max(int(x[a:b].max()), -int(x[a:b].min()))
            exact = top * col_sum < INT64_LIMIT  # so col_sum < 2^63 and values64 exists
            terms = np.repeat(x[a:b].astype(np.int64 if exact else object), lengths[a:b])
            terms *= (values64 if exact else values)[at]
            order = np.argsort(code, kind="stable")
            code = code[order]
            starts = np.flatnonzero(np.diff(code, prepend=-1))
            sums = np.add.reduceat(terms[order], starts)
            nonzero = sums != 0
            key, out = np.divmod(code[starts][nonzero], area)
            yield from _runs(key, out, sums[nonzero])

    return products


def _is_integer(val: Any) -> bool:
    try:
        return int(val) == val
    except (TypeError, ValueError, OverflowError):
        return False


def _flattened(gen: np.ndarray, side: int) -> SparseRow:
    """The nonzero entries of gen as a sparse row of Python ints over the codes
    i * side + k.  A ValueError names the first entry that differs from its
    int(), since int() alone would truncate 0.5 to 0."""
    entries = np.asarray(gen).ravel()
    cols = np.flatnonzero(entries)
    vals = entries[cols].tolist()
    for col, val in zip(cols.tolist(), vals):
        if not _is_integer(val):
            raise ValueError(f"generator entry {divmod(col, side)} is {val!r}, not an integer")
    return cols, np.array([int(val) for val in vals], dtype=object)


def algebra_dimension(generators: Sequence[np.ndarray], guard: int = DEFAULT_MATRIX_GUARD) -> int:
    """Dimension of the matrix algebra generated by the given integer matrices:
    ``closure_dim_in_orbit_coords`` on the flattened matrices, with the right
    products of ``matrix_products`` and the cap side^2.  Integral floats and
    objects are read as exact Python ints; any other entry raises ValueError
    before any work, as a generator of the wrong shape does."""
    if not generators:
        raise ValueError("need at least one generator")
    shapes = [np.shape(g) for g in generators]
    if len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1] or len(set(shapes)) > 1:
        raise ValueError(f"generators must be square and of one side, not {sorted(set(shapes))}")
    side = shapes[0][0]
    if side > guard:
        raise GuardExceededError(f"matrix side {side} exceeds guard {guard}")
    rows = [_flattened(gen, side) for gen in generators]
    return closure_dim_in_orbit_coords(rows, matrix_products(rows, side), side * side)


# -- conjugation orbits -------------------------------------------------------


class Orbitals(namedtuple("Orbitals", "count labels reps")):
    """Orbits of G acting on G x G by simultaneous conjugation.

    ``labels[u, v]``, an np.ndarray, is the orbit id of the pair (u, v) over
    element indices; ids are contiguous and assigned in order of each orbit's
    first pair, and ``count``, an int, is their number.  ``reps`` is the
    (2, count) int32 array of those first pairs.
    """

    __slots__ = ()


@per_group
def conjugation_orbitals(group: D2Group) -> Orbitals:
    """Label the simultaneous-conjugation orbits on G x G by union-find
    (``orbit_minima``) over the pair permutations (u, v) -> (s^-1 u s, s^-1 v s)
    of the generators s, from ``conjugations``; union-find needs no inverse
    permutations.  The pair code u * |G| + v is an int32, so |G|^2 must stay
    below 2^31."""
    order = group.order
    if order * order >= 2**31:
        raise GuardExceededError(f"group order {order}: pair codes exceed int32")
    # the pair permutations are freed once orbit_minima returns
    root = orbit_minima([(p[:, None] * order + p).ravel() for p in conjugations(group)])
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
    None if every p preserves the table; compared in blocks of about 2^18
    cells, each a gather of whole rows and one take along them."""
    step = max(1, 2**18 // len(table))
    blocks = [slice(a, a + step) for a in range(0, len(table), step)]
    moved = (k for k, p in enumerate(perms) if not all(
        np.array_equal(table[p[rows]].take(p, axis=1), table[rows]) for rows in blocks))
    return next(moved, None)


@per_group
def conjugation_certificate(group: D2Group) -> int | None:
    """The position of the first generator whose conjugation moves
    ``class_index_table``, or None: None certifies exactly that every
    scheme matrix and dual idempotent lies in the centralizer algebra."""
    return first_not_preserving(class_index_table(group), conjugations(group))


# the most entries of one block of frontier rows, unless it is one row: its
# scatter entries, plus for the orbit products its dense output, rows times
# class count times orbit count, so that a block's temporaries stay at a few MiB
BLOCK_ENTRIES = 2**15


class ScatterIndex:
    """What the right products by the scheme matrices read in orbit
    coordinates, keyed by source orbit.

    For the representative (u, v) of orbit c and g in class j, the orbit s
    of (u, g^-1 v) is a source of c in class j: (X N_j)(c) is the sum of
    X(s) over the g of class j.  ``targets[indptr[s]:indptr[s + 1]]`` are
    the int32 codes j * cap + c of every such (g, c) with source s, in
    increasing order (a code repeats once per such g), for cap the orbit
    count; no class has more than ``largest`` elements.  A plain class with
    slots, the cheapest record to create on import: for 6 fields, about
    0.007 ms, against 0.06 ms for a ``collections.namedtuple`` subclass,
    0.088 ms for a ``typing.NamedTuple`` and 0.14 ms for one whose
    annotations are strings (CPython 3.11).
    """

    __slots__ = ("targets", "indptr", "largest")

    def __init__(self, targets: np.ndarray, indptr: np.ndarray, largest: int):
        self.targets = targets
        self.indptr = indptr
        self.largest = largest


@per_group
def scatter_index(group: D2Group) -> ScatterIndex:
    """The read-only source index of the scheme products, from one int64
    sort key per (g, c): the source s in the high bits and the target
    j * cap + c in the low ones, sorted in place and masked down to the
    targets in place."""
    classes = conjugacy_classes(group)
    orb = conjugation_orbitals(group)
    rep_u, rep_v = orb.reps
    cap = orb.count
    span = len(classes) * cap
    if span > 2**31:
        raise GuardExceededError(f"group order {group.order}: scatter targets exceed int32")
    shift = (span - 1).bit_length()
    by_class = np.argsort(classes.labels, kind="stable")
    key = orb.labels[rep_u, index_tables(group, inverses(group)[by_class], rep_v)].astype(np.int64)
    key <<= shift
    key += classes.labels[by_class, None].astype(np.int64) * cap
    key += np.arange(cap)
    key = key.ravel()
    key.sort()
    indptr = np.searchsorted(key, np.arange(cap + 1) << shift)
    key &= (1 << shift) - 1
    return ScatterIndex(
        targets=read_only(key.astype(np.int32)),
        indptr=read_only(indptr),
        largest=int(np.bincount(classes.labels).max()),
    )


def _runs(keys: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list[SparseRow]:
    """The (cols, vals) of each run of equal keys, for increasing keys."""
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return [(cols[a:b], vals[a:b]) for a, b in zip(bounds, bounds[1:])]


def _by_key(keys: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> list[SparseRow]:
    """The (cols, vals) of each key present, in increasing key order; a
    stable sort keeps the columns of each key in their order."""
    order = np.argsort(keys, kind="stable")
    return _runs(keys[order], cols[order], vals[order])


def _blocks(weights: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges [a, b) whose weights add up to at most
    ``BLOCK_ENTRIES``, or that hold a single row above it."""
    first, total = 0, 0
    for row, weight in enumerate(weights):
        if row > first and total + weight > BLOCK_ENTRIES:
            yield first, row
            first, total = row, 0
        total += weight
    yield first, len(weights)


def _scatter(
    index: ScatterIndex, span: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the products of a block by every N_j: their
    codes f * span + j * cap + c, increasing, and their values.  One
    ``np.add.at`` adds each entry X(s) of block row f at f * span plus every
    target of s (``lengths`` of them) in a dense output, and a mask of the
    codes it touched picks the entries to read, so no scan reads the whole
    output.  Every partial sum is at most max|X| times the largest class
    size; below 2^63 the sums are int64, otherwise Python ints."""
    top = max(int(vals.max()), -int(vals.min()))
    dtype = np.int64 if top * index.largest < INT64_LIMIT else object
    at = index.targets[_positions(index.indptr, cols, lengths)] + np.repeat(rows * span, lengths)
    size = (int(rows[-1]) + 1) * span
    out = np.zeros(size, dtype)
    np.add.at(out, at, np.repeat(vals.astype(dtype), lengths))
    touched = np.zeros(size, bool)
    touched[at] = True
    flat = np.flatnonzero(touched)
    sums = out[flat]
    nonzero = sums != 0
    return flat[nonzero], sums[nonzero]


def orbit_products(
    group: D2Group, include_scheme: bool = True, include_dual: bool = True
) -> Products:
    """The function that yields the nonzero products of a frontier of orbit
    vectors with each generator on the right: row by row, in the order of
    ``terwilliger_generator_coords``, by every scheme matrix N_j, then by
    every dual idempotent E*_i.

    The rows go in blocks of about ``BLOCK_ENTRIES``.  The scheme products
    of a block are one scatter (``_scatter``) through ``scatter_index``, so
    their cost follows the nonzeros of the rows times |G|, not the orbit
    count.  X E*_i keeps the entries of X whose orbit has v in class i; it
    reads only the class of each orbit's v, so a closure without the scheme
    matrices builds no ``scatter_index``.  One stable sort of the keys
    f * width + j (X N_j of block row f) and f * width + (width - ell) + i
    (X E*_i), width the number of generators, puts the products of a block
    in order; each run of one key is one product, its columns increasing.
    """
    classes, orb = conjugacy_classes(group), conjugation_orbitals(group)
    ell, cap = len(classes), orb.count
    span, width = ell * cap, ell * (include_scheme + include_dual)
    index = scatter_index(group) if include_scheme else None
    col_class = classes.labels[orb.reps[1]] if include_dual else None

    def products(frontier: Sequence[SparseRow]) -> Iterator[SparseRow]:
        sizes = [len(cols) for cols, _ in frontier]
        cols = np.concatenate([cols for cols, _ in frontier])
        vals = np.concatenate([vals for _, vals in frontier])
        bounds = np.cumsum([0, *sizes]).tolist()
        weights = sizes
        if index is not None:
            lengths = index.indptr[cols + 1] - index.indptr[cols]
            weights = (span + np.add.reduceat(lengths, bounds[:-1])).tolist()
        for first, last in _blocks(weights):
            a, b = bounds[first], bounds[last]
            rows = np.repeat(np.arange(last - first), sizes[first:last])
            keys, parts = [], []
            if index is not None:
                flat, sums = _scatter(index, span, rows, cols[a:b], vals[a:b], lengths[a:b])
                code, col = np.divmod(flat, cap)  # code = f * ell + j
                keys.append(code + code // ell * (width - ell))
                parts.append((col, sums))
            if col_class is not None:
                keys.append(rows * width + (width - ell) + col_class[cols[a:b]])
                parts.append((cols[a:b], vals[a:b]))
            yield from _by_key(
                np.concatenate(keys),
                np.concatenate([col for col, _ in parts]),
                np.concatenate([val for _, val in parts]),
            )

    return products


def terwilliger_generator_coords(
    group: D2Group, include_scheme: bool = True, include_dual: bool = True
) -> list[SparseRow]:
    """Orbit coordinates of the scheme matrices and of the dual idempotents,
    as sparse 0/1 rows; either family may be left out.  Every class labels
    some orbit of each kind, that of (e, c) and that of (c, c) for e the
    identity and c in the class, so each family has one row per class."""
    classes = conjugacy_classes(group)
    rep_u, rep_v = conjugation_orbitals(group).reps
    rows = []
    if include_scheme:
        rel = class_index_table(group)[rep_u, rep_v]  # class of v*u^-1
        rows += _by_key(rel, np.arange(len(rel)), np.ones(len(rel), np.int8))
    if include_dual:
        diagonal = np.flatnonzero(rep_u == rep_v)
        ones = np.ones(len(diagonal), np.int8)
        rows += _by_key(classes.labels[rep_u[diagonal]], diagonal, ones)
    return rows


def closure_dim_in_orbit_coords(rows: Iterable[SparseRow], products: Products, cap: int) -> int:
    """Exact breadth-first closure dimension of sparse integer rows.

    The basis is seeded with the rows.  Each round hands the vectors that
    grew the basis in the round before to ``products`` as one frontier and
    offers their products to the basis as they come; zero and repeated
    products are skipped (``_unseen``).  ``cap`` bounds the rank, the orbit
    count in orbit coordinates and side^2 for flattened matrices, so a rank
    that reaches it proves closure without generating more products.
    """
    basis = SparseRationalBasis()
    batch: Iterable[SparseRow] = rows
    previous: list[Hashable] = []
    while True:
        frontier = []
        for vec, key in _unseen(batch, previous):
            if basis.insert(vec):
                if basis.dimension == cap:
                    return cap
                frontier.append((vec, key))
        if not frontier:
            return basis.dimension
        previous = [key for _, key in frontier]
        batch = products([vec for vec, _ in frontier])


def sandwich_count(group: D2Group) -> int:
    """Number of distinct nonzero sandwiches E*_a N_j E*_b in orbit
    coordinates: the distinct (class u, class v, class v*u^-1) over the orbit
    reps (u, v), counted by sorting their codes.  The sandwiches have
    disjoint 0/1 supports, so this is the rank of their span over Q.  With
    N_0 = I the E*_i = E*_i N_0 E*_i are sandwiches too, so it is also the
    rank of the block parts E*_a X E*_b of the generators X."""
    classes = conjugacy_classes(group)
    ell = len(classes)
    rep_u, rep_v = conjugation_orbitals(group).reps
    code = np.min_scalar_type(ell**3 - 1)
    labels = classes.labels.astype(code)
    rel = class_index_table(group)[rep_u, rep_v].astype(code)
    codes = np.sort((labels[rep_u] * ell + labels[rep_v]) * ell + rel)
    return int(np.count_nonzero(np.diff(codes))) + 1


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
    if not (include_scheme or include_dual):
        raise ValueError("need at least one family of generators")
    check_guard(group.order, guard, "the closure path")
    if conjugation_certificate(group) is not None:
        raise OracleMismatch("conjugation does not preserve the class table; generators "
                             "would not lie in the centralizer algebra")
    cap = conjugation_orbitals(group).count
    if include_scheme and include_dual and sandwich_count(group) == cap:
        return cap
    return closure_dim_in_orbit_coords(
        terwilliger_generator_coords(group, include_scheme, include_dual),
        orbit_products(group, include_scheme, include_dual),
        cap,
    )
