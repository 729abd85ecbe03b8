"""Reference versions of the library's checks and of its exact rank.

The scheme-axiom and central-idempotent references work on explicit
|G| x |G| matrices: the axioms by one einsum over all pairs of scheme
matrices (l^2 |G|^3 work), the idempotents by products of the dense e_j and
a loop over the orbits for each block trace.  The library checks the same
identities without dense products.  A second axiom reference checks (iv) on
the class-index table by sorted cells on every row (|G|^3 codes sorted),
where the library sorts the row of the identity only, after checking that
right translations by the generators preserve the table.  The sandwich reference loops over the
l^3 class triples, where the library counts the distinct sandwich codes of the orbit
representatives.  The triple-code reference codes every pair (u, v) of G x G, where the library
codes the l rows of the class representatives.  The rank
reference eliminates over ``Fraction`` to echelon form, where the library
keeps primitive integer rows in reduced echelon form.  The per-row product
reference gathers each frontier row densely through an (|G|, orbit count)
source table and sums the rows of
each class, where the library scatters the nonzeros of a block of rows
through a source-keyed index.  The two explicit-matrix closure references
multiply dense matrices: one on the right, in float64 (BLAS) when a bound
proves every partial sum an exact float64 integer and in Python ints
otherwise, ranked by the ``Fraction`` reference, the other on both sides
with Python ints only, ranked by one fraction-free (Bareiss) elimination,
where the library multiplies sparse rows on the right, summing their terms
by one sort, in int64 when a bound proves the sums fit.  The orbital reference
propagates minimum labels sweep after sweep over the pair permutations and
their inverses, and the class reference
conjugates every element by every element and orders the orbits by kind,
where the library labels both orbit sets by union-find over the generators
only and orders the classes by their minima.  The character-table
export references format every entry on its own from ``table_entry``: the
report as one dict for ``json.dumps``, the text and CSV exports with their
format strings, where the library formats each distinct entry once from the
integer arrays.  The structure-constant references are dense (l, l, l)
tensors: p by one l^2-bin count per class with ``group.mul``, and the class
constants a[i, j, k] = p[j, i, k] by one count over the multiplication
table, where the library keeps the nonzero p_ij^k as sparse (code, count)
pairs, sorted per class; ``dense_view`` and ``sparse_pairs`` convert between
the two forms.  The float references check both orthogonality relations and
the central-idempotent relations eps_j eps_m = delta_jm eps_j in complex
floating point, with the dense class constants, where the library checks
one exact certificate on a few classes and derives the relations from it.
The block-trace reference gathers the orbit label of (u, g^-1 v g) for
every orbit representative (u, v) and every g, where
the library sums the structure constants against the permutation
character.  The label reference walks the character indices of A and
pairs J with J*s, where the library reads the labels off the coset and
paired class representatives.  The per-entry reference evaluates the
table's formula one entry at a time as a normalised {exponent: coefficient}
dict, where the library fills whole blocks of the integer arrays by matrix
products; it is the same formula, so the certificate of
``verify_orthogonality``, not this comparison, is what shows the table is
right.  The certificate reference
reduces every clause of that certificate in Z[z_M] by
``cyclotomic.reduced_sums``, where the library decides them from residues
in F_p under one prime or, past its bound, several.  The centralizer reference
compares the whole multiplication table with its transpose, where the
library counts the commuting products on the representative rows only, and
the member reference lists each class element by element, where the
library keeps no member tuples.  ``conjugate`` forms one by g by^-1 by
``group.mul``, where the library conjugates whole label arrays.
``elementwise_translations`` calls ``group.mul`` once per generator and
element and ``group.inv`` once per element, where the library calls each
once per coset on whole coordinate arrays.  The tests compare each pair on
small inputs.
"""

import cmath
import csv
import io
from fractions import Fraction
from itertools import product

import numpy as np

from terw import (
    AxiomFailure,
    IdempotencyFailure,
    LinearLabel,
    OracleMismatch,
    OrthogonalityFailure,
    TwoDimLabel,
    adjacency_matrices,
    central_idempotent,
)
from terw.closure import Orbitals, conjugation_orbitals
from terw.conjugacy import (
    COSET,
    FIXED,
    PAIRED,
    ClassList,
    ConjClass,
    class_index_table,
    conjugacy_classes,
    structure_tensor,
)
from terw.characters import elem_json
from terw.cyclotomic import integer_values, reduced_sums
from terw.groups import index_tables, inverses, read_only


def normalise(order, terms):
    """The sum of c z^e over the (e, c) ``terms``, z = exp(2 pi i / order), as
    an {exponent: coefficient} dict: exponents mod order, equal ones merged
    and zero coefficients dropped, each exponent where its first term put it."""
    entry = {}
    for e, c in terms:
        e %= order
        entry[e] = entry.get(e, 0) + c
        if not entry[e]:
            del entry[e]
    return entry


def evaluate(order, entry):
    """The complex value of a normalised entry, summed from 0j in its order."""
    step = 2j * cmath.pi / order
    return sum((c * cmath.exp(step * e) for e, c in entry.items()), 0j)


def multiply(order, a, b):
    """The product of two normalised entries, normalised."""
    return normalise(order, [(e + f, c * d) for e, c in a.items() for f, d in b.items()])


def table_entry(table, r, c):
    """Entry (r, c) of ``table``, read from its arrays and normalised."""
    terms = zip(table.exponents[r, c].tolist(), table.coefficients[r, c].tolist())
    return normalise(table.root_order, terms)


def elementwise_translations(group):
    """The right translations x -> x*s by the generators s, one row each, and
    the inversion x -> x^-1, as int32 element indices: one ``group.mul`` per
    generator and element, one ``group.inv`` per element."""
    elems = list(group.elements())
    rho = [[group.index(group.mul(x, s)) for x in elems] for s in group.generators()]
    iota = [group.index(group.inv(x)) for x in elems]
    return np.array(rho, dtype=np.int32), np.array(iota, dtype=np.int32)


def structure_constant(group, i, j, k):
    """p_ij^k: with x = e and y any element of class k, the number of z in
    class i such that y*z^-1 lies in class j.  Independent of the chosen y."""
    classes = conjugacy_classes(group)
    y = classes[k].rep
    count = 0
    for z in class_members(group, classes)[i]:
        if classes.labels[group.index(group.mul(y, group.inv(z)))] == j:
            count += 1
    return count


def dense_structure_tensor(group):
    """Full tensor p[i, j, k]: the number of pairs (u, v) in class i x
    class j with v*u = y_k, for the representative y_k of class k; one
    l^2-bin count per class, with ``group.mul`` and ``group.inv``."""
    classes = conjugacy_classes(group)
    ell = len(classes)
    inverted = [group.inv(u) for u in group.elements()]
    first = classes.labels.astype(np.int64) * ell  # class of u, by element index
    p = np.empty((ell, ell, ell), dtype=np.int64)
    for k, cls in enumerate(classes):
        second = [classes.labels[group.index(group.mul(cls.rep, u_inv))] for u_inv in inverted]
        p[:, :, k] = np.bincount(first + second, minlength=ell * ell).reshape(ell, ell)
    return p


def dense_view(pairs, ell):
    """p[i, j, k] of the (codes, counts) pairs of ``structure_tensor``."""
    codes, counts = pairs
    p = np.zeros(ell**3, dtype=np.int64)
    p[codes] = counts
    return p.reshape(ell, ell, ell).transpose(1, 2, 0)  # the codes run over (k, i, j)


def sparse_pairs(p):
    """The (codes, counts) pairs of p[i, j, k], as ``structure_tensor`` has them."""
    flat = p.transpose(2, 0, 1).ravel()
    codes = np.flatnonzero(flat)
    return read_only(codes), read_only(flat[codes])


def class_triple_codes(group):
    """Code (class of u * l + class of v) * l + class of u*v of every pair
    (u, v), with l the class count, over element indices."""
    mult = index_tables(group)
    classes = conjugacy_classes(group)
    ell = len(classes)
    labels = classes.labels.astype(np.int64)
    return (labels[:, None] * ell + labels[None, :]) * ell + labels[mult]


def class_structure_constants(group):
    """a[i, j, k] = #{(x, y) in Cl_i x Cl_j : x*y = z} for any z in Cl_k,
    from one count over the multiplication table, which gives
    |Cl_k| * a[i, j, k], divided exactly by the class size."""
    classes = conjugacy_classes(group)
    ell = len(classes)
    counts = np.bincount(class_triple_codes(group).ravel(), minlength=ell**3)
    consts, rest = np.divmod(counts.reshape(ell, ell, ell), np.array(classes.sizes))
    if rest.any():
        raise OracleMismatch("a class product is not constant on a class")
    return consts


def dense_scheme_axioms(group, matrices=None):
    """(transpose pairing, class count), or AxiomFailure naming the first
    violated clause in the order (i), (ii), (iii), (iv)."""
    if matrices is None:
        matrices = adjacency_matrices(group)
    order = group.order
    stack = np.stack([np.asarray(m, dtype=np.int64) for m in matrices])

    if not np.array_equal(stack[0], np.eye(order, dtype=np.int64)):
        raise AxiomFailure("(i)", "N_0 is not the identity")
    if not np.array_equal(stack.sum(axis=0), np.ones((order, order), dtype=np.int64)):
        raise AxiomFailure("(ii)", "matrices do not sum to the all-ones matrix")

    pairing = []
    for i, mat in enumerate(stack):
        partner = next(
            (j for j, other in enumerate(stack) if np.array_equal(mat.T, other)), None
        )
        if partner is None:
            raise AxiomFailure("(iii)", f"transpose of N_{i} is not a scheme matrix")
        pairing.append(partner)

    p = dense_structure_tensor(group)
    products = np.einsum("aij,bjk->abik", stack, stack)
    recon = np.tensordot(p, stack, axes=([2], [0]))
    if not np.array_equal(products, recon):
        bad = np.argwhere((products != recon).any(axis=(2, 3)))[0]
        raise AxiomFailure(
            "(iv)", f"N_{bad[0]} N_{bad[1]} differs from its structure-constant expansion"
        )
    return tuple(pairing), len(p)


def all_rows_scheme_axioms(group, table):
    """(transpose pairing, class count) of the class-index table ``table``,
    or AxiomFailure naming the first violated clause among (i), (iii) and
    (iv).  Axiom (iv) on every row u: the codes D[u, v] * l + D[v, w] of all
    v, sorted, must be the sequence ``dense_structure_tensor`` predicts for
    class D[u, w], and each cell (u, w) that differs is counted in full, to
    name the first pair (i, j) failing anywhere."""
    order = group.order
    ell = len(conjugacy_classes(group))
    if not ((np.diagonal(table) == 0).all() and np.count_nonzero(table == 0) == order):
        raise AxiomFailure("(i)", "N_0 is not the identity")

    sizes = np.bincount(table.ravel(), minlength=ell)
    pairing = np.arange(ell)
    pairing[table] = table.T
    split = np.bincount(table[pairing[table] != table.T], minlength=ell) > 0
    bad = np.flatnonzero(split | (sizes != sizes[pairing]))
    if bad.size:
        raise AxiomFailure("(iii)", f"transpose of N_{bad[0]} is not a scheme matrix")

    p = dense_structure_tensor(group)
    if not (p.sum(axis=(0, 1)) == order).all():
        raise AxiomFailure("(iv)", "structure constants p_ij^k do not sum to |G| over i, j")
    code = np.min_scalar_type(ell * ell - 1)
    expected = np.repeat(
        np.tile(np.arange(ell * ell, dtype=code), ell), p.transpose(2, 0, 1).ravel()
    ).reshape(ell, order)
    columns = table.T.astype(code)
    mismatch = np.zeros((ell, ell), dtype=bool)
    step = max(1, 2**16 // (order * order))  # rows u per block, to bound memory
    for start in range(0, order, step):
        rows = table[start:start + step]
        codes = np.sort(rows.astype(code)[:, None, :] * ell + columns, axis=2)
        for u, w in np.argwhere((codes != expected[rows]).any(axis=2)) + (start, 0):
            full = np.bincount(table[u] * ell + table[:, w], minlength=ell * ell)
            mismatch |= full.reshape(ell, ell) != p[:, :, table[u, w]]
    if mismatch.any():
        a, b = np.argwhere(mismatch)[0]
        raise AxiomFailure(
            "(iv)", f"N_{a} N_{b} differs from its structure-constant expansion"
        )
    return tuple(pairing.tolist()), ell


def complex_values(table):
    """The table's values as an (l, l) complex array, one ``evaluate`` each."""
    ell, order = len(table.labels), table.root_order
    return np.array([[evaluate(order, table_entry(table, r, c)) for c in range(ell)]
                     for r in range(ell)])


def float_orthogonality(table):
    """The largest deviations of both orthogonality relations in complex
    floating point: (1/|G|) sum_u |Cl_u| chi_r(u) conj(chi_t(u)) = delta_rt
    and sum_r chi_r(u) conj(chi_r(v)) = delta_uv |G| / |Cl_u|."""
    mat, order = complex_values(table), table.order
    sizes = np.array(table.classes.sizes)
    first = (mat * sizes) @ mat.conj().T / order - np.eye(len(table.labels))
    second = mat.conj().T @ mat - np.diag(order / sizes)
    return float(np.abs(first).max()), float(np.abs(second).max())


def _exact_certificate(group, table):
    """The clauses of ``verify_orthogonality`` reduced in Z[z_M] by
    ``cyclotomic.reduced_sums``, every row and every clause; return S or
    raise ``OrthogonalityFailure`` for the first row equal to another on
    every class and the first such other row, else for the first failing
    row."""
    ell, order = len(table.labels), table.root_order
    exps, coeffs = table.exponents, table.coefficients
    sizes, degrees = np.array(table.classes.sizes), np.array(table.degrees)
    # (b) on chi_j(k) lcm(deg) / deg_j as forms: (coordinate + 1, value), zero-padded; with the
    # rows sorted by bytes, S is the classes where adjacent rows first differ
    by_size = np.argsort(sizes, kind="stable")
    entry, coord, value = reduced_sums(order, (
        np.arange(ell * ell).reshape(ell, ell, 1), exps[:, by_size],
        coeffs[:, by_size] * (np.lcm.reduce(degrees) // degrees)[:, None, None]))
    slot = np.arange(entry.size) - np.searchsorted(entry, entry)
    forms = np.zeros((ell * ell, 2, int(slot.max(initial=0)) + 1), dtype=np.int64)
    forms[entry, 0, slot], forms[entry, 1, slot] = coord + 1, value
    rows = forms.reshape(ell, -1)
    o = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().argsort()
    equal = (rows[o[1:]] == rows[o[:-1]]).reshape(ell - 1, ell, -1).all(axis=2)
    first = np.argmin(equal, axis=1)
    if (same := equal[np.arange(ell - 1), first]).any():
        run = np.cumsum(np.r_[0, ~same])[np.argsort(o)]  # rows equal on every class share a run
        j, m = np.flatnonzero(run == run[np.bincount(run)[run] > 1][0])[:2].tolist()
        raise OrthogonalityFailure(f"character certificate failed for rows {j} and {m}: (b) equal")
    chosen = by_size[np.bincount(first, minlength=ell).nonzero()[0]].tolist()

    # key j n + q for row j of a block: (c) q = 0, (0) q = 1, (a) 2 + t l + b for s = S[t]
    n, offset = 2 + len(chosen) * ell, np.full(ell, -1)
    offset[chosen] = np.arange(len(chosen)) * ell + 2
    k, ib = np.divmod(structure_tensor(group)[0], ell * ell)
    pick = offset[ib // ell] >= 0
    q, k, p = offset[ib[pick] // ell] + ib[pick] % ell, k[pick], -structure_tensor(group)[1][pick]
    step = max(1, (1 << 13) // (4 * (n + ell) + 2 * len(p)))  # about 2^13 terms a block
    for lo in range(0, ell, step):
        e, c, d = exps[lo:lo + step], coeffs[lo:lo + step], degrees[lo:lo + step]
        key = np.arange(0, len(e) * n, n)[:, None]
        bad = reduced_sums(
            order,
            (key[..., None, None], e[..., :, None] - e[..., None, :],
             sizes[:, None, None] * c[..., :, None] * c[..., None, :]),
            (key + 1, e[:, 0], c[:, 0]),
            (key + [0, 1], 0, -(d[:, None] * [0, 1] + [group.order, 0])),
            ((key[..., None] + offset[chosen, None] + np.arange(ell))[..., None, None],
             e[:, chosen, None, :, None] + e[:, None, :, None, :],
             (c[:, chosen] * sizes[chosen, None])[:, :, None, :, None]
             * (c * sizes[:, None])[:, None, :, None, :]),
            ((key + q)[..., None], e[:, k], (d[:, None] * p * sizes[k])[..., None] * c[:, k]),
        )[0]
        if bad.size:
            j, eq = divmod(int(bad[0]), n)
            t, b = divmod(eq - 2, ell)
            what = ["(c) sum_k |Cl_k| |chi(k)|^2 != |G|", "(0) chi(1) != its degree",
                    f"(a) omega is not multiplicative at s = {chosen[t]}, b = {b}"][min(eq, 2)]
            raise OrthogonalityFailure(f"character certificate failed for row {lo + j} "
                                       f"{table.labels[lo + j].describe()}: {what}")
    return tuple(chosen)


def float_idempotent_relations(group, table):
    """The largest deviations of eps_j eps_m = delta_jm eps_j and
    sum_j eps_j = 1 in complex floating point, on the class coefficients of
    eps_j = (deg_j / |G|) sum_g conj(chi_j(g)) g, multiplied with the dense
    class constants a[i, j, k]: K_i K_j = sum_k a[i, j, k] K_k."""
    ell = len(table.labels)
    coeffs = complex_values(table).conj() * (np.array(table.degrees)[:, None] / group.order)
    products = coeffs @ np.tensordot(coeffs, class_structure_constants(group), axes=(1, 0))
    products[np.arange(ell), np.arange(ell)] -= coeffs
    resolution = coeffs.sum(axis=0) - np.eye(ell)[0]  # class 0 is {e}
    return float(np.abs(products).max()), float(np.abs(resolution).max())


def dense_block_dimension(e, orb, tol=1e-9):
    """Trace of X -> X e on the centralizer algebra: in orbit coordinates,
    the sum over orbits c with rep (u, v) of the sum of e[w, v] over the w
    with (u, w) in c."""
    trace = 0.0 + 0.0j
    for c, (u, v) in enumerate(orb.reps.T.tolist()):
        members = np.nonzero(orb.labels[u] == c)[0]
        trace += e[members, v].sum()
    if abs(trace.imag) > tol:
        raise IdempotencyFailure(f"block trace {trace} is not real")
    return trace.real


def orbit_block_trace_counts(group):
    """K[k] = sum over g in class k of the number of orbits c, with
    representative (u, v), such that (u, g^-1 v g) lies in c again; exact.

    (B_c Phi(g))(u, v) = 1 iff (u, g^-1 v g) lies in c, for B_c the orbit's
    0/1 matrix, so K[k] is the trace of X -> X Phi(K_k) on the centralizer
    algebra in orbit coordinates: |Cl_k| x dim T labels gathered per class.
    """
    orb = conjugation_orbitals(group)
    rep_u, rep_v = orb.reps
    orbit_ids = np.arange(orb.count)
    inv = inverses(group)
    mult = index_tables(group)
    classes = conjugacy_classes(group)
    counts = []
    for k in range(len(classes)):
        members = np.flatnonzero(classes.labels == k)
        moved = mult[mult[np.ix_(inv[members], rep_v)], members[:, None]]  # g^-1 v g
        counts.append(np.count_nonzero(orb.labels[rep_u, moved] == orbit_ids))
    return np.array(counts)


def dense_block_dims(group, table, multiplicities, tol=1e-9):
    """Block dimensions d_j^2 after checking e_j^2 = e_j, e_j e_k = 0 and
    sum e_j = I on the dense matrices, or IdempotencyFailure."""
    idems = [central_idempotent(group, table, j) for j in range(len(table.labels))]
    for j, e in enumerate(idems):
        if np.abs(e @ e - e).max() > tol:
            raise IdempotencyFailure(f"e_{j}^2 != e_{j}")
    for j in range(len(idems)):
        for k in range(j + 1, len(idems)):
            if np.abs(idems[j] @ idems[k]).max() > tol:
                raise IdempotencyFailure(f"e_{j} e_{k} != 0")
    if np.abs(sum(idems) - np.eye(group.order)).max() > tol:
        raise IdempotencyFailure("sum of idempotents != identity")

    orb = conjugation_orbitals(group)
    dims = []
    for j, e in enumerate(idems):
        dim = dense_block_dimension(e, orb, tol=tol)
        target = multiplicities.values[j] ** 2
        if abs(dim - target) > 1e-6:
            raise IdempotencyFailure(f"block of e_{j} has dimension {dim:.6f}, expected {target}")
        dims.append(target)
    return tuple(dims)


def loop_sandwich_vectors(group):
    """The nonzero sandwiches E*_i N_j E*_k flattened over u * |G| + v, one
    np.nonzero per class triple, in order of (i, k, j)."""
    classes = conjugacy_classes(group)
    ell, order = len(classes), group.order
    table = class_index_table(group)
    vectors = []
    for i in range(ell):
        rows = np.nonzero(classes.labels == i)[0]
        for k in range(ell):
            cols = np.nonzero(classes.labels == k)[0]
            block = table[np.ix_(rows, cols)]
            for j in range(ell):
                rr, cc = np.nonzero(block == j)
                if rr.size:
                    vectors.append({int(rows[a] * order + cols[b]): 1 for a, b in zip(rr, cc)})
    return vectors


class FractionBasis:
    """Row-reduced basis of sparse vectors over exact rationals, with pivot
    coefficient 1 at each row's smallest nonzero coordinate."""

    def __init__(self):
        self.rows = {}

    @property
    def dimension(self):
        return len(self.rows)

    def insert(self, vec):
        """Reduce vec against the basis; add the residual if nonzero."""
        work = {col: Fraction(int(val)) for col, val in vec.items() if val}
        while work:
            pivot = min(work)
            row = self.rows.get(pivot)
            if row is None:
                break
            coeff = work[pivot]
            for col, val in row.items():
                new = work.get(col, Fraction(0)) - coeff * val
                if new:
                    work[col] = new
                else:
                    work.pop(col, None)
        if not work:
            return False
        pivot = min(work)
        scale = work[pivot]
        self.rows[pivot] = {col: val / scale for col, val in work.items()}
        return True


def fraction_closure_rank(vectors, operators):
    """Rank over Q of the closure of vectors under the operators, searched to
    exhaustion: each round applies every operator to the vectors that grew
    the basis in the round before."""
    basis = FractionBasis()
    frontier = [vec for vec in vectors if basis.insert(vec)]
    while frontier:
        frontier = [prod for vec in frontier for op in operators if basis.insert(prod := op(vec))]
    return basis.dimension


def gather_sources(group):
    """The int32 (|G|, orbit count) source table of the scheme products:
    sources[k, c] is the orbit of (u, g_k^-1 v), for the representative
    (u, v) of orbit c and the elements g_k listed class by class, with the
    row offsets of each class and the largest class size."""
    classes = conjugacy_classes(group)
    orb = conjugation_orbitals(group)
    rep_u, rep_v = orb.reps
    sizes = np.bincount(classes.labels, minlength=len(classes))
    by_class = inverses(group)[np.argsort(classes.labels, kind="stable")]
    sources = orb.labels[rep_u, index_tables(group, by_class, rep_v)]
    return sources, (0, *np.cumsum(sizes).tolist()), int(sizes.max())


def _runs(keys, cols, vals):
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return [(cols[a:b], vals[a:b]) for a, b in zip(bounds, bounds[1:])]


def gathered_scheme_products(gathered, vec):
    """The nonzero X N_j of one sparse row, in class order, from the
    ``gather_sources`` of its group: one gather of the dense row by the
    sources, one sum over the rows of each class, in int64 when max|X|
    times the largest class size is below 2^63 and in Python ints
    otherwise."""
    sources, offsets, largest = gathered
    cols, vals = vec
    top = max(int(vals.max()), -int(vals.min()))
    cap = sources.shape[1]
    row = np.zeros(cap, np.int64 if top * largest < 2**63 else object)
    row[cols] = vals
    rows = row[sources]
    sums = np.empty((len(offsets) - 1, cap), row.dtype)
    for j, (a, b) in enumerate(zip(offsets, offsets[1:])):
        np.add.reduce(rows[a:b], axis=0, out=sums[j])
    flat = np.flatnonzero(sums)
    classes, out = np.divmod(flat, cap)
    return _runs(classes, out, sums.ravel()[flat])


def per_row_orbit_products(group, include_scheme=True, include_dual=True):
    """The frontier products of ``closure.orbit_products`` formed one row at
    a time: the X N_j of each row by its dense gather, then its X E*_i by a
    stable sort of its support by the class of each orbit's v."""
    gathered = gather_sources(group) if include_scheme else None
    col_class = conjugacy_classes(group).labels[conjugation_orbitals(group).reps[1]]

    def row_products(vec):
        prods = gathered_scheme_products(gathered, vec) if include_scheme else []
        if include_dual:
            cols, vals = vec
            order = np.argsort(col_class[cols], kind="stable")
            prods += _runs(col_class[cols][order], cols[order], vals[order])
        return prods

    return lambda frontier: (prod for vec in frontier for prod in row_products(vec))


def dense_algebra_dimension(generators):
    """Dimension of the algebra generated by the integer matrices, by the
    right-product closure on dense matrices: each matrix that grew the basis
    is multiplied by the stack of the generators as one float64 product when
    max|X| times the largest absolute column sum is below 2^53, which keeps
    every partial sum an exact float64 integer, and by each generator in
    Python ints otherwise.  Zero products and products equal to a vector of
    the previous frontier or to an earlier product of the round are skipped,
    by their Python-int content, until a round adds nothing."""
    gens = [np.asarray(g, dtype=object) for g in generators]
    side = gens[0].shape[0]
    col_sum = max(max(np.abs(g).sum(axis=0).max(initial=0), 1) for g in gens)
    stack = np.stack(gens).astype(np.float64) if col_sum < 2**53 else None

    def products(mat):
        top = max(int(mat.max(initial=1)), -int(mat.min(initial=0)))
        if top * col_sum < 2**53:
            return list((mat.astype(np.float64) @ stack).astype(np.int64))
        return [mat.astype(object) @ gen for gen in gens]

    def flat(mat):
        entries = mat.ravel()
        cols = np.flatnonzero(entries)
        return dict(zip(cols.tolist(), entries[cols].tolist()))

    basis = FractionBasis()
    batch, previous = products(np.eye(side, dtype=np.int64)), []
    while True:
        seen, frontier = {(), *previous}, []
        for mat in batch:
            key = tuple(flat(mat).items())
            if key not in seen:
                seen.add(key)
                if basis.insert(dict(key)):
                    frontier.append((mat, key))
        if not frontier:
            return basis.dimension
        previous = [key for _, key in frontier]
        batch = [prod for mat, _ in frontier for prod in products(mat)]


def two_sided_algebra_dimension(generators):
    """Dimension of the algebra generated by the integer matrices: products
    of each matrix that grew the rank with each generator on both sides, all
    on ``object`` arrays, until a round adds nothing.  A zero product, or one
    equal entry for entry to a matrix already offered, lies in the span and
    is not offered again.  The offered matrices are ranked by one
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968) in Python ints,
    in the order offered, each carried through the pivot steps before it
    when it is offered: a step with pivot row P, its first nonzero column c
    and value v there turns a later row r into (v r - r[c] P) / w, for w the
    previous step's v (1 at the first), and the division is exact, since
    every entry is a minor of the offered rows (Sylvester's identity).  A row
    still nonzero after every step is the next pivot."""
    gens = [np.asarray(g, dtype=object) for g in generators]
    steps, offered = [], set()

    def grows(mat):
        row = mat.ravel().tolist()
        if not any(row) or tuple(row) in offered:
            return False
        offered.add(tuple(row))
        for pivot, c, v, w in steps:
            a = row[c]
            row = [(v * x - a * y) // w for x, y in zip(row, pivot)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is not None:
            steps.append((row, c, row[c], steps[-1][2] if steps else 1))
        return c is not None

    frontier = [g for g in gens if grows(g)]
    while frontier:
        frontier = [
            prod for mat in frontier for gen in gens for prod in (mat @ gen, gen @ mat)
            if grows(prod)
        ]
    return len(steps)


def min_propagation_orbitals(group):
    """The simultaneous-conjugation orbits on G x G, labelled by
    min-propagation: each pair takes the smallest label among its images under
    the pair permutations of the generators and of their inverses, until a
    full sweep moves no label.  The conjugations x -> g x g^-1 by the
    generators g are read off the full ``index_tables`` block and ``inverses``."""
    order = group.order
    gens = [group.index(g) for g in group.generators()]
    all_perms = []
    mult = index_tables(group)
    for p in mult[mult[gens], inverses(group)[gens, None]]:
        all_perms.append(p)
        q = np.empty_like(p)
        q[p] = np.arange(order)
        all_perms.append(q)

    pair_perms = [(p[:, None] * order + p[None, :]).ravel() for p in all_perms]
    labels = np.arange(order * order, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for pp in pair_perms:
            moved = labels[pp]
            if (moved < labels).any():
                labels = np.minimum(labels, moved)
                changed = True
    uniq, first, relabeled = np.unique(labels, return_index=True, return_inverse=True)
    return Orbitals(
        count=len(uniq),
        labels=read_only(relabeled.reshape(order, order).astype(np.int32)),
        reps=read_only(np.stack(np.divmod(first, order)).astype(np.int32)),
    )


def canonical_classes(group, orbits):
    """Order raw orbits fixed, paired, coset, as the closed form does, and
    return the classes with the member tuple of each.  Each orbit lists its
    members in index order, and the orbits come in order of their first
    members; the coset classes by z = t mod d of their first member (t, 1),
    which represents them."""
    fixed, paired, coset = [], [], []
    d_vec = group.fixed.d_vec
    for members in orbits:
        if all(beta == 0 for _, beta in members):
            if len(members) == 1:
                fixed.append(members)
            else:
                paired.append(members)
        else:
            coset.append(members)

    def coset_key(members):
        a, _ = members[0]
        return tuple(t % d for t, d in zip(a, d_vec))

    coset.sort(key=lambda ms: group.abelian.index(coset_key(ms)))

    classes = []
    for members in fixed:
        classes.append(ConjClass(FIXED, members[0], len(members), len(classes)))
    for members in paired:
        classes.append(ConjClass(PAIRED, members[0], len(members), len(classes)))
    for members in coset:
        classes.append(ConjClass(COSET, (coset_key(members), 1), len(members), len(classes)))
    return classes, fixed + paired + coset


def conjugate(group, g, by):
    """by g by^-1, by ``group.mul`` and ``group.inv``."""
    return group.mul(group.mul(by, g), group.inv(by))


def enumerated_conjugacy_classes(group):
    """Conjugacy classes as the orbits {hgh^-1 : h in G}, one for each element
    g not yet in an orbit, canonically ordered, with the class index of each
    element set member by member."""
    elems = list(group.elements())
    remaining = set(elems)
    orbits = []
    for g in elems:
        if g not in remaining:
            continue
        orbit = {conjugate(group, g, h) for h in elems}
        orbits.append(tuple(sorted(orbit, key=group.index)))  # g comes first
        remaining -= orbit
    classes, members = canonical_classes(group, orbits)
    labels = np.empty(group.order, dtype=np.int32)
    for cls, elements in zip(classes, members):
        labels[[group.index(g) for g in elements]] = cls.index
    reps = np.array([group.index(cls.rep) for cls in classes])
    return ClassList(tuple(classes), read_only(labels), read_only(reps))


def class_members(group, classes):
    """The member tuples of every class of a ``ClassList``, each in index
    order, element by element from the enumeration and the labels."""
    members = [[] for _ in classes]
    for g, k in zip(group.elements(), classes.labels.tolist()):
        members[k].append(g)
    return [tuple(m) for m in members]


def centralizer_sizes(group):
    """|C_G(g)| for every element index g, counted from the full
    multiplication table as the g with mult[g, h] = mult[h, g]."""
    mult = index_tables(group)
    return read_only((mult == mult.T).sum(axis=1))


def enumerated_character_labels(group):
    """The irreducible character labels by a walk over the character indices:
    the linear labels (I, sign) for 0 <= I_i < d_i in mixed-radix order,
    then the two-dimensional labels J nontrivial on B (some n_i does not
    divide J_i), each kept when J*s is not below it by index in A."""
    fx = group.fixed
    labels = [
        LinearLabel(i_vec, sign)
        for i_vec in product(*(range(d) for d in fx.d_vec))
        for sign in (1, 2)
    ]
    A = group.abelian
    for j_vec in A.elements():
        if all(k % n == 0 for k, n in zip(j_vec, fx.n_vec)):
            continue
        partner = tuple((k * s) % m for k, s, m in zip(j_vec, group.twist.s, A.moduli))
        if A.index(partner) >= A.index(j_vec):
            labels.append(TwoDimLabel(j_vec))
    return tuple(labels)


def char_value(group, label, cls):
    """The exact value of the character ``label`` on the conjugacy class
    ``cls``, at its representative."""
    order = group.root_order
    rep_a, _ = cls.rep
    if isinstance(label, LinearLabel):
        if cls.kind == COSET:
            # at z*b: the (2 d_i)-th root with exponent l_i (2 z_i + v_i) per
            # coordinate, negated for the second sign
            exp = sum(
                li * (2 * zi + vi) * (order // (2 * di))
                for li, zi, vi, di in zip(label.i_vec, rep_a, group.square, group.fixed.d_vec)
            )
            return normalise(order, [(exp, 1 if label.sign == 1 else -1)])
        exp = sum(
            li * ti * (order // di) for li, ti, di in zip(label.i_vec, rep_a, group.fixed.d_vec)
        )
        return normalise(order, [(exp, 1)])
    if cls.kind == COSET:
        return {}
    e1 = e2 = 0
    for ki, ti, si, mi in zip(label.j_vec, rep_a, group.twist.s, group.abelian.moduli):
        e1 += ki * ti * (order // mi)
        e2 += ki * ti * si * (order // mi)
    return normalise(order, [(e1, 1), (e2, 1)])


def chartable_json_dict(table):
    """The ``chartable --format json`` report of ``table`` without its head,
    as a dict for ``json.dumps``: every entry encoded on its own from
    ``table_entry``."""

    def encode(v):
        z = evaluate(table.root_order, v)
        return {"terms": sorted(v.items()), "complex": [z.real, z.imag]}

    ell = len(table.labels)
    return {
        "root_order": table.root_order,
        "classes": [
            {"index": c.index, "kind": c.kind, "size": c.size, "rep": elem_json(c.rep)}
            for c in table.classes
        ],
        "characters": [
            {
                "label": label.describe(),
                "degree": label.degree,
                "values": [encode(table_entry(table, r, c)) for c in range(ell)],
            }
            for r, label in enumerate(table.labels)
        ],
    }


def chartable_text(table):
    """``CharacterTable.to_text``: right-aligned columns, each entry an
    integer where it is one, else its complex value to 4 digits."""

    order, integers = table.root_order, {}  # by the sorted terms: exact and slow

    def fmt(v):
        key = tuple(sorted(v.items()))
        if key not in integers:
            dense = np.zeros(order, dtype=object)  # Python ints cannot overflow
            dense[list(v)] = list(v.values())
            integers[key] = integer_values(dense, order)
        value, exact = integers[key]
        if exact:
            return str(value)
        z = evaluate(order, v)
        return f"{z.real:.4g}{z.imag:+.4g}i"

    ell = len(table.labels)
    grid = [[""] + [f"{c.kind[0].upper()}{c.index}|{c.size}" for c in table.classes]]
    for r, label in enumerate(table.labels):
        grid.append([label.describe()] + [fmt(table_entry(table, r, c)) for c in range(ell)])
    widths = [max(len(row[i]) for row in grid) for i in range(ell + 1)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in grid)


def chartable_csv(table):
    """``CharacterTable.to_csv``: one row per character, each entry its
    complex value to 12 digits."""
    ell = len(table.labels)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["character"] + [f"class_{c.index}" for c in table.classes])
    for r, label in enumerate(table.labels):
        values = [evaluate(table.root_order, table_entry(table, r, c)) for c in range(ell)]
        writer.writerow([label.describe()] + [f"{z.real:.12g}{z.imag:+.12g}i" for z in values])
    return buf.getvalue()
