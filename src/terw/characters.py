"""Irreducible characters of an index-2-abelian extension, exactly.

The group has 2d one-dimensional characters, indexed by a residue vector I
(0 <= I_i < d_i) and a sign, and (n-d)/2 two-dimensional characters, indexed
by the orbit {J, J*s} of a character of the abelian part that is nontrivial
on the twisted commutator subgroup.  Every value is 0, +-z^e or
z^e1 + z^e2 with z a primitive root of unity of the group's common root
order M; the b-coset values of the linear characters need the doubled order
because they are square roots of values on the abelian part.  The table
keeps them exactly as two (l, l, 2) integer arrays, exponents mod M and
coefficients, filled by integer matrix products over the label vectors and
the class representatives.  ``CharacterTable`` owns the normal form of an
entry and its complex value, which the exports and ``complex_values`` read.
``verify_orthogonality`` certifies the rows exactly, from residues in F_p
under as many primes as its bound needs: the certificate, not a second
evaluation of the same formula, is the evidence that the table is right.
The "+" character takes the principal square root on the coset; swapping
the two signs permutes rows but never changes the table as a multiset
(tested, not assumed).

Both label lists are read off the class list.  For a diagonal twist,
J -> J*s acts on character indices as the twist f acts on A, and J is
trivial on B <=> n_i | J_i for every i <=> f(J) = J.  So the linear labels
I are the coset representatives (z, 1) with 0 <= z_i < d_i, and the orbit
minima J of the two-dimensional labels are the paired representatives
(x, 0), both in the same mixed-radix order as the classes.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from collections import namedtuple

import numpy as np

from .conjugacy import COSET, PAIRED, ClassList, conjugacy_classes, structure_tensor
from .cyclotomic import coordinate_bound, embedding, integer_values, reduced_sums
from .errors import CharacterTableFailure, OrthogonalityFailure
from .groups import D2Group, per_group, read_only
from .limits import ENUMERATION_LIMIT, check_guard


class LinearLabel(namedtuple("LinearLabel", "i_vec sign")):
    """One-dimensional character chi_{I,sign}; I_i is taken mod d_i.

    ``i_vec`` is I, a tuple[int, ...]; ``sign`` is an int, 1 for the
    principal square root on the coset and 2 for its negation.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return 1

    def describe(self) -> str:
        return f"chi[{','.join(map(str, self.i_vec))};{self.sign}]"


class TwoDimLabel(namedtuple("TwoDimLabel", "j_vec")):
    """Two-dimensional character phi_J; J, the tuple[int, ...] ``j_vec``, is
    the orbit minimum of {J, J*s}."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return 2

    def describe(self) -> str:
        return f"phi[{','.join(map(str, self.j_vec))}]"


CharLabel = LinearLabel | TwoDimLabel


@per_group
def character_labels(group: D2Group) -> tuple[CharLabel, ...]:
    """All irreducible characters in canonical order: linear labels by
    mixed-radix I then sign, then two-dimensional labels by orbit minimum,
    read off the coset and paired class representatives."""
    classes = conjugacy_classes(group)
    labels: list[CharLabel] = [
        LinearLabel(cls.rep[0], sign) for cls in classes if cls.kind == COSET for sign in (1, 2)
    ]
    twodim = [TwoDimLabel(cls.rep[0]) for cls in classes if cls.kind == PAIRED]
    labels.extend(twodim)

    n, d = group.n, group.d
    if len(twodim) != (n - d) // 2 or len(labels) != 2 * d + (n - d) // 2:
        raise CharacterTableFailure(
            f"{len(twodim)} two-dimensional and {len(labels)} labels in all, "
            f"expected {(n - d) // 2} and {2 * d + (n - d) // 2} for n = {n}, d = {d}"
        )
    return tuple(labels)


class CharacterTable(namedtuple(
        "CharacterTable", "order root_order classes labels exponents coefficients")):
    """Rows are irreducible characters, columns are conjugacy classes.

    Entry (r, c) is the sum of coefficients[r, c, t] * z^exponents[r, c, t]
    over t = 0, 1, with z = exp(2 pi i / root_order): the arrays are
    (l, l, 2) int64, read-only, exponents reduced mod the root order, and a
    zero coefficient marks an absent term (its exponent is 0).  Only this
    module reads the arrays, and ``_entries`` alone normalises and
    evaluates an entry; other modules read ``class_sums``,
    ``complex_values`` and the exports.  It keeps the group's order and root
    order, not the group, because the group keeps the table.  The three
    exports read the entries through one step, ``_cells``, which evaluates
    and formats each distinct entry once, and each writes its report in one
    join.

    Fields: ``order`` and ``root_order`` (int), ``classes`` (ClassList),
    ``labels`` (tuple[CharLabel, ...]), ``exponents`` and ``coefficients``
    (np.ndarray).
    """

    __slots__ = ()

    @property
    def degrees(self) -> list[int]:
        return [label.degree for label in self.labels]

    def class_sums(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For every row j, sum_k weights[k] conj(chi_j(k)) over the classes k,
        given (l,) integer weights: its value where it is a rational integer,
        and whether it is one; exact.  The rows go in blocks of about 2^17
        int64 entries (the block and the codes and weights of its terms):
        each block is scattered into (rows, M) coefficients of the M-th roots
        of unity, which ``integer_values`` reduces before the next block."""
        ell, order = len(self.labels), self.root_order
        values, exact = np.empty(ell, dtype=np.int64), np.empty(ell, dtype=bool)
        step = max(1, (1 << 17) // (order + 4 * ell))
        for lo in range(0, ell, step):
            e, c = self.exponents[lo:lo + step], self.coefficients[lo:lo + step]
            codes = order - e  # conj(z^e) = z^(M - e), and z^M = z^0
            codes[codes == order] = 0
            codes += np.arange(0, len(e) * order, order)[:, None, None]
            block = np.zeros(len(e) * order, dtype=np.int64)
            np.add.at(block, codes.ravel(), (c * weights[:, None]).ravel())
            values[lo:lo + step], exact[lo:lo + step] = integer_values(
                block.reshape(len(e), order), order)
        return values, exact

    def complex_values(self) -> np.ndarray:
        """The (l, l) complex values of the entries, from the one evaluation
        of each distinct entry that the exports read."""
        _, values, inverse = self._entries()
        return np.array(values)[inverse]

    def _entries(self) -> tuple[list[tuple[tuple[int, int], ...]], list[complex], np.ndarray]:
        """The distinct entries in normal form, their complex values, and the
        (l, l) index of each entry among them.  The normal form of an entry
        is its (exponent, coefficient) terms in slot order, with zero
        coefficients dropped and equal exponents merged.  An entry is keyed
        by one int64 from (e1, e2, c1, c2).  A value sums c * exp(2 pi i e /
        M) from 0j over the terms in order, with the root cached per
        exponent."""
        low = min(int(self.coefficients.min()), 0)
        span = int(self.coefficients.max()) - low + 1
        shape = (self.root_order, self.root_order, span, span)
        e, c = self.exponents, self.coefficients - low
        keys = np.ravel_multi_index((e[..., 0], e[..., 1], c[..., 0], c[..., 1]), shape)
        distinct, inverse = np.unique(keys, return_inverse=True)
        entries, values = [], []
        step, roots = 2j * cmath.pi / self.root_order, {}
        for e1, e2, c1, c2 in zip(*(x.tolist() for x in np.unravel_index(distinct, shape))):
            c1, c2 = c1 + low, c2 + low
            if e1 == e2:
                c1, c2 = c1 + c2, 0
            terms = ((e1, c1), (e2, c2)) if c1 and c2 else ((e1, c1),) if c1 else (
                ((e2, c2),) if c2 else ())
            z = 0j
            for e, c in terms:
                if e not in roots:
                    roots[e] = cmath.exp(step * e)
                z += c * roots[e]
            entries.append(terms)
            values.append(z)
        return entries, values, inverse.reshape(keys.shape)  # numpy 1.x returns it flat

    # -- exports -----------------------------------------------------------

    def _cells(self, fmt) -> tuple[np.ndarray, np.ndarray]:
        """The distinct entries as the strings ``fmt(entries, values)`` gives for the
        list of their terms and of their values, in an object array, and the (l, l)
        index of each entry among them."""
        entries, values, inverse = self._entries()
        return np.array(fmt(entries, values), dtype=object), inverse

    def to_text(self) -> str:
        """Right-aligned columns, each entry its integer where it is a rational
        integer, else its complex value to 4 digits, after the pad of its column.
        One ``reduced_sums`` over the terms of every distinct entry decides which
        are integers, exactly: those with no nonzero coordinate but the first."""
        def fmt(entries, values) -> list[str]:
            rows = [r for r, terms in enumerate(entries) for _ in terms]
            exps, coeffs = np.array([t for terms in entries for t in terms]).reshape(-1, 2).T
            keys, coords, sums = reduced_sums(self.root_order, (np.array(rows), exps, coeffs))
            exact = np.ones(len(entries), dtype=bool)
            exact[keys[coords != 0]] = False
            ints = np.zeros(len(entries), dtype=np.int64)
            ints[keys[coords == 0]] = sums[coords == 0]
            return [str(n) if ok else f"{z.real:.4g}{z.imag:+.4g}i"
                    for n, ok, z in zip(ints.tolist(), exact.tolist(), values)]

        cells, inverse = self._cells(fmt)
        heads = [f"{c.kind[0].upper()}{c.index}|{c.size}" for c in self.classes]
        labels = [label.describe() for label in self.labels]
        lengths = np.array([len(cell) for cell in cells])[inverse]
        widths = np.maximum(lengths.max(axis=0), [len(h) for h in heads]) + 2  # and the gap
        pads = np.array([" " * k for k in range(widths.max() + 1)], dtype=object)
        label_width = max(map(len, labels))
        grid = np.empty((len(labels), 2 * len(labels) + 1), dtype=object)
        grid[:, 0] = ["\n" + label.rjust(label_width) for label in labels]
        grid[:, 1::2], grid[:, 2::2] = pads[widths - lengths], cells[inverse]
        return "".join([" " * label_width, *map(str.rjust, heads, widths), *grid.ravel().tolist()])

    def to_csv(self) -> str:
        """One row per character, each entry its complex value to 12 digits after its
        comma; one ``csv.writer`` call writes the header and quotes the labels."""
        cells, inverse = self._cells(
            lambda entries, values: [f",{z.real:.12g}{z.imag:+.12g}i" for z in values])
        buf = io.StringIO()
        csv.writer(buf).writerows([["character"] + [f"class_{c.index}" for c in self.classes],
                                   *([label.describe()] for label in self.labels)])
        header, *labels, _ = buf.getvalue().split("\r\n")
        grid = np.empty((len(labels), len(labels) + 1), dtype=object)
        grid[:, 0], grid[:, 1:] = labels, cells[inverse]
        grid[0, 0] = f"{header}\r\n{labels[0]}"
        grid[:, -1] += "\r\n"
        return "".join(grid.ravel().tolist())

    def to_json(self, head: dict) -> str:
        """The report {**head, "root_order", "classes", "characters"} as the text
        ``json.dumps`` writes for it.  ``_cells`` encodes each distinct entry once, its
        sorted "terms" and its "complex" value written by ``!r`` as ``json.dumps`` does;
        the head goes through one ``json.dumps``, the classes are formatted directly,
        and the cells follow the row heads, each with its separator."""
        def fmt(entries, values) -> list[str]:
            cells = []
            for terms, z in zip(entries, values):
                body = ", ".join([f"[{e}, {c}]" for e, c in sorted(terms)])
                cells.append(f'{{"terms": [{body}], "complex": [{z.real!r}, {z.imag!r}]}}')
            return cells

        cells, inverse = self._cells(fmt)
        classes = ", ".join([
            f'{{"index": {c.index}, "kind": "{c.kind}", "size": {c.size}, '
            f'"rep": [[{", ".join(map(str, c.rep[0]))}], {c.rep[1]}]}}'
            for c in self.classes
        ])
        start = json.dumps({**head, "root_order": self.root_order})
        grid = np.empty((len(inverse), len(inverse) + 1), dtype=object)
        grid[:, 0] = [
            f'{", " if r else ""}{{"label": {json.dumps(label.describe())}, '
            f'"degree": {label.degree}, "values": ['
            for r, label in enumerate(self.labels)
        ]
        grid[0, 0] = f'{start[:-1]}, "classes": [{classes}], "characters": [{grid[0, 0]}'
        grid[:, 1:] = (cells + ", ")[inverse]
        grid[:, -1] = (cells + "]}")[inverse[:, -1]]
        grid[-1, -1] += "]}"
        return "".join(grid.ravel().tolist())


def elem_json(g) -> list:
    a, beta = g
    return [list(a), beta]


@per_group
def character_table(group: D2Group) -> CharacterTable:
    """Build the full character table; row count always equals class count.

    Every exponent is an integer matrix product mod the root order M over
    the label vectors and the class representatives' coordinates:

      * linear rows on abelian-part classes: (I * M/d) . t,
      * linear rows on coset classes z*b: (I * M/(2d)) . (2z + y), with
        coefficient +1 or -1 from the sign,
      * two-dimensional rows: (J * M/m) . t and (J * s * M/m) . t, with
        coefficient 0 on the coset classes.

    Each product is written straight into its block of the two (l, l, 2)
    arrays, which are allocated only after the check of
    ``ENUMERATION_LIMIT``.
    """
    check_guard(group.order, ENUMERATION_LIMIT, "the character table")
    classes = conjugacy_classes(group)
    labels = character_labels(group)
    ell = len(labels)
    if ell != len(classes):
        raise CharacterTableFailure(f"{ell} characters but {len(classes)} classes")
    order = group.root_order
    d_vec = np.array(group.fixed.d_vec, dtype=np.int64)
    moduli = np.array(group.abelian.moduli, dtype=np.int64)
    reps = np.array([cls.rep[0] for cls in classes], dtype=np.int64).reshape(ell, -1)
    # the classes in A come first and the coset classes last, and the label
    # vectors are the representatives (see the module docstring): each coset
    # one twice, for the signs +1 and -1, then each paired one
    cosets = sum(cls.kind == COSET for cls in classes)
    a, b = slice(0, ell - cosets), slice(ell - cosets, ell)
    i_mat = np.repeat(reps[b], 2, axis=0)
    j_mat = reps[np.array([cls.kind == PAIRED for cls in classes])]
    lin, two = slice(0, 2 * cosets), slice(2 * cosets, ell)

    exponents = np.zeros((ell, ell, 2), dtype=np.int64)
    coefficients = np.zeros((ell, ell, 2), dtype=np.int64)
    np.matmul(i_mat * (order // d_vec), reps[a].T, out=exponents[lin, a, 0])
    np.matmul(i_mat * (order // (2 * d_vec)), (2 * reps[b] + group.square).T,
              out=exponents[lin, b, 0])
    coefficients[lin, a, 0] = 1
    coefficients[lin, b, 0] = np.tile([[1], [-1]], (cosets, 1))
    step = order // moduli
    np.matmul(j_mat * step, reps[a].T, out=exponents[two, a, 0])
    np.matmul(j_mat * (np.array(group.twist.s) * step), reps[a].T, out=exponents[two, a, 1])
    coefficients[two, a] = 1
    exponents %= order
    table = CharacterTable(
        group.order, order, classes, labels, read_only(exponents), read_only(coefficients)
    )
    sum_sq = sum(deg * deg for deg in table.degrees)
    if sum_sq != group.order:
        raise CharacterTableFailure(f"sum of squared degrees {sum_sq} != |G| = {group.order}")
    return table


def verify_orthogonality(group: D2Group, table: CharacterTable) -> tuple[int, ...]:
    """Certify exactly that the rows are the l irreducible characters, each
    once; return the classes S read.  With omega_j(K_k) = |Cl_k| chi_j(k) /
    chi_j(1) and p_sb^c the constants of ``structure_tensor``: (b) the rows
    differ on S, chosen from the classes smallest first, each when it splits
    rows still tied (Dixon, Numer. Math. 10, 1967); (c) sum_k |Cl_k|
    |chi_j(k)|^2 = |G|; (0) chi_j(1), at class 0, is the degree of label j;
    (a) |Cl_s||Cl_b| chi_j(s) chi_j(b) = chi_j(1) sum_c p_sb^c |Cl_c|
    chi_j(c) for s in S and every class b.  The x in Z(CG) with omega_j(xy)
    = omega_j(x) omega_j(y) for all y form a subalgebra, so by (a) omega_j
    is multiplicative on the algebra generated by S, which is Z(CG) by (b)
    and Dedekind's independence of characters: the omega_j are the l central
    characters (Isaacs, Character Theory of Finite Groups, 1976, ch. 2).
    Each row is then a positive multiple of an irreducible character, 1 by
    (c), and both orthogonality relations, e_j e_m = delta_jm e_j and sum_j
    e_j = 1 follow as theorems, with no float read.

    The clauses are decided in F_p under the embeddings ev_p: Z[z_M] -> F_p,
    z -> omega_p, of ``cyclotomic.embedding``, for successive primes p = 1
    (mod M) until their product exceeds twice ``_clause_bound``; the kernel
    of ev_p is a prime P over p.  A clause is an element x_j of Z[z_M] built
    from row j, its conjugate and rational constants (class sizes, p_sb^c,
    |G|, the degree), so a nonzero residue proves x_j != 0, and the first
    row with one fails at its first such clause.  Else each generator i of
    the units mod M must carry each row onto a row pi_i(j) of its degree,
    entry by entry in a canonical form, or a row fails.  sigma_i fixes the
    constants and commutes with conjugation, so sigma_i x_j = x_pi_i(j), and
    by composition ev_p(sigma_u x_j) = 0 for every unit u: x_j lies in the
    intersection of the sigma_u^-1 P, which is pZ[z_M] as p does not divide
    M.  Every coordinate of x_j is then divisible by the product of the
    primes and below half of it in absolute value, so x_j = 0.

    (b) sorts the rows of residues under the first ev and takes S where
    neighbours first differ: different residues are different values, and
    the residues pick the S of the values unless two of them collide.  Two
    rows tied on every class are equal, by the same argument, when their
    difference vanishes under every ev_p sigma_u, and (b) fails; else the
    residues under the first ev_p sigma_u that tells them apart join the
    sort.  The rows go in blocks of about 2^16 entries: only the residues of
    (b) and the canonical codes of the Galois match are kept (l, l) whole."""
    ell, order = len(table.labels), table.root_order
    exps, coeffs = table.exponents, table.coefficients
    sizes, degrees = np.array(table.classes.sizes), np.array(table.degrees)
    primes, bound = [embedding(order)], 2 * _clause_bound(table)
    while math.prod(p for p, _, _ in primes) <= bound:
        primes.append(embedding(order, len(primes)))
    step = max(1, (1 << 16) // ell)
    blocks = [slice(lo, lo + step) for lo in range(0, ell, step)]

    def residues(p: int, powers: np.ndarray) -> np.ndarray:
        out = np.empty((*powers.shape[:-1], ell, ell), dtype=np.int64)
        for rows in blocks:
            out[..., rows, :] = _residues(exps[rows], coeffs[rows], p, powers)
        return out

    # the residues of the entries and of their conjugates under the first ev, kept whole
    by_size = sizes.argsort(kind="stable")
    scale = (np.lcm.reduce(degrees) // degrees)[:, None]
    tables = [np.array((powers, powers[::-1])) for _, powers, _ in primes]
    both = residues(primes[0][0], tables[0])
    forms = (both[0].take(by_size, axis=1) * scale % primes[0][0])[..., None]
    first, tied = _separating_classes(forms)
    while tied:
        sigma = _telling_apart(exps[tied], coeffs[tied], scale[tied], primes)
        if sigma is None:
            raise OrthogonalityFailure(
                f"character certificate failed for rows {tied[0]} and {tied[1]}: (b) equal")
        forms = np.dstack((forms, residues(*sigma).take(by_size, axis=1) * scale % sigma[0]))
        first, tied = _separating_classes(forms)
    chosen = by_size[np.bincount(first, minlength=ell).nonzero()[0]]
    del forms

    # (c), (0) and (a) with the keys 0, 1 and 2 + t l + b for s = S[t] of the reference; (a)
    # with y = |Cl_b| chi_j(b) reads y_s y_b = deg_j sum_c p_sb^c y_c, by one reduceat a block
    n, offset = len(chosen) * ell, np.full(ell, -1)
    offset[chosen] = np.arange(0, n, ell)
    codes, counts = structure_tensor(group)
    mid = codes // ell
    mid %= ell  # the class of s, in place
    pick = np.flatnonzero((offset >= 0)[mid])
    del mid
    c, sb = np.divmod(codes[pick], ell * ell)
    o = (key := offset[sb // ell] + sb % ell).argsort(kind="stable")
    c, count = c[o], counts[pick[o]]
    starts = np.searchsorted(key[o], np.arange(n))  # Cl_s Cl_b is never empty
    for rows in blocks:
        e, cf, d = exps[rows], coeffs[rows], degrees[rows]
        bad = False
        for k, (p, _, _) in enumerate(primes):
            r, conj = both[:, rows] if k == 0 else _residues(e, cf, p, tables[k])
            y = r * sizes % p
            sums = np.add.reduceat(y.take(c, axis=1) * count, starts, axis=1) % p
            yy = (y.take(chosen, axis=1)[..., None] * y[:, None, :]).reshape(len(d), n)
            norm = (r * conj % p) @ sizes % p != group.order % p
            bad = bad | np.concatenate(
                (norm[:, None], r[:, :1] != d[:, None], (yy - sums * d[:, None]) % p != 0), axis=1)
        if bad.any():
            j, q = divmod(int(bad.argmax()), 2 + n)
            t, b = divmod(q - 2, ell)
            what = ["(c) sum_k |Cl_k| |chi(k)|^2 != |G|", "(0) chi(1) != its degree",
                    f"(a) omega is not multiplicative at s = {chosen[t]}, b = {b}"][min(q, 2)]
            raise OrthogonalityFailure(f"character certificate failed for row {rows.start + j} "
                                       f"{table.labels[rows.start + j].describe()}: {what}")
    del both, r, conj  # r and conj are views of both

    # the Galois closure on one code per entry and unit u (1 for the table): the terms c z^(e u),
    # z^(e + M/2) = -z^e folded for even M and equal exponents merged, each f (4 c_max + 1) + a +
    # 2 c_max (2 c_max for none), min and max, and the degree.  The rows are distinct by (b), so
    # sigma_u maps each row to a row of its degree exactly when the images are the rows, as a set
    half = order // 2 if order % 2 == 0 else order
    radix = 4 * max(-int(coeffs.min()), int(coeffs.max())) + 1
    width = (half * radix) ** 2  # int32 codes for every table the program builds
    dtype = np.int32 if width < 2**31 else np.int64 if width < 2**63 else object
    units = np.array((1, *primes[0][2]))
    flip, folded = np.divmod(np.arange(order) * units[:, None] % order, half)
    base, sign = folded.astype(dtype) * radix, 1 - 2 * flip
    canon = np.empty((len(units), ell, ell + 1), dtype)
    canon[..., ell] = degrees
    for rows in blocks:
        e, c = exps[rows], coeffs[rows].astype(dtype, copy=False)
        a = sign.take(e, axis=1) * c
        same = folded[0].take(e)
        same = same[..., 0] == same[..., 1]
        a[..., 0] += a[..., 1] * same
        a[..., 1] *= ~same
        t = base.take(e, axis=1) * (a != 0) + (a + radix // 2)
        canon[:, rows, :ell] = np.minimum(t[..., 0], t[..., 1]) * (half * radix)
        canon[:, rows, :ell] += np.maximum(t[..., 0], t[..., 1])
    if dtype is object:  # 62-bit digits, so that the rows compare as bytes
        digits = range(0, width.bit_length(), 62)
        canon = np.concatenate([canon >> k & (2**62 - 1) for k in digits], -1).astype(np.int64)
    keys = canon.view(np.dtype((np.void, canon[0, 0].nbytes)))[..., 0]
    ranked = np.sort(keys[0]).view(canon.dtype)
    if any((np.sort(image).view(canon.dtype) != ranked).any() for image in keys[1:]):
        rows = set(keys[0].tolist())
        j, i = min((j, i) for i, image in enumerate(keys[1:].tolist(), 1)
                   for j, row in enumerate(image) if row not in rows)
        raise OrthogonalityFailure(f"character certificate failed for row {j} "
                                   f"{table.labels[j].describe()}: (g) z -> z^{units[i]} "
                                   "maps it to no row")
    return tuple(chosen.tolist())


def _clause_bound(table: CharacterTable) -> int:
    """A bound on every power-basis coordinate of every clause: each clause
    is a sum of terms c z^e with sum |c| at most 8 |Cl_s| |Cl_b| c_max^2 <=
    2 |G|^2 c_max^2, for c_max the table's largest |coefficient|, and each
    z^e has coordinates at most ``cyclotomic.coordinate_bound``."""
    c_max = max(-int(table.coefficients.min()), int(table.coefficients.max()))
    return 2 * table.order**2 * c_max**2 * coordinate_bound(table.root_order)


def _residues(e: np.ndarray, c: np.ndarray, p: int, powers: np.ndarray) -> np.ndarray:
    """sum_t c[..., t] powers[..., e[..., t]] mod p for (..., 2) integer terms, one (..., l, l)
    block for each table of ``powers``: the entries under z -> omega when powers[..., e] is
    omega^e.  The coefficients are reduced mod p first, so each product is below p^2 < 2^62
    and the sum of two fits int64."""
    terms = c % p * powers.take(e, axis=-1)
    return (terms[..., 0] + terms[..., 1]) % p


def _telling_apart(exps, coeffs, scale, primes) -> tuple[int, np.ndarray] | None:
    """(p, powers of omega_p^u) for the first of the ``embedding`` primes p and unit u under
    which the two scaled rows of exps and coeffs differ, or None if they agree under every one."""
    for p, powers, _ in primes:
        order = len(powers) - 1
        for u in np.flatnonzero(np.gcd(np.arange(order), order) == 1):
            image = powers[np.arange(order) * u % order]
            r = _residues(exps, coeffs, p, image) * scale % p
            if (r[0] != r[1]).any():
                return p, image


def _separating_classes(forms: np.ndarray) -> tuple[np.ndarray, list[int] | None]:
    """For (l, l, w) integer forms, forms[j, t] standing for chi_j at the t-th class in size
    order, with different forms different values: sorted by bytes, where adjacent rows first
    differ (S is those positions, the greedy choice smallest class first), and the first row
    whose forms equal another's on every class with the first such other row, or None."""
    ell = len(forms)
    rows = np.ascontiguousarray(forms.reshape(ell, -1))
    o = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().argsort()
    ranked = rows[o]
    equal = (ranked[1:] == ranked[:-1]).reshape(ell - 1, ell, -1).all(axis=2)
    first = np.argmin(equal, axis=1)
    if not (same := equal[np.arange(ell - 1), first]).any():
        return first, None
    run = np.concatenate(([0], ~same)).cumsum()[o.argsort()]  # equal rows share a run
    return first, np.flatnonzero(run == run[np.bincount(run)[run] > 1][0])[:2].tolist()
