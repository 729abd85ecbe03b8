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
the class representatives, and ``verify_orthogonality`` certifies the rows
exactly: the certificate, not a second evaluation of the same formula, is
the evidence that the table is right.  The "+" character takes the
principal square root on the coset; swapping the two signs permutes rows
but never changes the table as a multiset (tested, not assumed).

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
from collections import namedtuple

import numpy as np

from .conjugacy import COSET, PAIRED, ClassList, conjugacy_classes, structure_tensor
from .cyclotomic import RootSum, coordinate_bound, embedding, integer_values, reduced_sums
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
    module reads the arrays; other modules read ``value``, ``class_sums``
    and the exports.  It keeps the group's order and root order, not the
    group, because the group keeps the table.  The three exports read the
    entries through one step, ``_cells``, which evaluates and formats each
    distinct entry once, and each writes its report in one join.

    Fields: ``order`` and ``root_order`` (int), ``classes`` (ClassList),
    ``labels`` (tuple[CharLabel, ...]), ``exponents`` and ``coefficients``
    (np.ndarray).
    """

    __slots__ = ()

    @property
    def degrees(self) -> list[int]:
        return [label.degree for label in self.labels]

    def value(self, row: int, col: int) -> RootSum:
        """Entry (row, col) as an exact RootSum."""
        terms = zip(self.exponents[row, col].tolist(), self.coefficients[row, col].tolist())
        return RootSum(self.root_order, terms)

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

    def _distinct_entries(self) -> tuple[list[tuple[tuple[int, int], ...]], np.ndarray]:
        """The distinct entries, each as the (exponent, coefficient) terms
        that ``RootSum`` keeps for it, in its order, and the (l, l) index of
        each entry among them.  An entry is keyed by one int64 from
        (e1, e2, c1, c2); zero coefficients are dropped and equal exponents
        merged by hand, as ``RootSum`` does."""
        low = min(int(self.coefficients.min()), 0)
        span = int(self.coefficients.max()) - low + 1
        shape = (self.root_order, self.root_order, span, span)
        e, c = self.exponents, self.coefficients - low
        keys = np.ravel_multi_index((e[..., 0], e[..., 1], c[..., 0], c[..., 1]), shape)
        distinct, inverse = np.unique(keys, return_inverse=True)
        entries = []
        for e1, e2, c1, c2 in zip(*(x.tolist() for x in np.unravel_index(distinct, shape))):
            c1, c2 = c1 + low, c2 + low
            if not c1:
                entries.append(((e2, c2),) if c2 else ())
            elif not c2:
                entries.append(((e1, c1),))
            elif e1 == e2:
                entries.append(((e1, c1 + c2),) if c1 + c2 else ())
            else:
                entries.append(((e1, c1), (e2, c2)))
        return entries, inverse.reshape(keys.shape)  # numpy 1.x returns it flat

    # -- exports -----------------------------------------------------------

    def _cells(self, fmt) -> tuple[np.ndarray, np.ndarray]:
        """The distinct entries as the strings ``fmt(entries, values)`` gives for the
        list of their terms and of their values, in an object array, and the (l, l)
        index of each entry among them.  A value sums c * exp(2 pi i e / M) from 0j
        over the terms in ``RootSum``'s order, with the root cached per exponent: the
        float operations of ``eval_complex`` in its order, so bit-identical to it."""
        entries, inverse = self._distinct_entries()
        step, roots = 2j * cmath.pi / self.root_order, {}
        values = []
        for terms in entries:
            z = 0j
            for e, c in terms:
                if e not in roots:
                    roots[e] = cmath.exp(step * e)
                z += c * roots[e]
            values.append(z)
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

    The clauses are first checked in F_p under one embedding ev: Z[z_M] ->
    F_p, z -> omega, with p = 1 (mod M) prime and omega of order M
    (``cyclotomic.embedding``); the kernel of ev is a prime P over p.  A
    clause is an element x_j of Z[z_M] built from row j, its conjugate and
    rational constants (class sizes, p_sb^c, |G|, the degree), and each of
    its power-basis coordinates is at most ``_clause_bound`` in absolute
    value.  For each generator i of the units mod M, sigma_i (z -> z^i)
    must carry every row j exactly onto a row pi_i(j) of the same degree:
    the exponents times i, -z^e written z^(e + M/2) when M is even and each
    entry's two terms sorted, equal the table's row raw.  sigma_i fixes the
    constants and commutes with conjugation, so sigma_i x_j = x_pi_i(j),
    and by composition the rows are closed under every sigma_u.  So
    ev(sigma_u x_j) = ev(x_pi_u(j)) = 0 for every unit u once every row
    passes under ev, and x_j lies in the intersection of the sigma_u^-1 P,
    which is pZ[z_M] as p does not divide M: every coordinate is divisible
    by p, and below p/2 in absolute value, so x_j = 0.  This holds for (c),
    (0) and (a) alike.  (b) needs neither: different residues are different
    values, and the residues pick the same S as the values unless two of
    them collide.

    Whatever the residues cannot certify goes to ``_exact_certificate``,
    which reduces every clause in Z[z_M] by ``cyclotomic.reduced_sums`` and
    decides the result: a nonzero residue, two rows equal on every class, an
    image row with no raw match, or a bound at or above p/2.  A failure
    names two equal rows for (b), else the first failing row."""
    chosen = _modular_certificate(group, table)
    return _exact_certificate(group, table) if chosen is None else chosen


def _clause_bound(table: CharacterTable) -> int:
    """A bound on every power-basis coordinate of every clause: each clause
    is a sum of terms c z^e with sum |c| at most 8 |Cl_s| |Cl_b| c_max^2 <=
    2 |G|^2 c_max^2, for c_max the table's largest |coefficient|, and each
    z^e has coordinates at most ``cyclotomic.coordinate_bound``."""
    c_max = int(np.abs(table.coefficients).max())
    return 2 * table.order**2 * c_max**2 * coordinate_bound(table.root_order)


def _separating_classes(forms: np.ndarray, by_size: np.ndarray) -> np.ndarray:
    """The classes S of (b), from (l, l, w) integer forms: forms[j, t] stands for
    chi_j at class by_size[t], and different forms are different values.  With the
    rows sorted by bytes, S is the classes where adjacent rows first differ, the
    greedy choice smallest class first; raises ``OrthogonalityFailure`` for two rows
    whose forms are equal on every class."""
    ell = len(forms)
    rows = forms.reshape(ell, -1)
    o = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().argsort()
    equal = (rows[o[1:]] == rows[o[:-1]]).reshape(ell - 1, ell, -1).all(axis=2)
    first = np.argmin(equal, axis=1)
    if (same := equal[np.arange(ell - 1), first]).any():
        j, m = sorted(o[np.argmax(same) + np.arange(2)].tolist())
        raise OrthogonalityFailure(f"character certificate failed for rows {j} and {m}: (b) equal")
    return by_size[np.bincount(first, minlength=ell).nonzero()[0]]


def _modular_certificate(group: D2Group, table: CharacterTable) -> tuple[int, ...] | None:
    """S when every clause of ``verify_orthogonality`` holds under ev and the
    rows are closed under the Galois action, else None.  A residue is below
    p < 2^31, and the bound keeps |G| c_max below 2^15, so every product and
    sum below fits int64."""
    ell, order = len(table.labels), table.root_order
    p, powers, units = embedding(order)
    if 2 * _clause_bound(table) >= p:
        return None
    exps, coeffs = table.exponents, table.coefficients
    sizes, degrees = np.array(table.classes.sizes), np.array(table.degrees)
    terms, conj = coeffs * powers[exps], coeffs * powers[order - exps]
    res = (terms[..., 0] + terms[..., 1]) % p
    conj = (conj[..., 0] + conj[..., 1]) % p
    if (res[:, 0] != degrees).any() or ((res * conj % p) @ sizes % p != group.order % p).any():
        return None
    # (b) on chi_j(k) lcm(deg) / deg_j, as for the exact forms
    by_size = np.argsort(sizes, kind="stable")
    scaled = np.take(res, by_size, axis=1) * (np.lcm.reduce(degrees) // degrees)[:, None] % p
    try:
        chosen = _separating_classes(scaled[..., None], by_size)
    except OrthogonalityFailure:
        return None

    # (a) with y = |Cl_b| chi_j(b): y_s y_b = deg_j sum_c p_sb^c y_c, the constants p_sb^c of
    # s = S[t] summed into key t l + b; the sum over c is below 2^31 |Cl_s| |Cl_b|
    n = len(chosen) * ell
    keys = np.full((ell, ell), -1)
    keys[chosen] = np.arange(n).reshape(-1, ell)
    codes, counts = structure_tensor(group)
    c, sb = np.divmod(codes, ell * ell)
    key = keys.ravel()[sb]
    pick = key >= 0
    key, c, count = key[pick, None], c[pick], counts[pick, None]
    y = res * sizes % p
    step = max(1, (1 << 18) // (len(c) + n))
    for lo in range(0, ell, step):
        yb = y[lo:lo + step]
        sums = np.zeros(len(yb) * n, dtype=np.int64)
        np.add.at(sums, key + n * np.arange(len(yb)), yb.T[c] * count)
        rhs = sums.reshape(len(yb), -1, ell) * degrees[lo:lo + step, None, None]
        if ((yb[:, chosen, None] * yb[:, None, :] - rhs) % p).any():
            return None

    # the Galois closure, on one code per entry: its two terms, each e (2 c_max + 1) + c + c_max
    # with -z^e as z^(e + M/2) for even M and an absent term as (0, 0), min and max
    e, c, every = exps, coeffs, np.arange(order)
    if order % 2 == 0:
        e, c = np.where(c < 0, ((every + order // 2) % order)[e], e), np.abs(c)
    c_max = int(np.abs(c).max())
    e, shift = np.where(c == 0, 0, e), c + c_max

    def entry_codes(e: np.ndarray) -> np.ndarray:
        terms = e * (2 * c_max + 1) + shift
        lo, hi = np.minimum(terms[..., 0], terms[..., 1]), np.maximum(terms[..., 0], terms[..., 1])
        return lo * (order * (2 * c_max + 1)) + hi

    # a row is found by its degree and its codes on S, which tell the rows apart by (b)
    table_codes, deg = entry_codes(e), table.degrees
    row_of = {k: m for m, k in enumerate(zip(deg, *table_codes[:, chosen].T.tolist()))}
    for u in units:
        image = entry_codes((every * u % order)[e])
        pi = [row_of.get(k, -1) for k in zip(deg, *image[:, chosen].T.tolist())]
        if -1 in pi or (image != table_codes[pi]).any():
            return None
    return tuple(chosen.tolist())


def _exact_certificate(group: D2Group, table: CharacterTable) -> tuple[int, ...]:
    """The clauses of ``verify_orthogonality`` reduced in Z[z_M] by
    ``cyclotomic.reduced_sums``, every row and every clause; return S or
    raise ``OrthogonalityFailure`` for the first failing row."""
    ell, order = len(table.labels), table.root_order
    exps, coeffs = table.exponents, table.coefficients
    sizes, degrees = np.array(table.classes.sizes), np.array(table.degrees)
    # (b) on chi_j(k) lcm(deg) / deg_j as forms: (coordinate + 1, value), zero-padded
    by_size = np.argsort(sizes, kind="stable")
    entry, coord, value = reduced_sums(order, (
        np.arange(ell * ell).reshape(ell, ell, 1), exps[:, by_size],
        coeffs[:, by_size] * (np.lcm.reduce(degrees) // degrees)[:, None, None]))
    slot = np.arange(entry.size) - np.searchsorted(entry, entry)
    forms = np.zeros((ell * ell, 2, int(slot.max(initial=0)) + 1), dtype=np.int64)
    forms[entry, 0, slot], forms[entry, 1, slot] = coord + 1, value
    chosen = _separating_classes(forms.reshape(ell, ell, -1), by_size).tolist()

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
