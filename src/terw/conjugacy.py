"""Conjugacy classes of an index-2-abelian extension, by closed form and by orbit.

The closed form: elements of the abelian part A fixed by the twist are
central (singleton classes); the remaining elements of A pair up as
{x, f(x)}; and the classes in the coset are the translates (t + B, 1) of the
twisted commutator subgroup B = {x - f(x)}, which holds the multiples of
d_i in each coordinate.  Both routes give each element's class as its
minimum, the smallest element index in the class, and ``class_list``
orders and wraps the classes of those minima.  The closed form of the
minimum of each class Cl, with idx the mixed-radix index in A:

    min Cl(x, 0) = min(idx(x), idx(f(x))),
    min Cl(t, 1) = n + idx(t mod d),

with t mod d taken per coordinate, t_i mod d_i, the smallest member of t + B.
The orbit oracle takes the minima of the generators' conjugation orbits.
``ClassList.reps`` holds the element index of every representative, so the
per-class counts and the character labels read them from the one list, and
``rep_products`` their products with G and centralizer orders.  A class
keeps no member tuple: ``ClassList.labels`` gives its members.

``structure_tensor`` holds the structure constants p_ij^k of the scheme as
sparse (code, count) pairs, one per nonzero constant; it is the one source
of them, for the product axiom, the character certificate and the block
traces.

The two oracles here, ``conjugacy_classes_bruteforce`` and
``structure_tensor``, never read the tables: the first reads the orbit
minima ``groups.conjugation_minima`` of the generator conjugations, and the
second composes the right translations by the generators and the inversion
of ``groups.translations``.  Both are built with ``group.mul`` and
``group.inv`` alone, 2k calls on coordinate arrays, one per coset, so a
wrong table still disagrees with them.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Literal

import numpy as np

from .errors import OracleMismatch
from .groups import (
    D2Elem, D2Group, conjugation_minima, index_tables, inverses, per_group, read_only, translations
)
from .limits import DEFAULT_MATRIX_GUARD, check_guard

Kind = Literal["fixed", "paired", "coset"]

FIXED: Kind = "fixed"
PAIRED: Kind = "paired"
COSET: Kind = "coset"


class ConjClass(namedtuple("ConjClass", "kind rep size index")):
    """One conjugacy class: ``kind`` (Kind), ``rep`` (D2Elem), ``size`` and
    ``index`` (int)."""

    __slots__ = ()


class ClassList:
    """All conjugacy classes of a group, in the order of ``class_list``.

    ``labels`` is the class index of every element, by element index, and
    ``reps`` the element index of every class representative, by class
    index; both are read-only.  Equality reads ``classes`` alone.
    The group is not kept, because the group keeps the list.
    """

    __slots__ = ("classes", "labels", "reps")

    def __init__(self, classes: tuple[ConjClass, ...], labels: np.ndarray, reps: np.ndarray):
        self.classes, self.labels, self.reps = classes, labels, reps

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassList) and self.classes == other.classes

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ConjClass]:
        return iter(self.classes)

    def __getitem__(self, i: int) -> ConjClass:
        return self.classes[i]

    @property
    def counts(self) -> tuple[int, int, int]:
        """(number of fixed, paired, coset classes)."""
        kinds = [c.kind for c in self.classes]
        return (kinds.count(FIXED), kinds.count(PAIRED), kinds.count(COSET))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)


def class_list(group: D2Group, minima: np.ndarray) -> ClassList:
    """The classes of the group, given the smallest element index minima[x]
    in the class of every element index x, in the canonical order.

    The canonical order puts the fixed singletons {x} of A first, then the
    pairs {x, f(x)} of A, then the coset classes, each kind in order of its
    smallest member, so class 0 is {e}.  Each class is represented by its
    smallest member.  A class lies in A when its minimum is below n, and is
    fixed when it also has one member.  The smallest member of a coset
    class (z + B, 1) is (z, 1) with 0 <= z_i < d_i, so the coset classes
    come in mixed-radix order of z.
    """
    n = group.n
    roots, inverse, sizes = np.unique(minima, return_inverse=True, return_counts=True)
    fixed = (roots < n) & (sizes == 1)
    # paired minima lie below n and coset minima at n or above, so shifting
    # all but the fixed ones by n orders the three kinds
    ranked = np.argsort(roots + n * ~fixed)
    reps = read_only(roots[ranked])
    index = np.argsort(ranked).astype(np.int32)  # the inverse permutation
    kinds = np.where(fixed[ranked], FIXED, np.where(reps < n, PAIRED, COSET)).tolist()
    elems = group.elements_at(reps)
    classes = tuple(map(ConjClass, kinds, elems, sizes[ranked].tolist(), range(len(reps))))
    return ClassList(classes, read_only(index[inverse]), reps)


@per_group
def conjugacy_classes(group: D2Group) -> ClassList:
    """Conjugacy classes by the closed form of their minima."""
    moduli = group.abelian.moduli
    idx = np.arange(group.n)
    coords = np.unravel_index(idx, moduli)
    twisted = np.ravel_multi_index(
        [(s * x) % m for s, x, m in zip(group.twist.s, coords, moduli)], moduli
    )
    residues = np.ravel_multi_index([x % d for x, d in zip(coords, group.fixed.d_vec)], moduli)
    return class_list(group, np.concatenate([np.minimum(idx, twisted), residues + group.n]))


def conjugacy_classes_bruteforce(
    group: D2Group, guard: int = DEFAULT_MATRIX_GUARD
) -> ClassList:
    """Conjugacy classes as the orbits of x -> s^-1 x s for the k generators
    s, from their minima ``conjugation_minima``, not from the tables."""
    check_guard(group.order, guard, "orbit enumeration")
    return class_list(group, conjugation_minima(group))


def class_products(group: D2Group, i: int, j: int) -> set[int]:
    """Indices of the classes contained in the elementwise product Cl_i * Cl_j."""
    labels = conjugacy_classes(group).labels
    rows = np.flatnonzero(labels == i)
    cols = np.flatnonzero(labels == j)
    counts = np.bincount(labels[index_tables(group, rows, cols)].ravel())
    return set(np.flatnonzero(counts).tolist())


@per_group
def structure_tensor(group: D2Group) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero structure constants as read-only (codes, counts): each
    code (k * l + i) * l + j, increasing, with count p_ij^k > 0, the number
    of pairs (u, v) in class i x class j with v*u = y_k, for the
    representative y_k of class k.  Their number is the sandwich dimension.

    Each v gives exactly one u = v^-1 * y_k, which is rho_{y_k}[iota[v]]
    for the right translation rho_{y_k} by y_k, composed from
    ``translations`` and not read from the tables; the constants are the
    run lengths of the codes, sorted in place.
    """
    classes = conjugacy_classes(group)
    ell = len(classes)
    rho, iota = translations(group)
    codes = np.empty((ell, group.order), dtype=np.int64)
    for k, rho_y in _translations_to(rho, classes.reps.tolist(), group.index(group.identity)):
        codes[k] = classes.labels[rho_y[iota]]  # the class of u, by v
    # (k * l + class of u) * l + class of v, in place
    codes += np.arange(ell)[:, None] * ell
    codes *= ell
    codes += classes.labels
    codes.sort(axis=1)
    codes = codes.ravel()
    first = np.empty(codes.size, dtype=bool)  # where a run of equal codes starts
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    # the full-size codes are freed before the counts are formed
    size, codes = codes.size, codes[starts]
    return read_only(codes), read_only(np.diff(starts, append=size))


def _translations_to(
    rho: np.ndarray, targets: list[int], root: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(t, rho_x) for every position t of ``targets``, with rho_x: v -> v*x
    the right translation by the element x = targets[t].

    The rho_x are composed along a breadth-first tree from the root (the
    identity) over the generator translations rho, with
    rho_{x*s} = rho_s[rho_x]; only tree nodes on a path to a target are
    composed, each once, and only one level of them is kept at a time.  The
    tree itself is k * |G| list lookups.
    """
    rows = rho.tolist()
    parent = [-1] * rho.shape[1]
    step = [0] * rho.shape[1]  # the generator s of the tree edge into x*s
    parent[root] = root
    levels = [[root]]
    while levels[-1]:
        level = []
        for x in levels[-1]:
            for s, row in enumerate(rows):
                y = row[x]
                if parent[y] < 0:
                    parent[y], step[y] = x, s
                    level.append(y)
        levels.append(level)

    needed = set()
    for x in targets:
        while x not in needed:
            if parent[x] < 0:
                raise OracleMismatch("the generators do not reach every class representative")
            needed.add(x)
            x = parent[x]
    position = {x: t for t, x in enumerate(targets)}
    current = {root: np.arange(rho.shape[1])}
    for level in levels[1:]:  # the last level is empty
        yield from ((position[x], rho_x) for x, rho_x in current.items() if x in position)
        current = {x: rho[step[x]][current[parent[x]]] for x in level if x in needed}


@per_group
def class_index_table(group: D2Group) -> np.ndarray:
    """Table D with D[x, y] = class index of y * x^-1, over element indices,
    read as the class of its conjugate x^-1 * y (by x) from the block with
    the inverses on the left, so that D is C-contiguous like the block."""
    labels = conjugacy_classes(group).labels
    return read_only(labels[index_tables(group, inverses(group), None)])


@per_group
def rep_products(group: D2Group) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, orders): the int32 (l, |G|) rows[k, v], the index of
    r_k * v for the class representatives r_k, and |C_G(r_k)| = #{v : r_k v
    = v r_k}, from ``index_tables`` over the r_k and G on either side.  The
    representatives go in blocks of about 2^17 products, so that beside the
    kept rows only one block of rows and of columns v r_k is alive."""
    reps = conjugacy_classes(group).reps
    rows = np.empty((len(reps), group.order), dtype=np.int32)
    orders = np.empty(len(reps), dtype=np.int64)
    step = max(1, (1 << 17) // group.order)
    for lo in range(0, len(reps), step):
        block = reps[lo:lo + step]  # the classes in A come first, so a block lists them first
        rows[lo:lo + step] = index_tables(group, block, None)
        cols = index_tables(group, None, block)
        orders[lo:lo + step] = np.count_nonzero(rows[lo:lo + step] == cols.T, axis=1)
    return read_only(rows), read_only(orders)
