"""Conjugacy classes of an index-2-abelian extension, by closed form and by orbit.

The closed form: elements of the abelian part fixed by the twist are central
(singleton classes); the remaining abelian elements pair up as {x, f(x)};
and the classes in the coset are the translates B*z*b of the twisted
commutator subgroup B, one for each residue box representative z with
0 <= z_i < d_i.  The canonical class order is fixed singletons first (in
enumeration order), then pairs (by smaller representative), then coset
classes (by mixed-radix z); class 0 is always {e}.

``structure_tensor`` holds the structure constants p_ij^k of the scheme as
sparse (code, count) pairs, one per nonzero constant; it is the one source
of them, for the product axiom, the class-sum products of the central
idempotents and the block traces.

The two oracles here, ``conjugacy_classes_bruteforce`` and
``structure_tensor``, never read the tables: they compose the right
translations by the generators and the inversion of
``groups.translations``, which are counted with ``group.mul`` and
``group.inv``, so a wrong table still disagrees with them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import product as _iterproduct
from typing import Iterable, Iterator, Literal

import numpy as np

from .abelian import AbElem
from .errors import OracleMismatch
from .groups import (
    D2Elem, D2Group, index_tables, orbit_minima, per_group, read_only, translations
)
from .limits import DEFAULT_MATRIX_GUARD, check_guard

Kind = Literal["fixed", "paired", "coset"]

FIXED: Kind = "fixed"
PAIRED: Kind = "paired"
COSET: Kind = "coset"


@dataclass(frozen=True)
class ConjClass:
    kind: Kind
    rep: D2Elem
    elements: tuple[D2Elem, ...]
    index: int

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass
class ClassList:
    """All conjugacy classes of a group, canonically ordered.

    ``labels`` is the class index of every element, by element index, and is
    read-only.  The group is not kept, because the group keeps the list.
    """

    group: InitVar[D2Group]
    classes: tuple[ConjClass, ...]
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    _lookup: dict[D2Elem, int] = field(default_factory=dict, repr=False)

    def __post_init__(self, group: D2Group):
        labels = np.empty(group.order, dtype=np.int32)
        for cls in self.classes:
            labels[[group.index(g) for g in cls.elements]] = cls.index
            for g in cls.elements:
                self._lookup[g] = cls.index
        self.labels = read_only(labels)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ConjClass]:
        return iter(self.classes)

    def __getitem__(self, i: int) -> ConjClass:
        return self.classes[i]

    def index_of(self, g: D2Elem) -> int:
        return self._lookup[g]

    @property
    def counts(self) -> tuple[int, int, int]:
        """(number of fixed, paired, coset classes)."""
        kinds = [c.kind for c in self.classes]
        return (kinds.count(FIXED), kinds.count(PAIRED), kinds.count(COSET))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.classes)


def _twisted_subgroup(group: D2Group) -> list[AbElem]:
    """Elements of B = {f(x) - x}: per-coordinate multiples of d_i."""
    d_vec = group.fixed.d_vec
    return [
        tuple(d * j for d, j in zip(d_vec, js))
        for js in _iterproduct(*(range(n) for n in group.fixed.n_vec))
    ]


def residue_box(group: D2Group) -> list[AbElem]:
    """Coset representatives of B in mixed-radix order, 0 <= z_i < d_i."""
    return list(_iterproduct(*(range(d) for d in group.fixed.d_vec)))


@per_group
def conjugacy_classes(group: D2Group) -> ClassList:
    """Conjugacy classes by the closed form."""
    A = group.abelian
    fx = group.fixed
    twist = group.twist
    classes: list[ConjClass] = []

    for a in A.elements():
        if fx.is_fixed(a):
            g = (a, 0)
            classes.append(ConjClass(FIXED, g, (g,), len(classes)))

    seen: set[AbElem] = set()
    for a in A.elements():
        if fx.is_fixed(a) or a in seen:
            continue
        fa = twist.apply(a)
        seen.add(a)
        seen.add(fa)
        pair = tuple(sorted(((a, 0), (fa, 0)), key=group.index))
        classes.append(ConjClass(PAIRED, pair[0], pair, len(classes)))

    b_elems = _twisted_subgroup(group)
    for z in residue_box(group):
        elems = tuple(
            sorted(((A.mul(w, z), 1) for w in b_elems), key=group.index)
        )
        classes.append(ConjClass(COSET, (z, 1), elems, len(classes)))

    return ClassList(group=group, classes=tuple(classes))


def conjugacy_classes_bruteforce(
    group: D2Group, guard: int = DEFAULT_MATRIX_GUARD
) -> ClassList:
    """Conjugacy classes as the orbits (``orbit_minima``) of x -> s^-1 x s for
    the k generators s, canonically ordered.  Each conjugation is composed
    from ``translations``, rho_s[iota[rho_s[iota]]], not read from the
    tables."""
    check_guard(group.order, guard, "orbit enumeration")
    rho, iota = translations(group)
    roots = orbit_minima(np.take_along_axis(rho, iota[rho[:, iota]], axis=1))
    # a stable sort keeps each orbit's members in index order, and puts the
    # orbits in order of their smallest members, the roots
    order = np.argsort(roots, kind="stable")
    bounds = (np.flatnonzero(np.diff(roots[order])) + 1).tolist()
    elems, members = list(group.elements()), order.tolist()
    orbits = [
        tuple(elems[i] for i in members[a:b])
        for a, b in zip([0, *bounds], [*bounds, len(members)])
    ]
    return ClassList(group=group, classes=tuple(_canonicalize(group, orbits)))


def _canonicalize(group: D2Group, orbits: Iterable[tuple[D2Elem, ...]]) -> list[ConjClass]:
    """Order raw orbits exactly as the closed form does.  Each orbit lists its
    members in index order, and the orbits come in order of their first
    members."""
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

    def coset_key(members: tuple[D2Elem, ...]) -> AbElem:
        a, _ = members[0]
        return tuple(t % d for t, d in zip(a, d_vec))

    coset.sort(key=lambda ms: group.abelian.index(coset_key(ms)))

    classes: list[ConjClass] = []
    for members in fixed:
        classes.append(ConjClass(FIXED, members[0], members, len(classes)))
    for members in paired:
        classes.append(ConjClass(PAIRED, members[0], members, len(classes)))
    for members in coset:
        rep = (coset_key(members), 1)
        classes.append(ConjClass(COSET, rep, members, len(classes)))
    return classes


def class_products(group: D2Group, i: int, j: int) -> set[int]:
    """Indices of the classes contained in the elementwise product Cl_i * Cl_j."""
    mult, _ = index_tables(group)
    labels = conjugacy_classes(group).labels
    rows = np.flatnonzero(labels == i)
    cols = np.flatnonzero(labels == j)
    counts = np.bincount(labels[mult[np.ix_(rows, cols)]].ravel())
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
    run lengths of the sorted codes.
    """
    classes = conjugacy_classes(group)
    ell = len(classes)
    rho, iota = translations(group)
    reps = [group.index(cls.rep) for cls in classes]
    codes = np.empty((ell, group.order), dtype=np.int64)
    for k, rho_y in _translations_to(rho, reps, group.index(group.identity)):
        codes[k] = classes.labels[rho_y[iota]]  # the class of u, by v
    # (k * l + class of u) * l + class of v, in place
    codes += np.arange(ell)[:, None] * ell
    codes *= ell
    codes += classes.labels
    codes = np.sort(codes, axis=1).ravel()
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    return read_only(codes[starts]), read_only(np.diff(starts, append=codes.size))


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


def class_triple_codes(group: D2Group) -> np.ndarray:
    """Code (class of u * l + class of v) * l + class of u*v of every pair
    (u, v), with l the class count, over element indices."""
    mult, _ = index_tables(group)
    classes = conjugacy_classes(group)
    ell = len(classes)
    labels = classes.labels.astype(np.int64)
    return (labels[:, None] * ell + labels[None, :]) * ell + labels[mult]


@per_group
def class_index_table(group: D2Group) -> np.ndarray:
    """Table D with D[x, y] = class index of y * x^-1, over element indices."""
    mult, inv = index_tables(group)
    return read_only(conjugacy_classes(group).labels[mult[:, inv].T])
