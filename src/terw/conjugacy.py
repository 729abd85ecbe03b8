"""Conjugacy classes of an index-2-abelian extension, by closed form and by orbit.

The closed form: elements of the abelian part fixed by the twist are central
(singleton classes); the remaining abelian elements pair up as {x, f(x)};
and the classes in the coset are the translates B*z*b of the twisted
commutator subgroup B, one for each residue box representative z with
0 <= z_i < d_i.  The canonical class order is fixed singletons first (in
enumeration order), then pairs (by smaller representative), then coset
classes (by mixed-radix z); class 0 is always {e}.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import product as _iterproduct
from typing import Iterable, Iterator, Literal

import numpy as np

from .abelian import AbElem
from .errors import OracleMismatch
from .groups import (
    D2Elem, D2Group, generator_perms, index_tables, orbit_minima, per_group, read_only
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
    """Conjugacy classes as the orbits (``orbit_minima``) of x -> gxg^-1 for
    the k generators g, canonically ordered.  The k * |G| conjugations use
    ``group.conjugate`` and ``group.index``, not the tables."""
    check_guard(group.order, guard, "orbit enumeration")
    roots = orbit_minima(generator_perms(group, group.conjugate))
    orbits: dict[int, set[D2Elem]] = {}
    for x, root in zip(group.elements(), roots.tolist()):
        orbits.setdefault(root, set()).add(x)
    return ClassList(group=group, classes=tuple(_canonicalize(group, orbits.values())))


def _canonicalize(group: D2Group, orbits: Iterable[set[D2Elem]]) -> list[ConjClass]:
    """Order raw orbits exactly as the closed form does."""
    fixed, paired, coset = [], [], []
    d_vec = group.fixed.d_vec
    for orbit in orbits:
        members = tuple(sorted(orbit, key=group.index))
        if all(beta == 0 for _, beta in members):
            if len(members) == 1:
                fixed.append(members)
            else:
                paired.append(members)
        else:
            coset.append(members)
    fixed.sort(key=lambda ms: group.index(ms[0]))
    paired.sort(key=lambda ms: group.index(ms[0]))

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


def structure_constant(group: D2Group, i: int, j: int, k: int) -> int:
    """p_ij^k: with x = e and y any element of class k, the number of z in
    class i such that y*z^-1 lies in class j.  Independent of the chosen y."""
    classes = conjugacy_classes(group)
    y = classes[k].rep
    count = 0
    for z in classes[i].elements:
        if classes.index_of(group.mul(y, group.inv(z))) == j:
            count += 1
    return count


def class_products(group: D2Group, i: int, j: int) -> set[int]:
    """Indices of the classes contained in the elementwise product Cl_i * Cl_j."""
    mult, _ = index_tables(group)
    labels = conjugacy_classes(group).labels
    rows = np.flatnonzero(labels == i)
    cols = np.flatnonzero(labels == j)
    counts = np.bincount(labels[mult[np.ix_(rows, cols)]].ravel())
    return set(np.flatnonzero(counts).tolist())


def structure_tensor(group: D2Group) -> np.ndarray:
    """Full tensor p[i, j, k]: the number of pairs (u, v) in class i x
    class j with v*u = y_k, for the representative y_k of class k.

    Each u gives exactly one v = y_k * u^-1, so one pass over G per class
    counts p[:, :, k], by the rule ``structure_constant`` uses and with
    ``group.mul`` and ``group.inv`` only, not the tables.
    """
    classes = conjugacy_classes(group)
    ell = len(classes)
    inverses = [group.inv(u) for u in group.elements()]
    first = classes.labels.astype(np.int64) * ell  # class of u, by element index
    p = np.empty((ell, ell, ell), dtype=np.int64)
    for k, cls in enumerate(classes):
        second = [classes.index_of(group.mul(cls.rep, u_inv)) for u_inv in inverses]
        p[:, :, k] = np.bincount(first + second, minlength=ell * ell).reshape(ell, ell)
    return p


def class_triple_codes(group: D2Group) -> np.ndarray:
    """Code (class of u * l + class of v) * l + class of u*v of every pair
    (u, v), with l the class count, over element indices."""
    mult, _ = index_tables(group)
    classes = conjugacy_classes(group)
    ell = len(classes)
    labels = classes.labels.astype(np.int64)
    return (labels[:, None] * ell + labels[None, :]) * ell + labels[mult]


def class_structure_constants(group: D2Group) -> np.ndarray:
    """a[i, j, k] = #{(x, y) in Cl_i x Cl_j : x*y = z} for any z in Cl_k.

    These multiply the class sums of the group algebra,
    K_i K_j = sum_k a[i, j, k] K_k, and a[i, j, k] = p[j, i, k] of
    ``structure_tensor``.  One count over the multiplication table gives
    |Cl_k| * a[i, j, k], divided exactly by the class size.
    """
    classes = conjugacy_classes(group)
    ell = len(classes)
    counts = np.bincount(class_triple_codes(group).ravel(), minlength=ell**3)
    consts, rest = np.divmod(counts.reshape(ell, ell, ell), np.array(classes.sizes))
    if rest.any():
        raise OracleMismatch("a class product is not constant on a class")
    return consts


@per_group
def class_index_table(group: D2Group) -> np.ndarray:
    """Table D with D[x, y] = class index of y * x^-1, over element indices."""
    mult, inv = index_tables(group)
    return read_only(conjugacy_classes(group).labels[mult[:, inv].T])
