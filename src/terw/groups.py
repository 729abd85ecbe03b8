"""Non-abelian groups with an abelian subgroup of index 2.

Given an abelian group A, an order-2 diagonal automorphism f, and a fixed
point y of f, the extension <A, b | b^2 = y, b*x*b^-1 = f(x)> has order 2|A|.
Elements are kept in the normal form x * b^beta with beta in {0, 1}, so
multiplication is

    (x, beta) * (x', beta') = (x + f^beta(x') + [beta and beta'] * y,
                               (beta + beta') mod 2),

the [..] term injecting b^2 = y exactly when two b's meet.  The named
constructors are one per group kind: ``general`` (any diagonal twist f and
fixed point y), generalized dihedral (f = inversion, y = 0), generalized
dicyclic (f = inversion, y of order 2), and the order-2n extensions of a
cyclic group, which are stored internally in prime-power coordinates via
the Chinese remainder theorem.

Per-group artefacts (``per_group``) are built once and kept on the group.
The element indices come from two sides: ``index_tables``, blocks of
normal-form products built afresh on each call, with ``inverses`` read off
the normal form, and ``translations``, the right translations by the
generators and the inversion, computed with ``group.mul`` and ``group.inv``
alone: 2k calls on coordinate arrays, one per coset.  The oracles that must
not read the tables compose ``translations``: ``conjugations``, the
generator conjugations, and their orbit minima ``conjugation_minima``, the
brute-force classes and the axiom (iv) columns.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .abelian import (
    AbElem,
    AbelianGroup,
    FixedData,
    Involution,
    canonical_factor_order,
    fixed_data,
    make_abelian,
    make_involution,
)
from .errors import BadDicyclicYError, BadG2ParamsError, DimensionMismatchError, YNotFixedError

D2Elem = tuple[AbElem, int]


class NonUniqueInvolutionWarning(UserWarning):
    """The abelian part has several order-2 elements, so the dicyclic
    construction is ambiguous; the requested one is used anyway."""


class D2Group:
    """The extension of an abelian group by an order-2 twist.

    Elements are pairs (exponent vector, beta); the abelian subgroup is
    beta = 0 and the nontrivial coset is beta = 1.  Enumeration order lists
    the abelian part first, each half in the abelian group's own order.
    """

    def __init__(
        self,
        abelian: AbelianGroup,
        twist: Involution,
        square: Sequence[int],
        name: str | None = None,
    ):
        y = abelian.reduce(square)
        if twist.apply(y) != y:
            raise YNotFixedError(
                f"b^2 = {y} is not fixed by the twist, but b*y*b^-1 = y always holds"
            )
        self.abelian = abelian
        self.twist = twist
        self.square = y
        self.fixed: FixedData = fixed_data(abelian, twist)
        self.n = abelian.order
        self.d = self.fixed.d
        self.order = 2 * abelian.order
        self.name = name or f"D2({abelian.describe()}; s={list(twist.s)}; y={list(y)})"
        self._memo: dict[Callable, object] = {}  # artefacts built by ``per_group`` builders

    # -- element arithmetic --------------------------------------------

    @property
    def identity(self) -> D2Elem:
        return (self.abelian.identity, 0)

    def mul(self, g: D2Elem, h: D2Elem) -> D2Elem:
        """g * h in normal form.  A coordinate may be an ndarray, so one
        call multiplies a whole coset, provided beta and gamma are scalars."""
        a, beta = g
        c, gamma = h
        if beta:
            c = self.twist.apply(c)
        prod = self.abelian.mul(a, c)
        if beta and gamma:
            prod = self.abelian.mul(prod, self.square)
        return (prod, (beta + gamma) % 2)

    def inv(self, g: D2Elem) -> D2Elem:
        """g^-1 in normal form; a coordinate may be an ndarray, provided
        beta is a scalar."""
        a, beta = g
        if beta == 0:
            return (self.abelian.inv(a), 0)
        # (x, 1)^-1 = (-f(x) - y, 1)
        fa = self.twist.apply(a)
        return (self.abelian.inv(self.abelian.mul(fa, self.square)), 1)

    # -- enumeration -----------------------------------------------------

    def elements(self) -> Iterator[D2Elem]:
        for beta in (0, 1):
            for a in self.abelian.elements():
                yield (a, beta)

    def index(self, g: D2Elem) -> int:
        """The element index, elements of A first; an array of indices where
        a coordinate is an ndarray, provided beta is a scalar."""
        a, beta = g
        return self.abelian.index(a) + beta * self.n

    def elements_at(self, indices: np.ndarray) -> list[D2Elem]:
        """The elements at an array of indices, from their coordinates at once."""
        coords = np.stack(np.unravel_index(indices % self.n, self.abelian.moduli), axis=1)
        return list(zip(map(tuple, coords.tolist()), (indices // self.n).tolist()))

    def generators(self) -> list[D2Elem]:
        """Coordinate generators of the abelian part plus b."""
        gens: list[D2Elem] = []
        k = self.abelian.rank
        for i in range(k):
            vec = [0] * k
            vec[i] = 1
            gens.append((tuple(vec), 0))
        gens.append((self.abelian.identity, 1))
        return gens

    @property
    def root_order(self) -> int:
        """Order of the cyclotomic field hosting all character values.

        Twice the lcm of the factor moduli, so that square roots of values on
        the abelian part (needed on the b-coset) are still integral powers.
        """
        return 2 * math.lcm(*self.abelian.moduli)

    def __repr__(self) -> str:
        return f"<D2Group {self.name} of order {self.order}>"


def _in_canonical_order(
    factor_list: Sequence[tuple[int, int]], vec: Sequence[int], name: str
) -> list[int]:
    """``vec``, whose coordinates follow the given factor order, permuted
    along with the factors into the order ``make_abelian`` puts them in."""
    if len(vec) != len(factor_list):
        raise DimensionMismatchError(f"--{name} needs {len(factor_list)} coordinates")
    return [vec[i] for i in canonical_factor_order(factor_list)]


def general(
    factor_list: Sequence[tuple[int, int]], s: Sequence[int], y: Sequence[int] | None = None
) -> D2Group:
    """Extension by the diagonal twist t_i -> s_i * t_i with b^2 = y (default
    the identity).  The coordinates of s and y follow the given factor order."""
    group = make_abelian(factor_list)
    twist = make_involution(group, _in_canonical_order(factor_list, s, "s"))
    square = group.identity if y is None else _in_canonical_order(factor_list, y, "y")
    return D2Group(group, twist, square)


def dihedral(factor_list: Sequence[tuple[int, int]]) -> D2Group:
    """Generalized dihedral group: f = inversion, b^2 = identity."""
    group = make_abelian(factor_list)
    twist = make_involution(group, [m - 1 for m in group.moduli])
    return D2Group(group, twist, group.identity, name=f"Dih({group.describe()})")


def dicyclic(factor_list: Sequence[tuple[int, int]], y: Sequence[int]) -> D2Group:
    """Generalized dicyclic group: f = inversion, b^2 = y of order 2.

    The coordinates of y follow the given factor order and are permuted
    along with the factors during canonicalization.
    """
    group = make_abelian(factor_list)
    y_red = group.reduce(_in_canonical_order(factor_list, y, "y"))
    if y_red == group.identity or any((2 * t) % m != 0 for t, m in zip(y_red, group.moduli)):
        raise BadDicyclicYError(f"{list(y_red)} does not have order exactly 2")
    if group.lam != 1:
        # 2^lam - 1 involutions; the classical construction presumes exactly one.
        warnings.warn(
            f"{group.describe()} has {2 ** group.lam - 1} elements of order 2; "
            "the dicyclic construction is not unique",
            NonUniqueInvolutionWarning,
            stacklevel=2,
        )
    twist = make_involution(group, [m - 1 for m in group.moduli])
    return D2Group(group, twist, y_red, name=f"Dic({group.describe()}; y={list(y_red)})")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (p, e) pairs, ascending p."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def g2_group(n: int, s: int, t: int) -> D2Group:
    """Index-2 extension of a cyclic group: a^n = 1, b^2 = a^t, b*a*b^-1 = a^s.

    Requires s^2 = 1 (mod n), s != 1 (mod n), gcd(s, n) = 1, and
    t*(s-1) = 0 (mod n).  The cyclic group is stored in prime-power
    coordinates; the generator a corresponds to the all-ones vector.
    """
    if n < 3:
        raise BadG2ParamsError(f"need n >= 3, got {n}")
    s %= n
    t %= n
    if math.gcd(s, n) != 1:
        raise BadG2ParamsError(f"gcd({s}, {n}) != 1")
    if s == 1:
        raise BadG2ParamsError("s = 1 (mod n) makes the group abelian")
    if (s * s) % n != 1:
        raise BadG2ParamsError(f"{s}^2 != 1 (mod {n})")
    if (t * (s - 1)) % n != 0:
        raise BadG2ParamsError(f"t*(s-1) = {t}*{s - 1} != 0 (mod {n})")
    group = make_abelian(factorize(n))
    twist = make_involution(group, [s % m for m in group.moduli])
    y = tuple(t % m for m in group.moduli)
    return D2Group(group, twist, y, name=f"G2(n={n}, s={s}, t={t})")


T = TypeVar("T")


def per_group(build: Callable[[D2Group], T]) -> Callable[[D2Group], T]:
    """Make ``build(group)`` run once per group, on first use.

    The result is kept on the group and every later call returns the same
    object, so each artefact is shared by all its users and is read-only.
    The builder stays reachable as ``__wrapped__``, which is where each
    first call looks it up.
    """

    @functools.wraps(build)
    def cached(group: D2Group) -> T:
        memo = group._memo
        if build not in memo:
            memo[build] = cached.__wrapped__(group)
        return memo[build]

    return cached


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def orbit_minima(perms: Sequence[np.ndarray]) -> np.ndarray:
    """For every point of range(size), the smallest point of its orbit under
    the group generated by the given permutations of range(size).

    Union-find by hooking and pointer jumping (Shiloach and Vishkin,
    J. Algorithms 3, 1982): the edges x -> p[x] of one p whose roots differ
    hook the larger root onto the smaller, then root = root[root] until
    stable.  A hook only joins points of one orbit, so the result is exact
    once root[p] == root for every p, which is the only way out of the loop.
    The result has the dtype of the permutations.  A round frees the
    full-size image and mask once it has taken the moved roots from them,
    writes the smaller root of each edge in place, and keeps one root array
    between rounds.
    """
    root = np.arange(len(perms[0]), dtype=perms[0].dtype)
    while True:
        for p in perms:
            other = root[p]
            moved = other != root
            if moved.any():
                break
        else:
            return root
        b = other[moved]
        del other
        a = root[moved]
        del moved
        high = np.maximum(a, b)
        root[high] = np.minimum(a, b, out=a)
        del a, b, high
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        del jumped  # equal to root


@per_group
def translations(group: D2Group) -> tuple[np.ndarray, np.ndarray]:
    """The right translations rho_s: x -> x*s of element indices, one row per
    generator s, and the inversion iota: x -> x^-1, in int32, from
    ``group.mul``, ``group.inv`` and ``group.index`` alone, not the tables.
    Each call takes a whole coset at once, its coordinates as arrays with
    beta a scalar: 2k products and 2 inverses on coordinate arrays, one per
    coset, in element order.  The table-free oracles compose these."""
    coords = np.unravel_index(np.arange(group.n), group.abelian.moduli)
    halves = [(coords, 0), (coords, 1)]

    def indices(images) -> np.ndarray:
        return np.concatenate([group.index(g) for g in images]).astype(np.int32)

    rho = np.stack([indices(group.mul(x, s) for x in halves) for s in group.generators()])
    iota = indices(group.inv(x) for x in halves)
    return read_only(rho), read_only(iota)


@per_group
def conjugations(group: D2Group) -> np.ndarray:
    """The conjugations x -> s^-1 x s of element indices, one int32 row per
    generator s, composed from ``translations`` as rho_s[iota[rho_s[iota]]]
    and not read from the tables.  Their orbits are the conjugacy classes."""
    rho, iota = translations(group)
    return read_only(np.take_along_axis(rho, iota[rho[:, iota]], axis=1))


@per_group
def conjugation_minima(group: D2Group) -> np.ndarray:
    """The ``orbit_minima`` of ``conjugations``: each element's class minimum,
    read neither from the tables nor from the closed form."""
    return read_only(orbit_minima(conjugations(group)))


def index_tables(group: D2Group, left=None, right=None) -> np.ndarray:
    """The read-only int32 block of left[i] times right[j] over element
    indices, built afresh and not kept; a missing set is all of G, and
    ``left`` lists its elements of A first."""
    every = np.arange(group.order)
    return read_only(_products(group, every if left is None else left,
                               every if right is None else right))


def inverses(group: D2Group) -> np.ndarray:
    """The read-only int32 index of every element's inverse, off the normal
    form: (x, 0)^-1 = (-x, 0) and (x, 1)^-1 = (-f(x) - y, 1), one coordinate
    at a time.  The elements of A come first, as a left set must list them."""
    moduli = group.abelian.moduli
    coords = np.unravel_index(np.arange(group.n), moduli)
    negated = np.ravel_multi_index([-x % m for x, m in zip(coords, moduli)], moduli)
    twisted = [(-s * x - y) % m for x, s, y, m in zip(coords, group.twist.s, group.square, moduli)]
    coset = np.ravel_multi_index(twisted, moduli)
    return read_only(np.concatenate([negated, coset + group.n]).astype(np.int32))


def _products(group: D2Group, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The int32 block of left[i] * right[j] from the normal form, one
    coordinate at a time: (x, beta) * (x', gamma) has coordinates
    x_j + f^beta(x')_j + beta * gamma * y_j mod m_j and coset bit
    beta + gamma mod 2.  The right summand f^beta(x')_j + beta * gamma * y_j
    is reduced mod m_j once per column, so each cell adds two summands in
    [0, m_j) and one conditional subtraction, min(t, t - m_j) read as uint32,
    reduces their sum without an integer division.  The rows go in chunks
    of about 2^16 cells: a chunk's coordinates are summed in one int32
    temporary of its size and added into the block in place, so no
    temporary grows with the block."""
    n, moduli = group.n, group.abelian.moduli
    weights = [math.prod(moduli[j + 1:]) for j in range(len(moduli))]
    split = int(np.count_nonzero(left < n))  # the rows with beta = 0 come first
    if (left[:split] >= n).any():
        raise ValueError("the left index set lists a coset element before an element of A")
    xs, ys = ([x.astype(np.int32) for x in np.unravel_index(i % n, moduli)] for i in (left, right))
    gamma = (right >= n).astype(np.int32)
    twisted = [(s * y + gamma * sq) % m
               for y, s, sq, m in zip(ys, group.twist.s, group.square, moduli)]

    mult = np.empty((len(left), len(right)), dtype=np.int32)
    step = max(1, (1 << 16) // max(1, len(right)))
    term = np.empty((min(step, len(left)), len(right)), dtype=np.int32)
    for start, stop, summands, bits in ((0, split, ys, gamma * n),
                                        (split, len(left), twisted, (1 - gamma) * n)):
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            out, t = mult[lo:hi], term[:hi - lo]
            out[...] = bits
            for x, y, m, w in zip(xs, summands, moduli, weights):
                np.add(x[lo:hi, None], y, out=t)
                u = t.view(np.uint32)
                np.minimum(u, u - np.uint32(m), out=u)
                t *= w
                out += t
    return mult
