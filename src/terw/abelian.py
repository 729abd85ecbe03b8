"""Finite abelian groups as products of prime-power cyclic factors.

A group is described by an ordered list of factors C_{p^e}; elements are
exponent vectors stored reduced mod each factor modulus, written additively.
On top of that sit order-2 coordinate-diagonal automorphisms
f(t_1, ..., t_k) = (s_1*t_1, ..., s_k*t_k) and the two subgroups they induce:
the fixed points and the twisted commutators {f(x) - x}.  The per-factor
invariants d_i = gcd(s_i - 1, p_i^{e_i}) and n_i = p_i^{e_i} / d_i drive every
closed form downstream, so they are computed once and carried around.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import product as _iterproduct
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatchError,
    IdentityAutomorphismError,
    InvalidGroupError,
    NonPrimeError,
    NotInvolutionError,
    OrderTooSmallError,
)

AbElem = tuple[int, ...]


def is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases up to 37, which is exact for
    n < 2^64 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    # each base has b^d = 1 or b^(d 2^i) = -1 for some i < r
    return all(
        (x := pow(b, d, n)) == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(r))
        for b in bases
    )


class CyclicFactor(namedtuple("CyclicFactor", "p e m")):
    """One cyclic factor C_m with m = p^e: ``p``, ``e`` and ``m`` are ints."""

    __slots__ = ()


class AbelianGroup:
    """Product of prime-power cyclic factors, even-prime factors first.

    ``moduli``, the factor orders, is built once beside ``factors``;
    equality, hashing and repr read ``factors`` alone.
    """

    __slots__ = ("factors", "moduli")

    def __init__(self, factors: tuple[CyclicFactor, ...]):
        self.factors = factors
        self.moduli = tuple(f.m for f in factors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"AbelianGroup(factors={self.factors!r})"

    @property
    def lam(self) -> int:
        """Number of factors with p = 2."""
        return sum(1 for f in self.factors if f.p == 2)

    @property
    def mu(self) -> int:
        """Number of factors with odd p."""
        return len(self.factors) - self.lam

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def identity(self) -> AbElem:
        return (0,) * len(self.factors)

    def reduce(self, t: Sequence[int]) -> AbElem:
        if len(t) != len(self.factors):
            raise DimensionMismatchError(
                f"expected {len(self.factors)} coordinates, got {len(t)}"
            )
        return tuple(v % m for v, m in zip(t, self.moduli))

    def mul(self, x: AbElem, y: AbElem) -> AbElem:
        """x + y; a coordinate may be an ndarray, and the sum broadcasts."""
        if len(x) != len(self.factors) or len(y) != len(self.factors):
            raise DimensionMismatchError("element has wrong number of coordinates")
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def inv(self, x: AbElem) -> AbElem:
        """-x; a coordinate may be an ndarray."""
        if len(x) != len(self.factors):
            raise DimensionMismatchError("element has wrong number of coordinates")
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def elements(self) -> Iterator[AbElem]:
        """All elements in mixed-radix order, last coordinate fastest."""
        return _iterproduct(*(range(m) for m in self.moduli))

    def index(self, x: AbElem) -> int:
        """The mixed-radix index, last coordinate fastest; an array of
        indices where a coordinate is an ndarray."""
        idx = 0
        for v, m in zip(x, self.moduli):
            idx = idx * m + v
        return idx

    def describe(self) -> str:
        return " x ".join(f"C{f.m}" for f in self.factors) if self.factors else "1"


def canonical_factor_order(factors: Sequence[tuple[int, int]]) -> list[int]:
    """Permutation putting p=2 factors first, then odd primes, exponents ascending."""
    return sorted(range(len(factors)), key=lambda i: (factors[i][0] != 2, factors[i][0], factors[i][1]))


def make_abelian(factor_list: Sequence[tuple[int, int]]) -> AbelianGroup:
    """Validate and canonically order a list of (p, e) prime-power factors.
    The order 2|A| must print within Python's int digit limit, so its digits
    are summed as logarithms before any power is formed."""
    if not factor_list:
        raise OrderTooSmallError("a group needs at least one cyclic factor")
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    total = math.log10(2)
    for p, e in factor_list:
        if p >= 2**64:
            raise NonPrimeError(f"{p} is not below 2^64, where the primality test is exact")
        if not is_prime(p):
            raise NonPrimeError(f"{p} is not prime")
        if e < 1:
            raise NonPrimeError(f"exponent must be >= 1, got {e}")
        total += e * math.log10(p)
        if total >= digits:
            raise InvalidGroupError(
                f"the factor {[p, e]} takes the group order past {digits} digits")
    order = canonical_factor_order(factor_list)
    factors = tuple(CyclicFactor(p=factor_list[i][0], e=factor_list[i][1], m=factor_list[i][0] ** factor_list[i][1]) for i in order)
    group = AbelianGroup(factors=factors)
    if group.order < 3:
        raise OrderTooSmallError(f"group order must be >= 3, got {group.order}")
    return group


class Involution(namedtuple("Involution", "s moduli")):
    """Order-2 coordinate-diagonal automorphism t_i -> s_i * t_i mod m_i:
    ``s`` and ``moduli`` are tuple[int, ...]."""

    __slots__ = ()

    def apply(self, x: AbElem) -> AbElem:
        """f(x); a coordinate may be an ndarray."""
        return tuple((si * t) % m for si, t, m in zip(self.s, x, self.moduli))


def make_involution(group: AbelianGroup, s_vector: Sequence[int]) -> Involution:
    """Validate s as a non-identity diagonal automorphism of order 2."""
    moduli = group.moduli
    if len(s_vector) != len(moduli):
        raise DimensionMismatchError(
            f"expected {len(moduli)} coordinates, got {len(s_vector)}"
        )
    s = tuple(si % m for si, m in zip(s_vector, moduli))
    for si, m in zip(s, moduli):
        if (si * si) % m != 1 % m:
            raise NotInvolutionError(f"{si}^2 != 1 (mod {m})")
    if all(si == 1 % m for si, m in zip(s, moduli)):
        raise IdentityAutomorphismError("twist fixes every element; the extension would be abelian")
    return Involution(s=s, moduli=moduli)


class FixedData(namedtuple("FixedData", "d_vec n_vec d")):
    """Per-factor gcd data for an involution: d_i = gcd(s_i - 1, m_i), n_i = m_i / d_i.

    The fixed subgroup consists of vectors with n_i | t_i (size d = prod d_i);
    the twisted-commutator subgroup {f(x) - x} of vectors with d_i | t_i
    (size prod n_i).  ``d_vec`` and ``n_vec`` are tuple[int, ...], ``d`` an int.
    """

    __slots__ = ()

    @property
    def twisted_size(self) -> int:
        return math.prod(self.n_vec)


def fixed_data(group: AbelianGroup, twist: Involution) -> FixedData:
    """Compute the gcd invariants of a validated involution."""
    d_vec = tuple(math.gcd((si - 1) % m, m) for si, m in zip(twist.s, group.moduli))
    n_vec = tuple(m // d for m, d in zip(group.moduli, d_vec))
    return FixedData(d_vec=d_vec, n_vec=n_vec, d=math.prod(d_vec))


def square_roots_of_unity(m: int) -> list[int]:
    """All s in [0, m) with s^2 = 1 (mod m), for a prime-power modulus m."""
    return [s for s in range(m) if (s * s) % m == 1]
