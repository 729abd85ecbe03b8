"""Enumerating and sampling group instances for sweeps and verification.

Families are enumerated exhaustively: every abelian group of a given order
(partitions of each prime exponent), every valid square for the dicyclic
construction, every (n, s, t) triple for the cyclic-subgroup family.
Random general instances draw a factored order, a nontrivial diagonal
square root of unity per coordinate, and a twist-fixed square, with a
seeded generator for reproducibility.
"""

from __future__ import annotations

import random
import warnings
from math import gcd
from typing import Iterator

from .abelian import fixed_data, make_abelian, make_involution, square_roots_of_unity
from .errors import IdentityAutomorphismError
from .groups import D2Group, NonUniqueInvolutionWarning, dicyclic, dihedral, factorize, g2_group

FactorList = list[tuple[int, int]]


def _partitions(n: int, cap: int | None = None) -> Iterator[list[int]]:
    if n == 0:
        yield []
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def abelian_factorizations(order: int) -> list[FactorList]:
    """All abelian groups of the given order, as canonical factor lists."""
    out: list[FactorList] = [[]]
    for p, e in factorize(order):
        extended = []
        for part in _partitions(e):
            for base in out:
                extended.append(base + [(p, exp) for exp in part])
        out = extended
    return out


def dihedral_instances(orders: Iterator[int] | list[int]) -> list[D2Group]:
    """Every generalized dihedral group with |A| in the given orders.

    Abelian groups of exponent 2 are skipped: inversion fixes them pointwise.
    """
    groups = []
    for order in orders:
        for factors in abelian_factorizations(order):
            try:
                groups.append(dihedral(factors))
            except IdentityAutomorphismError:
                continue
    return groups


def dicyclic_instances(orders: Iterator[int] | list[int]) -> list[D2Group]:
    """Every generalized dicyclic group (A, y) with |A| in the given orders,
    including the ambiguous multi-involution ones (warnings suppressed)."""
    groups = []
    for order in orders:
        if order % 2:
            continue
        for factors in abelian_factorizations(order):
            group = make_abelian(factors)
            canonical = [(f.p, f.e) for f in group.factors]
            involutions = [
                y
                for y in group.elements()
                if y != group.identity
                and all((2 * t) % m == 0 for t, m in zip(y, group.moduli))
            ]
            for y in involutions:
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", NonUniqueInvolutionWarning)
                        groups.append(dicyclic(canonical, y))
                except IdentityAutomorphismError:
                    continue
    return groups


def g2_parameter_triples(max_n: int) -> list[tuple[int, int, int]]:
    """All (n, s, t) with 3 <= n <= max_n satisfying the defining congruences."""
    out = []
    for n in range(3, max_n + 1):
        for s in range(2, n):
            if gcd(s, n) != 1 or (s * s) % n != 1:
                continue
            for t in range(n):
                if (t * (s - 1)) % n == 0:
                    out.append((n, s, t))
    return out


def g2_instances(max_n: int) -> list[D2Group]:
    return [g2_group(n, s, t) for n, s, t in g2_parameter_triples(max_n)]


def random_general_instance(rng: random.Random, max_abelian_order: int) -> D2Group:
    """One random valid (A, s, y) instance with |A| <= max_abelian_order."""
    while True:
        order = rng.randint(3, max_abelian_order)
        group = make_abelian(rng.choice(abelian_factorizations(order)))
        roots = [square_roots_of_unity(m) for m in group.moduli]
        if all(len(r) == 1 for r in roots):
            continue  # exponent-2 group, no nontrivial diagonal twist
        s = [rng.choice(r) for r in roots]
        if all(si == 1 for si in s):
            # force at least one nontrivial coordinate
            idx = rng.choice([i for i, r in enumerate(roots) if len(r) > 1])
            s[idx] = rng.choice([v for v in roots[idx] if v != 1])
        twist = make_involution(group, s)
        d_vec = fixed_data(group, twist).d_vec
        y = tuple(
            (m // d) * rng.randrange(d) for m, d in zip(group.moduli, d_vec)
        )  # random fixed point of the twist
        return D2Group(group, twist, y)


def random_general_instances(
    count: int, max_group_order: int, seed: int = 0
) -> list[D2Group]:
    """Reproducible batch of random instances with |G| <= max_group_order."""
    rng = random.Random(seed)
    return [
        random_general_instance(rng, max_group_order // 2) for _ in range(count)
    ]
