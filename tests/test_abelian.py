"""Abelian-group arithmetic, involutions, and the gcd invariants.

The fixed-point and twisted-commutator predicates are checked against
exhaustive scans that recompute both sets directly from the automorphism.
"""

import math
import random
from types import MemberDescriptorType

import pytest

from terw import (
    DimensionMismatchError,
    IdentityAutomorphismError,
    NonPrimeError,
    NotInvolutionError,
    OrderTooSmallError,
    fixed_data,
    make_abelian,
    make_involution,
)
from terw.abelian import AbelianGroup, square_roots_of_unity


def brute_fixed_set(group, twist):
    return {a for a in group.elements() if twist.apply(a) == a}


def brute_twisted_set(group, twist):
    return {group.mul(twist.apply(a), group.inv(a)) for a in group.elements()}


def test_make_abelian_single_factor():
    g = make_abelian([(2, 2)])
    assert g.moduli == (4,)
    assert g.lam == 1 and g.mu == 0
    assert g.order == 4


def test_make_abelian_reorders_even_first():
    g = make_abelian([(3, 1), (2, 2)])
    assert [(f.p, f.e) for f in g.factors] == [(2, 2), (3, 1)]
    assert g.order == 12


def test_make_abelian_rejects_composite():
    with pytest.raises(NonPrimeError):
        make_abelian([(4, 1)])


def test_make_abelian_rejects_tiny():
    with pytest.raises(OrderTooSmallError):
        make_abelian([(2, 1)])


def test_arithmetic_c4():
    g = make_abelian([(2, 2)])
    assert g.mul((3,), (2,)) == (1,)
    assert g.inv((1,)) == (3,)


def test_arithmetic_c2_c3():
    g = make_abelian([(2, 1), (3, 1)])
    assert g.mul((1, 2), (1, 2)) == (0, 1)


def test_dimension_mismatch():
    g = make_abelian([(2, 2)])
    with pytest.raises(DimensionMismatchError):
        g.mul((1, 0), (1,))


def test_moduli_are_built_once_and_kept_out_of_equality():
    g = make_abelian([(3, 1), (2, 2)])
    assert g.moduli is g.moduli == (4, 3)
    h = AbelianGroup(factors=g.factors)
    # a slot, filled once by the constructor, that equality, hashing and repr
    # never read: h with its moduli blanked still equals g
    assert isinstance(vars(AbelianGroup)["moduli"], MemberDescriptorType)
    h.moduli = None
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


def element(group, idx):
    """The element at mixed-radix index idx, last coordinate fastest."""
    out = []
    for m in reversed(group.moduli):
        idx, r = divmod(idx, m)
        out.append(r)
    return tuple(reversed(out))


def test_enumeration_roundtrip():
    g = make_abelian([(2, 2), (3, 1)])
    elems = list(g.elements())
    assert len(elems) == 12
    assert elems[0] == (0, 0)
    # last coordinate fastest
    assert elems[1] == (0, 1)
    for i, a in enumerate(elems):
        assert g.index(a) == i
        assert element(g, i) == a


def test_involution_validation():
    c4 = make_abelian([(2, 2)])
    assert make_involution(c4, [3]).s == (3,)
    c8 = make_abelian([(2, 3)])
    assert make_involution(c8, [3]).s == (3,)
    with pytest.raises(IdentityAutomorphismError):
        make_involution(c4, [1])
    with pytest.raises(NotInvolutionError):
        make_involution(c4, [2])


def test_fixed_data_matches_brute_force_named():
    # (factors, s, expected d_vec, expected fixed set, expected twisted set)
    cases = [
        ([(2, 2)], [3], (2,), {(0,), (2,)}, {(0,), (2,)}),
        ([(3, 1)], [2], (1,), {(0,)}, {(0,), (1,), (2,)}),
        ([(2, 3)], [3], (2,), {(0,), (4,)}, {(0,), (2,), (4,), (6,)}),
    ]
    for factors, s, d_vec, fixed_set, twisted_set in cases:
        g = make_abelian(factors)
        f = make_involution(g, s)
        fx = fixed_data(g, f)
        assert fx.d_vec == d_vec
        assert brute_fixed_set(g, f) == fixed_set
        assert brute_twisted_set(g, f) == twisted_set
        assert fixed_set == {
            a for a in g.elements() if all(t % n == 0 for t, n in zip(a, fx.n_vec))
        }
        assert twisted_set == {
            a for a in g.elements() if all(t % d == 0 for t, d in zip(a, fx.d_vec))
        }


def test_fixed_data_matches_brute_force_random():
    rng = random.Random(7)
    for _ in range(40):
        factors = []
        while not factors or math.prod(p**e for p, e in factors) < 3:
            factors = [
                (p, rng.randint(1, 3) if p == 2 else 1)
                for p in rng.sample([2, 3, 5, 7], rng.randint(1, 3))
            ]
        g = make_abelian(factors)
        choices = [square_roots_of_unity(m) for m in g.moduli]
        if all(len(c) == 1 for c in choices):
            continue
        s = [rng.choice(c) for c in choices]
        if all(v == 1 for v in s):
            continue
        f = make_involution(g, s)
        fx = fixed_data(g, f)
        fixed = brute_fixed_set(g, f)
        twisted = brute_twisted_set(g, f)
        assert {a for a in g.elements() if all(t % n == 0 for t, n in zip(a, fx.n_vec))} == fixed
        assert {a for a in g.elements() if all(t % d == 0 for t, d in zip(a, fx.d_vec))} == twisted
        assert len(fixed) == fx.d
        assert len(twisted) == fx.twisted_size
        assert fx.d * fx.twisted_size == g.order
        # f is an automorphism of order 2
        for _ in range(50):
            x = element(g, rng.randrange(g.order))
            y = element(g, rng.randrange(g.order))
            assert f.apply(g.mul(x, y)) == g.mul(f.apply(x), f.apply(y))
            assert f.apply(f.apply(x)) == x


def test_d_matches_gcd_product():
    g = make_abelian([(2, 3), (3, 2)])
    f = make_involution(g, [3, 8])
    fx = fixed_data(g, f)
    assert fx.d == math.gcd(2, 8) * math.gcd(7, 9)
    assert fx.d == len(brute_fixed_set(g, f))
