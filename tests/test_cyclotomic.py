"""Exact reduction of root-of-unity sums mod the cyclotomic polynomial, the
embeddings into F_p, and the tests' own entry helpers."""

import cmath
import math

import numpy as np
import pytest
from dense_reference import evaluate, multiply, normalise
from hypothesis import given, settings
from hypothesis import strategies as st

from terw import NonPrimeError, dihedral, make_abelian
from terw.abelian import is_prime
from terw.cyclotomic import (
    CACHED_RADICALS,
    _power_reduction,
    _power_terms,
    cyclotomic_poly,
    embedding,
    integer_values,
    power_basis_coordinates,
    reduced_sums,
)
from terw.groups import factorize

ORDERS = [6, 12, 30, 60, 72, 384, 840]


def test_exponent_addition():
    sq = multiply(4, {1: 1}, {1: 1})
    assert sq == {2: 1}
    assert abs(evaluate(4, sq) + 1) < 1e-12


def test_primitive_third_roots_sum_to_minus_one():
    assert abs(evaluate(3, {1: 1, 2: 1}) + 1.0) < 1e-12
    value, exact = integer_values(np.array([0, 1, 1]), 3)
    assert exact and value == -1


def test_fold_and_prune():
    assert normalise(6, [(1, 2), (7, -2)]) == {}  # 7 = 1 mod 6, cancels
    assert normalise(12, [(3, 2), (-9, 1), (0, 0)]) == {3: 3}
    assert list(normalise(12, [(5, 1), (0, 1), (5, -1), (5, 2)])) == [0, 5]


def test_multiplication_distributes():
    a, b = {1: 1, 3: -2}, {2: 4, 0: 1}
    lhs = evaluate(10, multiply(10, a, b))
    rhs = evaluate(10, a) * evaluate(10, b)
    assert abs(lhs - rhs) < 1e-12


def test_is_integer_is_exact():
    # each sum as a dense row of coefficients, Python ints where int64 would overflow
    cases = [
        (5, {0: 2}, 2),
        (6, {0: 1, 2: 1, 4: 1}, 0),  # 1 + z3 + z3^2
        (6, {1: 1, 5: 1}, 1),  # 2 cos(60 deg)
        (8, {1: 1, 7: 1}, None),  # z8 + z8^-1 = sqrt 2
        (5, {1: 1, 4: 1}, None),  # 2 cos(72 deg), irrational
        (4, {0: 10**30, 2: 1}, 10**30 - 1),  # no int64 overflow
        (9, {}, 0),
    ]
    for order, entry, want in cases:
        dense = np.zeros(order, dtype=object)
        dense[list(entry)] = list(entry.values())
        value, exact = integer_values(dense, order)
        assert (value if exact else None) == want, (order, entry)


def test_eval_matches_direct_formula():
    assert abs(evaluate(12, {5: 3}) - 3 * cmath.exp(2j * cmath.pi * 5 / 12)) < 1e-12


def test_reduction_tables_are_kept_for_a_few_radicals_only():
    # a sweep meets hundreds of radicals, each table rad x phi(rad) int64; the
    # last CACHED_RADICALS stay, and a radical met again gives the same coordinates
    radicals = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 30, 42]
    assert len(radicals) > CACHED_RADICALS
    rng = np.random.default_rng(7)
    blocks = {rad: rng.integers(-3, 4, (3, 4 * rad)) for rad in radicals}
    first = {rad: power_basis_coordinates(blocks[rad], 4 * rad) for rad in radicals}
    sums = {rad: reduced_sums(4 * rad, (np.zeros(4 * rad, dtype=np.int64), np.arange(4 * rad),
                                        blocks[rad][0])) for rad in radicals}
    assert _power_reduction.cache_info().currsize == CACHED_RADICALS
    assert _power_terms.cache_info().currsize == CACHED_RADICALS
    for rad in radicals:
        assert np.array_equal(power_basis_coordinates(blocks[rad], 4 * rad), first[rad])
        key, coord, value = sums[rad]
        assert not key.any() and np.array_equal(value, first[rad][0, coord])
        assert not np.delete(first[rad][0], coord).any()


@pytest.mark.parametrize("order", ORDERS)
def test_power_basis_coordinates_evaluate_to_the_root(order):
    # the canonical form of z^e, evaluated at z, is z^e again
    coords = power_basis_coordinates(np.eye(order, dtype=np.int64), order)
    assert coords.shape == (order, len(cyclotomic_poly(order)) - 1)
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    assert np.abs(coords @ roots[:coords.shape[1]] - roots).max() < 1e-9
    assert not power_basis_coordinates(np.ones(order, dtype=np.int64), order).any()


@pytest.mark.parametrize("order", ORDERS)
def test_cyclotomic_poly_matches_sympy(order):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    want = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs())]
    assert cyclotomic_poly(order).tolist() == want


def test_integer_values_on_a_block():
    order = 12
    sums = np.zeros((4, order), dtype=np.int64)
    sums[0, [0, 4, 8]] = 1  # 1 + z3 + z3^2 = 0
    sums[1, 6] = -3  # -3 * (-1) = 3
    sums[2, [1, 11]] = 1  # 2 cos(30 deg) = sqrt 3
    sums[3, [2, 10]] = 1  # 2 cos(60 deg) = 1
    values, exact = integer_values(sums, order)
    assert exact.tolist() == [True, True, False, True]
    assert values[exact].tolist() == [0, 3, 1]


@pytest.mark.parametrize("order", [2, 64, 1024, 82, 214, *ORDERS])
def test_reduced_sums_match_the_dense_reduction(order):
    # the sparse sums of two parts, with exponents out of range and
    # coefficients past 2^32, against power_basis_coordinates of the dense
    # block; orders 2^k fold each power into one term, the others expand
    rng = np.random.default_rng(order)
    keys = rng.integers(0, 40, (2, 300))
    exps = rng.integers(-3 * order, 3 * order, (2, 300))
    coeffs = rng.integers(-3, 4, (2, 300)) << 40
    dense = np.zeros((40, order), dtype=np.int64)
    np.add.at(dense, (keys, exps % order), coeffs)
    want = power_basis_coordinates(dense, order)
    got = np.zeros_like(want)
    key, coord, value = reduced_sums(order, *zip(keys, exps, coeffs))
    got[key, coord] = value
    assert np.array_equal(got, want) and value.all()
    assert np.all(np.diff(key * want.shape[1] + coord) > 0)
    empty = np.zeros(0, dtype=np.int64)
    assert all(a.size == 0 for a in reduced_sums(order, (empty, empty, empty)))


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    # 46657 and 75361 are Carmichael numbers; 25326001 is a strong
    # pseudoprime to the bases 2, 3 and 5, caught by 7
    for n in [*range(3000), 46657, 75361, 25326001, 2**31 - 1, 2**31 - 3]:
        assert is_prime(n) == _trial_division(n), n
    # beyond trial division: 3215031751 is a strong pseudoprime to the bases
    # 2, 3, 5 and 7, and 3825123056546413051 to every prime base up to 23
    for factors in [(151, 751, 28351), (149491, 747451, 34233211)]:
        assert not is_prime(math.prod(factors)), factors
    for p in [2**61 - 1, 10**18 + 3, 2**64 - 59]:  # 2^64 - 59 is the largest prime below 2^64
        assert is_prime(p), p
    with pytest.raises(NonPrimeError, match=r"not below 2\^64"):
        make_abelian([(2**64 + 1, 1)])


def check_embedding(order, index=0):
    p, powers, units = embedding.__wrapped__(order, index)  # not kept
    omega = int(powers[1])
    assert powers.tolist() == [pow(omega, e, p) for e in range(order + 1)]
    assert p < 2**31 and p % order == 1 % order and _trial_division(p), order
    assert pow(omega, order, p) == 1
    assert all(pow(omega, order // q, p) != 1 for q, _ in factorize(order)), order
    reached, frontier = {1 % order}, [1 % order]  # the subgroup the units generate
    while frontier:
        frontier = {x * u % order for x in frontier for u in units} - reached
        reached |= frontier
    assert reached == {u for u in range(order) if math.gcd(u, order) == 1}, order


# every group of the benchmark has |G| <= 384, and its root order divides |G|; the ladder
# Dih(C8) ... Dih(C4096) reaches |G| = 8192
BENCHMARK_AND_LADDER_ORDERS = sorted(
    {*range(1, 385), *(dihedral([(2, k)]).root_order for k in range(3, 13))})


def test_embedding_on_the_benchmark_and_ladder_orders():
    assert max(BENCHMARK_AND_LADDER_ORDERS) == 2**13
    for order in BENCHMARK_AND_LADDER_ORDERS:
        check_embedding(order)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**13))
def test_embedding(order):
    check_embedding(order)


def test_successive_embeddings_count_down_the_primes():
    # the certificate's primes past the first: each the next prime p = 1 (mod M) below the one
    # before, none skipped, each with its omega of order M
    for order in (16, 72, 2310, 4096):
        primes = [embedding(order, index)[0] for index in range(4)]
        assert primes[0] == embedding(order)[0]
        for index, (hi, lo) in enumerate(zip(primes, primes[1:]), 1):
            assert lo < hi and not any(map(_trial_division, range(lo + order, hi, order)))
            check_embedding(order, index)
    # 2^30 + 1 is composite and the next candidate is 1: no prime, so no endless count down
    with pytest.raises(ValueError, match=r"^fewer than 1 primes p = 1 \(mod 1073741824\)"):
        embedding.__wrapped__(2**30)
