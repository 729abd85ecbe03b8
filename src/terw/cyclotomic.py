"""Exact arithmetic on integer sums of roots of unity, as coefficient arrays.

A sum over root order M is an integer combination of the M-th roots of
unity; the library keeps such sums as integer arrays (exponents and
coefficients, or dense (..., M) coefficient blocks) and never as objects.
Identities that cancel across different exponents (vanishing sums,
integrality) are decided exactly by reducing mod the cyclotomic polynomial
Phi_M: the reduced coordinates in the power basis 1, z, ..., z^(phi(M)-1)
of Q(z_M) are unique, so a sum is the integer n iff they are
(n, 0, ..., 0).  ``power_basis_coordinates`` does the reduction for whole
(..., M) integer coefficient blocks at once, using Phi_M(x) = Phi_rad(x^q)
with rad the product of the primes dividing M and q = M / rad;
``reduced_sums`` does it for sparse lists of terms.  The reduction tables
are kept for the last ``CACHED_RADICALS`` radicals and orders only: a sweep
meets hundreds, and each table is rad x phi(rad) int64.

Both reductions stay, each where it is the faster: dense (rows, M) blocks
through ``integer_values`` for sums with about 2l terms on each key (the
rows of ``CharacterTable.class_sums``), and ``reduced_sums`` for the
per-entry forms of ``CharacterTable.to_text``, where a dense block is mostly
zeros.  Routing the class sums through ``reduced_sums`` as well made each
sum 2.5-5.4 times slower on the ``formula`` benchmark's instances (|G|
128-384), and a trial of it read 7-10 % fewer ``formula`` groups per
reference second.

``embedding`` maps Z[z_M] onto F_p, z -> omega of order M, for the primes
p = 1 (mod M) below 2^31, largest first, with generators of the units mod M
for the Galois action, and ``coordinate_bound`` bounds the power-basis
coordinates of one root: ``characters.verify_orthogonality`` decides its
clauses under as many of these embeddings as that bound needs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .abelian import is_prime
from .groups import factorize, read_only

CACHED_RADICALS = 8


# -- exact reduction mod Phi_M ---------------------------------------------------


def cyclotomic_poly(n: int) -> np.ndarray:
    """Integer coefficients of Phi_n, lowest degree first.

    Phi_n(x) = Phi_rad(x^q) with rad the product of the primes dividing n and
    q = n / rad, and Phi_rad(x) = prod over d | rad of (x^d - 1)^mu(rad/d):
    the factors with mu = 1 are multiplied out, then each factor with
    mu = -1 is divided out exactly.
    """
    primes = [p for p, _ in factorize(n)]
    rad = math.prod(primes)
    mu = {1: 1}  # mu(d) for the divisors d of rad
    for p in primes:
        mu.update({d * p: -m for d, m in list(mu.items())})
    poly = np.ones(1, dtype=np.int64)
    for d in mu:
        if mu[rad // d] == 1:
            out = np.zeros(len(poly) + d, dtype=np.int64)
            out[d:] += poly
            out[:len(poly)] -= poly
            poly = out
    for d in mu:
        if mu[rad // d] == -1:
            # poly = Q * (x^d - 1) gives Q[i] = Q[i - d] - poly[i]
            size = len(poly) - d
            head = np.zeros(-(-size // d) * d, dtype=np.int64)
            head[:size] = poly[:size]
            poly = -np.cumsum(head.reshape(-1, d), axis=0).ravel()[:size]
    q = n // rad
    spread = np.zeros((len(poly) - 1) * q + 1, dtype=np.int64)
    spread[::q] = poly
    return spread


@functools.lru_cache(maxsize=CACHED_RADICALS)
def _power_reduction(rad: int) -> np.ndarray:
    """R[j] = coefficients of y^j mod Phi_rad(y) for 0 <= j < rad (read-only)."""
    phi = cyclotomic_poly(rad)
    deg = len(phi) - 1
    red = np.zeros((rad, deg), dtype=np.int64)
    red[:deg] = np.eye(deg, dtype=np.int64)
    for j in range(deg, rad):
        # y * y^(j-1), with y^deg = -(phi[0] + ... + phi[deg-1] y^(deg-1))
        red[j, 1:] = red[j - 1, :-1]
        red[j] -= red[j - 1, -1] * phi[:-1]
    return read_only(red)


def power_basis_coordinates(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Coordinates of sum_e coeffs[..., e] z^e, z = exp(2 pi i / order), in
    the power basis 1, z, ..., z^(phi(order)-1) of Q(z); exact.  With
    e = j*q + r (0 <= r < q), z^e = (z^q)^j z^r and z^q is a primitive rad-th
    root, so the (rad, q) block of coefficients is multiplied along the rad
    axis by the reduction matrix of y^j mod Phi_rad(y).  Coordinate k*q + r
    belongs to z^(k*q + r)."""
    rad = math.prod(p for p, _ in factorize(order))
    blocks = coeffs.reshape(*coeffs.shape[:-1], rad, order // rad)
    return (_power_reduction(rad).T @ blocks).reshape(*coeffs.shape[:-1], -1)


@functools.lru_cache(maxsize=CACHED_RADICALS)
def _power_terms(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(start, coords, values, phi): z^e = sum of values[t] z^coords[t] over start[e] <= t <
    start[e + 1] in the phi-dimensional basis of ``power_basis_coordinates``."""
    rad = math.prod(p for p, _ in factorize(order))
    q, red = order // rad, _power_reduction(rad)
    e, k = np.nonzero(red[np.arange(order) // q])
    start = np.searchsorted(e, np.arange(order + 1))
    return read_only(start), read_only(k * q + e % q), read_only(red[e // q, k]), red.shape[1] * q


def reduced_sums(order: int, *parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sums s_q = sum of c z^e over the terms (q, e, c) of ``parts``, integer (keys >= 0,
    exponents, coefficients) triples with coefficients in the shape the others broadcast to, as
    sorted (keys, coordinates, values) of their nonzero power-basis coordinates: s_q = 0 exactly
    when q is missing.  z^e expands by ``_power_terms`` (z^(order/2) = -1 folds a power of 2) and
    one sort of the codes q phi + coordinate collects them, with no dense (keys, order) block."""
    start, coords, values, phi = _power_terms(order)
    codes = np.concatenate([(q * order + e % order).ravel() for q, e, _ in parts])
    coeffs = np.concatenate([part[2].ravel() for part in parts])
    keys, exps = np.divmod(codes[live := coeffs != 0], order)
    coeffs = coeffs[live]
    if len(coords) > order:  # some powers have several coordinates
        n = start[exps + 1] - start[exps]
        exps = np.repeat(start[exps] - np.cumsum(n) + n, n) + np.arange(n.sum())
        keys, coeffs = np.repeat(keys, n), np.repeat(coeffs, n)
    codes, coeffs = keys * phi + coords[exps], coeffs * values[exps]
    perm = codes.argsort()
    codes = codes[perm]
    starts = np.concatenate((codes[:1] >= 0, codes[1:] != codes[:-1])).nonzero()[0]
    sums = np.add.reduceat(coeffs[perm], starts)
    keys, coordinates = np.divmod(codes[starts[sums != 0]], phi)
    return keys, coordinates, sums[sums != 0]


@functools.cache
def coordinate_bound(order: int) -> int:
    """The largest |coordinate| of any z^e in the basis of ``power_basis_coordinates``: a sum
    of terms c z^e has every coordinate at most this times sum |c|."""
    return int(np.abs(_power_reduction(math.prod(p for p, _ in factorize(order)))).max())


# -- one embedding Z[z_M] -> F_p ---------------------------------------------------------


@functools.cache
def embedding(order: int, index: int = 0) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """(p, powers, units), kept per order and index: p the prime p < 2^31 with p = 1 (mod order)
    that is the index-th counted down from the largest, powers[e] = omega^e mod p for
    0 <= e <= order as read-only int64, for an omega of multiplicative order exactly ``order``,
    and generators of the units mod ``order``.  omega is the first x^((p-1)/order) with no
    omega^(order/q) = 1 for a prime q | order, so p - 1 is never factored; the units are added
    greedily, each one missing from the subgroup so far."""
    p = embedding(order, index - 1)[0] - order if index else (2**31 - 2) // order * order + 1
    while not is_prime(p):
        if p <= order:
            raise ValueError(f"fewer than {index + 1} primes p = 1 (mod {order}) below 2^31")
        p -= order
    primes = [q for q, _ in factorize(order)]
    x, omega = 2, 1
    while any(pow(omega, order // q, p) == 1 for q in primes):
        omega, x = pow(x, (p - 1) // order, p), x + 1
    powers = [1]
    for _ in range(order):
        powers.append(powers[-1] * omega % p)
    units, reached = [], {1}
    for u in range(2, order):
        if u not in reached and math.gcd(u, order) == 1:
            units.append(u)
            grown, power = set(reached), u
            while power not in reached:  # the cosets u^k H up to the first u^k in H
                grown.update(h * power % order for h in reached)
                power = power * u % order
            reached = grown
    return p, read_only(np.array(powers, dtype=np.int64)), tuple(units)


def integer_values(coeffs: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """For each sum sum_e coeffs[..., e] z^e: its value if that is a rational
    integer, and whether it is one; exact."""
    coords = power_basis_coordinates(coeffs, order)
    return coords[..., 0], ~(coords[..., 1:] != 0).any(axis=-1)

