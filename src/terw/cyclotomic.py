"""Exact formal sums of roots of unity.

A RootSum over root order M is an integer combination of the M-th roots of
unity, stored as a sparse exponent -> coefficient table with exponents
reduced mod M and zero coefficients pruned.  Addition, multiplication and
conjugation are exact term arithmetic; identities that cancel across
different exponents (vanishing sums) are decided by complex evaluation,
which for desk-scale sums is accurate to ~1e-14, far inside the tolerances
used by callers.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Mapping

from .errors import MixedRootOrdersError


class RootSum:
    """Integer combination of M-th roots of unity."""

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        self.order = order
        table: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            if coeff == 0:
                continue
            exp %= order
            new = table.get(exp, 0) + coeff
            if new:
                table[exp] = new
            else:
                table.pop(exp, None)
        self.terms = table

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> RootSum:
        return cls(order)

    @classmethod
    def one(cls, order: int) -> RootSum:
        return cls(order, {0: 1})

    @classmethod
    def root(cls, order: int, exponent: int, coeff: int = 1) -> RootSum:
        return cls(order, {exponent: coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: RootSum) -> None:
        if self.order != other.order:
            raise MixedRootOrdersError(
                f"cannot combine root orders {self.order} and {other.order}"
            )

    def __add__(self, other: RootSum) -> RootSum:
        self._check(other)
        merged = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = merged.get(exp, 0) + coeff
            if new:
                merged[exp] = new
            else:
                merged.pop(exp, None)
        out = RootSum(self.order)
        out.terms = merged
        return out

    def __sub__(self, other: RootSum) -> RootSum:
        return self + (-other)

    def __neg__(self) -> RootSum:
        return self.scale(-1)

    def __mul__(self, other: RootSum | int) -> RootSum:
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out = RootSum(self.order)
        table: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1 + e2) % self.order
                new = table.get(exp, 0) + c1 * c2
                if new:
                    table[exp] = new
                else:
                    table.pop(exp, None)
        out.terms = table
        return out

    __rmul__ = __mul__

    def scale(self, k: int) -> RootSum:
        out = RootSum(self.order)
        if k:
            out.terms = {e: k * c for e, c in self.terms.items()}
        return out

    def conjugate(self) -> RootSum:
        out = RootSum(self.order)
        out.terms = {(-e) % self.order: c for e, c in self.terms.items()}
        return out

    # -- evaluation ----------------------------------------------------------

    def eval_complex(self) -> complex:
        step = 2j * cmath.pi / self.order
        return sum((c * cmath.exp(step * e) for e, c in self.terms.items()), 0j)

    def is_integer(self, tolerance: float = 1e-6) -> int | None:
        """The nearest integer if the value is within tolerance of one, else None."""
        val = self.eval_complex()
        nearest = round(val.real)
        if abs(val.imag) < tolerance and abs(val.real - nearest) < tolerance:
            return nearest
        return None

    def is_zero_exact(self) -> bool:
        """True when the term table is empty (sufficient, not necessary)."""
        return not self.terms

    # -- housekeeping ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int]]:
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootSum):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"RootSum({self.order}, 0)"
        body = " + ".join(
            (f"{c}*" if c != 1 else "") + (f"z{self.order}^{e}" if e else "1")
            for e, c in self.sorted_terms()
        )
        return f"RootSum({self.order}, {body})"
