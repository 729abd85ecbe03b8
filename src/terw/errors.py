"""Exception hierarchy shared across the package.

Construction errors signal an invalid group description; verification
failures signal that an identity which must hold for every valid instance
was observed to fail (a bug, or deliberately corrupted input in tests).
"""

from __future__ import annotations


class TerwError(Exception):
    """Base class for all package errors."""


# -- invalid input ----------------------------------------------------------


class InvalidGroupError(TerwError):
    """A group description failed validation."""


class NonPrimeError(InvalidGroupError):
    """A cyclic factor was given a composite or unit base."""


class OrderTooSmallError(InvalidGroupError):
    """The abelian part must have order at least 3."""


class DimensionMismatchError(InvalidGroupError):
    """An exponent vector has the wrong number of coordinates."""


class NotInvolutionError(InvalidGroupError):
    """Some coordinate map s_i does not square to the identity."""


class IdentityAutomorphismError(InvalidGroupError):
    """The twisting automorphism is the identity, so the extension is abelian."""


class YNotFixedError(InvalidGroupError):
    """The designated square of b is not fixed by the twist, so b*y*b^-1 != y."""


class BadG2ParamsError(InvalidGroupError):
    """The (n, s, t) parameters violate one of the defining congruences."""


class BadDicyclicYError(InvalidGroupError):
    """The designated square of b does not have order exactly 2."""


# -- resource limits --------------------------------------------------------


class GuardExceededError(TerwError):
    """The group is too large for an explicit-matrix or enumeration path."""


# -- verification failures --------------------------------------------------


class VerificationFailure(TerwError):
    """An identity that holds for every valid instance was violated."""


class AxiomFailure(VerificationFailure):
    """One of the four association-scheme axioms failed."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"scheme axiom {clause} failed" + (f": {detail}" if detail else ""))


class OrthogonalityFailure(VerificationFailure):
    """A clause of the exact character certificate of ``verify_orthogonality`` failed."""


class NonIntegralMultiplicity(VerificationFailure):
    """A character sum that must be a non-negative integer is not."""


class IdempotencyFailure(VerificationFailure):
    """The block of a central idempotent has the wrong dimension, or a
    trace that is not an integer."""


class MultiplicityMismatch(VerificationFailure):
    """The closed-form multiplicities disagree with an oracle."""


class OracleMismatch(VerificationFailure):
    """Two independent computations of the same quantity disagree."""


class CharacterTableFailure(VerificationFailure):
    """The character labels or degrees break a counting identity."""


class ParityFailure(VerificationFailure):
    """n and d, which always share parity, were found not to (or d was odd
    where a closed form needs it even)."""
