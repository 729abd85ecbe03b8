"""Default resource guards.

Explicit-matrix paths (adjacency matrices, algebra closure, idempotents),
quadratic or worse in the group order, and the brute-force class oracle they
run beside (k * |G| conjugations) are gated behind ``DEFAULT_MATRIX_GUARD``.
``dims`` and ``wedderburn`` check ``ENUMERATION_LIMIT`` before building anything,
and so does ``character_table``, before its two (l, l, 2) arrays; the
block-dimension check of the central idempotents, which forms no |G| x |G|
array, checks it in place of the matrix guard.
"""

from .errors import GuardExceededError

DEFAULT_MATRIX_GUARD = 64

ENUMERATION_LIMIT = 4096

MIN_GUARD = 6


def check_guard(order: int, guard: int, path: str) -> None:
    """Raise GuardExceededError if a group of this order is above the guard for the path."""
    if order > guard:
        raise GuardExceededError(f"group order {order} exceeds guard {guard} for {path}")
