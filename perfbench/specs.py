"""Seeded group specs and the values the benchmark expects for them.

A spec is what a user types on the command line: a kind and its parameters,
with the factors listed in the user's order.  The expected values are
computed here from (n, d) alone, with no call into terw, so a wrong program
cannot agree with itself:

  * |G| = 2n;
  * the Terwilliger dimension (3nd + n^2 + 4d^2) / 2, which is also the
    number of simultaneous-conjugation orbits on G x G;
  * the class count (n + 3d) / 2, which is the number of character-table
    rows and the dimension of each restricted closure.

Seeded instances are drawn per stratum, an abelian factorization with a
fixed d: the seed picks the twist s, the square y and the listing order.
The program's cost depends on |G|, d and the number of factors, not on
which s and y are chosen, so runs with different seeds measure comparable
amounts of work on different inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One group as the command line describes it.

    ``factors``, ``s`` and ``y`` follow the listing order, which need not be
    terw's canonical order (factors of 2 first, then odd primes, exponents
    ascending).  For the ``g2`` kind, ``n``, ``s`` and ``t`` are integers.
    """

    kind: str
    factors: tuple[tuple[int, int], ...] = ()
    s: tuple[int, ...] | int = ()
    y: tuple[int, ...] = ()
    n: int = 0
    t: int = 0

    @property
    def moduli(self) -> list[int]:
        return [p**e for p, e in self.factors]

    @property
    def abelian_order(self) -> int:
        return self.n if self.kind == "g2" else math.prod(self.moduli)

    @property
    def fixed_order(self) -> int:
        """d: the number of elements of A fixed by the twist."""
        if self.kind == "g2":
            return math.gcd(self.s - 1, self.n)
        if self.kind in ("dihedral", "dicyclic"):
            return math.prod(math.gcd(2, m) for m in self.moduli)
        return math.prod(math.gcd(si - 1, m) for si, m in zip(self.s, self.moduli))

    def to_dict(self) -> dict:
        """The JSON spec form that ``terw --spec`` and ``GroupSpec.from_dict`` read."""
        if self.kind == "g2":
            return {"kind": "g2", "n": self.n, "s": self.s, "t": self.t}
        out: dict = {"kind": self.kind, "factors": [list(f) for f in self.factors]}
        if self.kind == "general":
            out["s"] = list(self.s)
        if self.kind in ("general", "dicyclic") and self.y:
            out["y"] = list(self.y)
        return out

    def argv(self) -> list[str]:
        """Command-line flags describing the group."""
        if self.kind == "g2":
            return ["--kind", "g2", "--n", str(self.n), "--s", str(self.s), "--t", str(self.t)]
        out = ["--kind", self.kind, "--factors", ",".join(f"{p}^{e}" for p, e in self.factors)]
        if self.kind == "general":
            out += ["--s", ",".join(map(str, self.s))]
        if self.kind in ("general", "dicyclic") and self.y:
            out += ["--y", ",".join(map(str, self.y))]
        return out

    def describe(self) -> str:
        return " ".join(self.argv()[1:])


def closed_form(n: int, d: int) -> int:
    """(3nd + n^2 + 4d^2) / 2; n and d always share parity."""
    return (3 * n * d + n * n + 4 * d * d) // 2


def class_count(n: int, d: int) -> int:
    """Number of conjugacy classes: d fixed, (n - d)/2 paired, d coset classes."""
    return (n + 3 * d) // 2


@dataclass(frozen=True)
class Expected:
    order: int
    dim: int
    classes: int

    @staticmethod
    def of(spec: Spec) -> "Expected":
        n, d = spec.abelian_order, spec.fixed_order
        return Expected(order=2 * n, dim=closed_form(n, d), classes=class_count(n, d))


# Dimensions published for small groups; they pin closed_form itself.
ANCHORS = {
    "S3": (Spec("dihedral", ((3, 1),)), 11),
    "D4": (Spec("dihedral", ((2, 2),)), 28),
    "Q8": (Spec("dicyclic", ((2, 2),), y=(2,)), 28),
    "G2(8,3,0)": (Spec("g2", n=8, s=3, t=0), 64),
}

# The fixed instances named by the ladder of the project's roadmap.
LADDER = {
    "Dih(C16)": Spec("dihedral", ((2, 4),)),
    "G2(16,7,8)": Spec("g2", n=16, s=7, t=8),
    "Dih(C32)": Spec("dihedral", ((2, 5),)),
}


def check_anchors() -> None:
    """Raise if the benchmark's own formula disagrees with a published anchor."""
    for name, (spec, dim) in ANCHORS.items():
        got = Expected.of(spec).dim
        if got != dim:
            raise RuntimeError(f"closed form gives {got} for {name}, published value is {dim}")


# -- seeded general instances -------------------------------------------------


def _canonical_key(factor: tuple[int, int]) -> tuple:
    p, e = factor
    return (p != 2, p, e)


def stratum_members(factors: tuple[tuple[int, int], ...], d: int) -> list[tuple[int, ...]]:
    """Every twist s of the abelian group with these factors that fixes d elements.

    s runs over the diagonal square roots of 1 other than the identity.
    """
    moduli = [p**e for p, e in factors]
    roots = [[s for s in range(1, m) if s * s % m == 1] for m in moduli]
    return [
        s
        for s in itertools.product(*roots)
        if any(si != 1 for si in s)
        and math.prod(math.gcd(si - 1, m) for si, m in zip(s, moduli)) == d
    ]


def sample_general(rng: random.Random, factors: tuple[tuple[int, int], ...], d: int) -> Spec:
    """A random valid (A, s, y) spec with the given factors and d fixed elements.

    The seed picks the twist s, a random twist-fixed square y and the listing
    order.  With several factors they are listed out of canonical order
    whenever that is possible, so that the command line's reordering of the
    s and y vectors is exercised.
    """
    factors = tuple(sorted(factors, key=_canonical_key))
    members = stratum_members(factors, d)
    if not members:
        raise ValueError(f"no twist of {factors} fixes {d} elements")
    s = rng.choice(members)
    moduli = [p**e for p, e in factors]
    y = [(m // math.gcd(si - 1, m)) * rng.randrange(math.gcd(si - 1, m)) for si, m in zip(s, moduli)]
    rows = list(zip(factors, s, y))
    listings = sorted(set(itertools.permutations(rows)))
    shuffled = [r for r in listings if [f for f, _, _ in r] != list(factors)]
    rows = list(rng.choice(shuffled)) if shuffled else rows
    return Spec(
        "general",
        factors=tuple(f for f, _, _ in rows),
        s=tuple(si for _, si, _ in rows),
        y=tuple(yi for _, _, yi in rows),
    )
