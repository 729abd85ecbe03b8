"""The workloads: which instances each one runs and how each result is checked.

verify      ``terw verify`` on the roadmap ladder plus seeded general groups
            with 24 <= |G| <= 64: the oracle-checked path, dominated by the
            Terwilliger closure and the central idempotents.
formula     ``terw dims``, ``terw wedderburn`` and ``terw chartable`` on
            seeded groups with 128 <= |G| <= 384.  These are above the
            default matrix guard (64), so the closure and the idempotents
            never run; the cost is the |G|^2 table scans.
subalgebra  library calls on small groups: the two restricted closures
            (scheme matrices alone, dual idempotents alone), the sandwich
            span, and for |G| <= 16 the generic closure of the explicit
            matrices.  The restricted closures stop at the class count, far
            below the orbit count, so elimination runs to exhaustion.

Every operation's result is compared with values computed by ``specs``
from (n, d).  A mismatch or an exception counts as a failed operation and
the run goes on.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from specs import ANCHORS, LADDER, Expected, Spec, sample_general

# Strata of the seeded general instances: an abelian factorization and the
# number d of twist-fixed elements, fixed per workload; the seed picks s, y
# and the listing order inside each.  Chosen so that one pass over a
# workload takes a few seconds on a 2-core machine, so that a run makes
# enough passes for a steady median per instance.
VERIFY_STRATA = [
    (((2, 2), (3, 1)), 4),  # |G| = 24
    (((3, 1), (5, 1)), 3),  # 30
    (((2, 3), (2, 1)), 4),  # 32
    (((2, 1), (3, 2)), 2),  # 36
]
FORMULA_STRATA = [
    (((2, 4), (2, 2)), 8),  # |G| = 128
    (((2, 6),), 2),  # 128
    (((2, 5), (3, 1)), 6),  # 192
    (((2, 6), (2, 1)), 4),  # 256
    (((2, 6), (3, 1)), 6),  # 384
]
SUBALGEBRA_STRATA = [
    (((2, 1), (3, 1)), 2),  # |G| = 12
    (((2, 2), (2, 1)), 4),  # 16
    (((2, 2), (3, 1)), 4),  # 24
    (((2, 3), (2, 1)), 4),  # 32
    (((2, 2), (5, 1)), 2),  # 40
    (((2, 3), (3, 1)), 2),  # 48
]
TINY_STRATUM = (((2, 1), (3, 1)), 2)  # |G| = 12

# Largest |G| for the generic closure of explicit |G| x |G| rational matrices.
EXPLICIT_MAX_ORDER = 16

# Checks that ``terw verify`` reports; each must be present and pass.
VERIFY_CHECKS = {
    "conjugacy_classes",
    "scheme_axioms",
    "orthogonality",
    "dimensions",
    "wedderburn",
    "central_idempotents",
}


@dataclass
class Instance:
    label: str
    spec: Spec
    expected: Expected
    group: object = None  # the terw group, built during set-up


@dataclass
class Outcome:
    """Operations of one instance: program seconds, count and failures.

    With a ``kernel``, it is timed just before each operation, and ``ops``
    pairs the kernel's seconds with the operation's.
    """

    kernel: Callable[[], float] | None = None
    seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    ops: list[tuple[float, float]] = field(default_factory=list)


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def call(out: Outcome, what: str, fn: Callable, check: Callable) -> None:
    """Time fn, then check its result outside the timed region."""
    out.attempted += 1
    kernel_s = out.kernel() if out.kernel else 0.0
    try:
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        out.seconds += elapsed
        out.ops.append((kernel_s, elapsed))
        check(result)
    except Exception as exc:  # any failure is counted and the run goes on
        out.failures.append(f"{what}: {type(exc).__name__}: {exc}")


def equals(value: int) -> Callable:
    def check(got):
        expect(got == value, f"got {got}, expected {value}")

    return check


def run_cli(terw, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = terw.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_payload(result: tuple[int, str, str]) -> dict:
    code, out, err = result
    expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
    return json.loads(out)


# -- per-workload operations --------------------------------------------------


def run_verify(terw, inst: Instance, out: Outcome) -> None:
    e = inst.expected

    def check(result):
        p = cli_payload(result)
        expect(p.get("ok") is True, f"ok is {p.get('ok')!r}")
        expect(p["order"] == e.order, f"order {p['order']}, expected {e.order}")
        passed = {c["check"] for c in p["checks"] if c["ok"]}
        missing = VERIFY_CHECKS - passed
        expect(not missing, f"checks missing or failed: {sorted(missing)}")

    argv = ["verify", *inst.spec.argv(), "--format", "json"]
    call(out, "verify", lambda: run_cli(terw, argv), check)


def run_formula(terw, inst: Instance, out: Outcome) -> None:
    e = inst.expected

    def dims(result):
        p = cli_payload(result)
        for key in ("dim_t0", "dim_closed_form", "dim_centralizer"):
            expect(p[key] == e.dim, f"{key} = {p[key]}, expected {e.dim}")
        expect(p["dim_closure"] in (None, e.dim), f"dim_closure = {p['dim_closure']}")
        expect(p["triply_transitive"] is True, "not triply transitive")

    def wedderburn(result):
        p = cli_payload(result)
        chars = p["characters"]
        expect(len(chars) == e.classes, f"{len(chars)} characters, expected {e.classes}")
        sum_sq = sum(c["multiplicity"] ** 2 for c in chars)
        expect(sum_sq == e.dim, f"sum d^2 = {sum_sq}, expected {e.dim}")
        sum_deg = sum(c["multiplicity"] * c["degree"] for c in chars)
        expect(sum_deg == e.order, f"sum d*deg = {sum_deg}, expected {e.order}")
        expect(p["sum_d_squared"] == e.dim, f"reported sum d^2 = {p['sum_d_squared']}")
        expect(p["sum_d_times_degree"] == e.order, f"reported sum d*deg = {p['sum_d_times_degree']}")

    def chartable(result):
        p = cli_payload(result)
        expect(len(p["classes"]) == e.classes, f"{len(p['classes'])} classes, expected {e.classes}")
        rows = p["characters"]
        expect(len(rows) == e.classes, f"{len(rows)} rows, expected {e.classes}")
        expect(all(len(r["values"]) == e.classes for r in rows), "a row has the wrong length")
        sum_sq = sum(r["degree"] ** 2 for r in rows)
        expect(sum_sq == e.order, f"sum deg^2 = {sum_sq}, expected {e.order}")

    flags = [*inst.spec.argv(), "--format", "json"]
    for command, check in (("dims", dims), ("wedderburn", wedderburn), ("chartable", chartable)):
        call(out, command, lambda: run_cli(terw, [command, *flags]), check)


def run_subalgebra(terw, inst: Instance, out: Outcome) -> None:
    g, e = inst.group, inst.expected
    call(out, "closure of scheme matrices",
         lambda: terw.terwilliger_closure_dim(g, include_dual=False), equals(e.classes))
    call(out, "closure of dual idempotents",
         lambda: terw.terwilliger_closure_dim(g, include_scheme=False), equals(e.classes))
    call(out, "sandwich span", lambda: terw.dim_t0(g, strategy="span"), equals(e.dim))
    if e.order <= EXPLICIT_MAX_ORDER:
        call(out, "explicit closure",
             lambda: terw.algebra_dimension(terw.adjacency_matrices(g) + terw.dual_idempotents(g)),
             equals(e.dim))


@dataclass(frozen=True)
class Workload:
    run: Callable[[object, Instance, Outcome], None]
    fixed: dict[str, Spec]
    strata: list
    tiny_fixed: dict[str, Spec]
    tiny_strata: list


ANCHOR_SPECS = {name: spec for name, (spec, _) in ANCHORS.items()}

WORKLOADS = {
    "verify": Workload(run_verify, LADDER, VERIFY_STRATA, {}, [TINY_STRATUM]),
    "formula": Workload(run_formula, {}, FORMULA_STRATA, {}, [(((2, 6),), 2)]),
    "subalgebra": Workload(
        run_subalgebra,
        {**ANCHOR_SPECS, "Dih(C16)": LADDER["Dih(C16)"]},
        SUBALGEBRA_STRATA,
        {"S3": ANCHOR_SPECS["S3"]},
        [TINY_STRATUM],
    ),
}


def build_instances(workload: str, seed: int, tiny: bool = False) -> list[Instance]:
    """The instance list of one pass; the same seed gives the same list."""
    wl = WORKLOADS[workload]
    rng = random.Random(seed)
    fixed = wl.tiny_fixed if tiny else wl.fixed
    out = []
    for label, spec in fixed.items():
        expected = Expected.of(spec)
        if label in ANCHORS:
            expected = dataclasses.replace(expected, dim=ANCHORS[label][1])
        out.append(Instance(label, spec, expected))
    for factors, d in wl.tiny_strata if tiny else wl.strata:
        spec = sample_general(rng, factors, d)
        out.append(Instance(spec.describe(), spec, Expected.of(spec)))
    return out
