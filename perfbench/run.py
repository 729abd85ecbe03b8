"""Benchmark of terw: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; terw is imported from ``src/`` of that
checkout, never from an installed copy.  The load is a closed loop with one
client and no threads: each instance starts when the previous one ends.
The run repeats whole passes over the workload's instance list until
``--seconds`` have gone by, so every run measures the same mix.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
instead, from spans recorded around terw's public functions (see spans.py).
A traced run runs each instance untraced and then traced, to report the
tracing overhead.
Each run also writes its environment, all metrics and any failures to
``perfbench/out/``, and the spans of a traced run as JSON lines.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

import spans  # noqa: E402  (sibling modules of this script)
import specs  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated and its median reported, so that one slow import does
# not read as a regression.
SETUP_REPEATS = 15
MIN_PASSES = 3

# The shared 2-core machine this benchmark was defined on drifts in speed by
# up to 2x, for fractions of a second up to minutes at a time, with its cores
# otherwise idle.  A fixed kernel is therefore timed before every operation,
# and latencies are reported in reference seconds ("ref-s"): an operation's
# seconds times REFERENCE_S over the median kernel time of the KERNEL_WINDOW
# operations on each side of it and itself.  The drift cancels; the
# program's own speed stays.  REFERENCE_S is the kernel's median time on
# that machine at full speed, so a reference second is about a second there.
REFERENCE_S = 0.011
KERNEL_WINDOW = 2

# Set-up is import work, whose speed drifts unlike the arithmetic kernel but
# like compiling does; so a second kernel, compiling a fixed module text, is
# timed before each set-up and scales it the same way.  setup_s keeps the
# unit "s" that the benchmark's declaration requires of it.
SETUP_REFERENCE_S = 0.0075
SETUP_KERNEL_SOURCE = "\n".join(
    f"class C{i}:\n    k = {{'a': {i}, 'b': [{i}, {i + 1}]}}\n\n"
    f"    def f(self, x, y=({i}, 'v{i}')):\n"
    f"        return [a * {i} for a in x if a % {i % 7 + 2}] + list(y)\n"
    for i in range(100)
)

END_TO_END = {
    "groups_per_s": "1/ref-s",
    "group_p50_s": "ref-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work owned by the benchmark.

    Exact rational elimination and dict updates, like terw's hot paths.  The
    collector is off, so the size of terw's heap does not change the time.
    """
    rng = random.Random(12345)
    n = 16
    gc.disable()
    try:
        start = perf_counter()
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                if f:
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        return perf_counter() - start
    finally:
        gc.enable()


def setup_kernel() -> float:
    """Seconds to compile SETUP_KERNEL_SOURCE."""
    start = perf_counter()
    compile(SETUP_KERNEL_SOURCE, "<setup-kernel>", "exec")
    return perf_counter() - start


def setup(workload: str, seed: int, tiny: bool):
    """Import terw afresh, then build the specs and the groups.

    numpy is imported before the first set-up, so every repeat times the same
    work: terw's own modules, the seeded specs and the group objects.
    """
    for name in [n for n in sys.modules if n == "terw" or n.startswith("terw.")]:
        del sys.modules[name]
    gc.collect()  # the previous repeat's modules, outside the timed region
    start = perf_counter()
    terw = importlib.import_module("terw")
    importlib.import_module("terw.cli")
    instances = workloads.build_instances(workload, seed, tiny)
    for inst in instances:
        inst.group = terw.cli.GroupSpec.from_dict(inst.spec.to_dict()).build()
    return perf_counter() - start, terw, instances


class Tally:
    """Operations, failures and per-instance latencies of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.passed = 0
        self.failing: set[str] = set()
        self.failures: list[str] = []
        self.runs: list[tuple[str, int, int]] = []  # label, its ops in ``ops``
        self.ops: list[tuple[float, float]] = []  # kernel s, program s, in run order

    def run_one(self, terw, wl, inst, tracer=None) -> float:
        """Run one instance; return its program seconds (no kernel, no checks)."""
        if tracer is not None:
            tracer.instance = self.instances
            tracer.orbit_count = inst.expected.dim
        out = workloads.Outcome(kernel=reference_kernel)
        wl.run(terw, inst, out)
        self.runs.append((inst.label, len(self.ops), len(self.ops) + len(out.ops)))
        self.ops += out.ops
        self.instances += 1
        self.passed += not out.failures
        self.attempted += out.attempted
        self.failed += len(out.failures)
        if out.failures:
            self.failing.add(inst.label)
            self.failures += [f"{inst.label}: {f}" for f in out.failures]
        return out.seconds

    def latencies(self, scaled: bool) -> dict[str, list[float]]:
        """label -> latency of each run of it, in seconds or in ref-s."""
        kernels = [k for k, _ in self.ops]
        op_s = [s for _, s in self.ops]
        if scaled:
            w = KERNEL_WINDOW
            op_s = [s * REFERENCE_S / statistics.median(kernels[max(0, i - w):i + w + 1])
                    for i, s in enumerate(op_s)]
        out: dict[str, list[float]] = {}
        for label, first, end in self.runs:
            out.setdefault(label, []).append(sum(op_s[first:end]))
        return out


def measure(terw, workload: str, instances, seconds: float, tracer=None):
    """Whole passes over the instance list until ``seconds`` have gone by.

    An untraced run makes at least MIN_PASSES passes, so that each instance
    has a median latency.  A traced run makes at least one pass in which
    each instance runs twice in a row, untraced and traced; the tracing
    overhead is the median ratio of the two program times.  Being adjacent,
    the two runs of a pair see the same machine speed; which one runs first
    alternates, so that neither gains from caches the other has warmed.
    """
    wl = workloads.WORKLOADS[workload]
    tally = Tally()
    start = perf_counter()
    if tracer is None:
        passes = 0
        while passes < MIN_PASSES or perf_counter() - start < seconds:
            for inst in instances:
                tally.run_one(terw, wl, inst)
            passes += 1
        return tally, perf_counter() - start, {}
    traced_runs, ratios = 0, []
    while not traced_runs or perf_counter() - start < seconds:
        for inst in instances:
            plain_first = traced_runs % 2 == 0
            if plain_first:
                plain = tally.run_one(terw, wl, inst)
            tracer.install()
            try:
                traced = tally.run_one(terw, wl, inst, tracer)
            finally:
                tracer.uninstall()
            if not plain_first:
                plain = tally.run_one(terw, wl, inst)
            traced_runs += 1
            if plain > 0:
                ratios.append(traced / plain)
    wall = perf_counter() - start
    layers = tracer.layer_metrics(traced_runs)
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    return tally, wall, layers


def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one or two of the smallest instances (for the benchmark's tests)")
    args = parser.parse_args(argv)

    if not (SRC / "terw" / "__init__.py").is_file():
        print(f"error: no terw sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    specs.check_anchors()
    sys.path.insert(0, str(SRC))
    import numpy

    # terw is imported from bytecode, as an installed copy would be, whatever
    # the environment says: the first set-up writes it, the others read it.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT / "pycache")
    setup_times, setup_kernels = [], []
    for _ in range(SETUP_REPEATS):
        setup_kernels.append(setup_kernel())
        elapsed, terw, instances = setup(args.workload, args.seed, args.tiny)
        setup_times.append(elapsed)
    if Path(terw.__file__).resolve().parent != SRC / "terw":
        print(f"error: imported terw from {terw.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    tally, wall, layers = measure(terw, args.workload, instances, args.seconds, tracer)

    # Each instance's median over the passes filters out a slow moment; the
    # throughput is that of one pass at those medians.
    latencies = tally.latencies(scaled=True)
    medians = {label: statistics.median(v) for label, v in latencies.items()}
    wall_medians = [statistics.median(v) for v in tally.latencies(scaled=False).values()]
    passing = [label for label in medians if label not in tally.failing]
    kernels = [k for k, _ in tally.ops]
    measured = {
        "groups_per_s": len(passing) / sum(medians.values()) if passing else 0.0,
        "group_p50_s": statistics.median(medians.values()),
        "setup_s": statistics.median(setup_times) * SETUP_REFERENCE_S
        / statistics.median(setup_kernels),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = END_TO_END
    if tracer is not None:
        measured, units = layers, spans.LAYER_METRICS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "terw_file": terw.__file__,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "instances_per_pass": [inst.label for inst in instances],
        "instances_run": tally.instances,
        "wall_s": wall,
        "groups_per_wall_s": tally.passed / wall,
        "group_p50_wall_s": statistics.median(wall_medians),
        "reference_kernel_median_s": statistics.median(kernels) if kernels else 0.0,
        "latency_s": tally.latencies(scaled=False),
        "latency_ref_s": latencies,
        "ops_kernel_and_program_s": tally.ops,
        "setup_times_s": setup_times,
        "setup_wall_s": statistics.median(setup_times),
        "setup_kernel_s": setup_kernels,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "metrics": {k: {"value": measured[k], "unit": units[k]} for k in units},
        "failures": tally.failures[:50],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    for key in ("workload", "seed", "terw_file", "git_sha", "python", "numpy", "nproc"):
        print(f"{key}: {report[key]}")
    print(f"instances: {len(instances)} per pass, {tally.instances} run in {wall:.2f} s; "
          f"group_p50_s is the median of {len(medians)} per-instance medians")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}")
    print(f"failed_frac {report['failed_frac']:.6g} ratio ({tally.failed}/{tally.attempted})")
    print(f"groups_per_wall_s {report['groups_per_wall_s']:.6g} 1/s, group_p50_wall_s "
          f"{report['group_p50_wall_s']:.6g} s, reference kernel median "
          f"{report['reference_kernel_median_s']:.6g} s against {REFERENCE_S} s, "
          f"setup_wall_s {report['setup_wall_s']:.6g} s")
    for name, unit in units.items():
        print(f"{name} {measured[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
