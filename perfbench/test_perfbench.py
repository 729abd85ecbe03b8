"""Tests of the benchmark itself: metric names, seeding, failure counting.

Runs of ``run.py`` happen in subprocesses, because a run re-imports terw and
rebinds its functions for tracing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import terw  # noqa: E402
from terw.cli import GroupSpec  # noqa: E402

import spans  # noqa: E402
import specs  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Last-line JSON of a tiny run, per (workload, trace)."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_formula_never_runs_the_closure(tiny_runs):
    metrics = tiny_runs["formula", 1]["metrics"]
    assert metrics["closure.terwilliger_closure_dim.busy_s"]["value"] == 0
    assert metrics["groups.index_tables.calls"]["value"] > 0


def test_cap_reached_only_by_the_full_closure(tiny_runs):
    assert tiny_runs["verify", 1]["metrics"]["closure.cap_reached_frac"]["value"] == 1.0
    assert tiny_runs["subalgebra", 1]["metrics"]["closure.cap_reached_frac"]["value"] == 0.0


def test_same_seed_gives_same_instances():
    for name in workloads.WORKLOADS:
        first = [(i.label, i.spec, i.expected) for i in workloads.build_instances(name, 7)]
        again = [(i.label, i.spec, i.expected) for i in workloads.build_instances(name, 7)]
        assert first == again
    other = [i.spec for i in workloads.build_instances("verify", 8)]
    assert other != [i.spec for i in workloads.build_instances("verify", 7)]


def test_seeded_specs_match_the_program_and_list_factors_out_of_order():
    for name in workloads.WORKLOADS:
        for inst in workloads.build_instances(name, 5):
            group = GroupSpec.from_dict(inst.spec.to_dict()).build()
            assert (group.n, group.d) == (inst.spec.abelian_order, inst.spec.fixed_order)
            assert inst.expected.order == group.order
            if inst.spec.kind == "general" and len(set(inst.spec.factors)) > 1:
                canonical = sorted(inst.spec.factors, key=specs._canonical_key)
                assert list(inst.spec.factors) != canonical


def test_anchors_pin_the_closed_form():
    specs.check_anchors()
    assert specs.closed_form(16, 2) == 184  # Dih(C16)
    assert specs.class_count(16, 2) == 11


def test_tracer_raises_on_a_missing_function(monkeypatch):
    monkeypatch.setitem(spans.SPANNED, "closure", [*spans.SPANNED["closure"], "no_such_function"])
    tracer = spans.Tracer()
    try:
        with pytest.raises(LookupError, match="no_such_function"):
            tracer.install()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("workload", ["verify", "subalgebra"])
def test_corrupted_expected_value_counts_as_failure(workload):
    wl = workloads.WORKLOADS[workload]
    inst = workloads.build_instances(workload, 1, tiny=True)[0]
    inst.group = GroupSpec.from_dict(inst.spec.to_dict()).build()
    good = workloads.Outcome()
    wl.run(terw, inst, good)
    assert good.failures == []

    inst.expected = specs.Expected(inst.expected.order + 2, inst.expected.dim + 1,
                                   inst.expected.classes)
    bad = workloads.Outcome()
    wl.run(terw, inst, bad)
    assert bad.attempted == good.attempted  # the run went on after the mismatch
    assert len(bad.failures) >= 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bench)
    proc = run_bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
