"""Characterization of the command line on Dih(C3) (= S3): every command's
report, in every format, against a recorded copy in ``data/cli_golden.json``.

JSON reports are compared parsed, with floats rounded, so that only their
content counts, not their layout.  Text and CSV reports are compared as
they are.  ``sweep`` rows are compared on the columns they had when the
copy was recorded; later columns are ignored.

To record the copy again (only after a deliberate change of a report):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from terw.cli import EXIT_OK, main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

S3 = ["--kind", "dihedral", "--factors", "3"]
FORMATS = {
    "info": ["text", "json", "csv"],
    "classes": ["text", "json", "csv"],
    "chartable": ["text", "json", "csv"],
    "dims": ["text", "json", "csv"],
    "wedderburn": ["text", "json", "csv"],
    "verify": ["text", "json"],
}
REPORTS = [f"{command} {fmt}" for command, fmts in FORMATS.items() for fmt in fmts]
SWEEP = ["sweep", "--kind", "dihedral", "--range", "3:6", "--format", "json"]


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == EXIT_OK
    return buf.getvalue()


def _report(key: str):
    command, fmt = key.split()
    body = _run([command, *S3, "--format", fmt])
    return json.loads(body) if fmt == "json" else body


def _rounded(value):
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", REPORTS)
def test_command_report_unchanged(key, golden):
    assert _rounded(_report(key)) == _rounded(golden[key])


def test_sweep_recorded_columns_unchanged(golden):
    rows = json.loads(_run(SWEEP))
    want = golden["sweep json"]
    assert len(rows) == len(want)
    for row, old in zip(rows, want):
        assert {k: row[k] for k in old} == old


if __name__ == "__main__":
    recorded = {key: _report(key) for key in REPORTS}
    recorded["sweep json"] = json.loads(_run(SWEEP))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
