"""Command-line interface: spec parsing, formats, exit codes, round-trips."""

import csv
import io
import json
import sys
from collections import Counter

import numpy as np
import pytest

import terw.groups
from terw import MultiplicityMismatch, OrthogonalityFailure, cli
from terw.cli import (
    EXIT_GUARD,
    EXIT_INVALID_SPEC,
    EXIT_MISMATCH,
    EXIT_OK,
    GroupSpec,
    main,
)
from terw.conjugacy import ClassList, class_index_table, conjugacy_classes


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "--kind", "dihedral", "--factors", "3")
    assert code == EXIT_OK
    assert "order: 6" in out
    assert "d: 1" in out


def test_info_json_spec_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--kind", "g2", "--n", "8", "--s", "3", "--t", "0",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    spec = GroupSpec.from_dict(payload["spec"])
    assert spec == GroupSpec(kind="g2", n=8, s=3, t=0)
    assert payload["d"] == 2


def test_info_on_a_factor_near_2_to_the_60(capsys):
    p = 10**18 + 3
    code, out, _ = run_cli(
        capsys, "info", "--kind", "dihedral", "--factors", str(p), "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 2 * p


def test_info_on_a_factor_of_70_bits(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--kind", "dihedral", "--factors", "2^70", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 2**71


@pytest.mark.parametrize("factor, p, e", [("2^20000", 2, 20000), ("3^1000000000", 3, 10**9)])
def test_a_factor_too_large_to_print_exits_1_before_its_power_is_formed(capsys, factor, p, e):
    # 3^(10^9) would take minutes to form; the check reads e * log(p) first
    code, out, err = run_cli(capsys, "info", "--kind", "dihedral", "--factors", factor)
    assert (code, out) == (EXIT_INVALID_SPEC, "")
    assert err == f"error: the factor {[p, e]} takes the group order past 4300 digits\n"


def test_spec_file_with_flag_override(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": "dihedral", "factors": [[3, 1]]}))
    code, out, _ = run_cli(
        capsys, "info", "--spec", str(spec_file), "--factors", "2^2", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 8  # flag overrides the file


def test_dims_command(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--kind", "dihedral", "--factors", "3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (
        payload["dim_t0"]
        == payload["dim_closed_form"]
        == payload["dim_centralizer"]
        == payload["dim_closure"]
        == 11
    )
    assert payload["triply_transitive"] is True


def test_dims_above_guard_skips_closure(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--kind", "dihedral", "--factors", "2^2,3^2",
        "--format", "json", "--guard", "32",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim_closure"] is None
    assert payload["dim_t0"] == payload["dim_centralizer"]


def test_dims_oracle_above_guard_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "dims", "--kind", "dihedral", "--factors", "2^2,3^2",
        "--guard", "32", "--oracle",
    )
    assert code == EXIT_GUARD
    assert "guard" in err


def test_invalid_spec_exits_1(capsys):
    code, _, err = run_cli(capsys, "info", "--kind", "dihedral", "--factors", "4")
    assert code == EXIT_INVALID_SPEC
    assert "prime" in err


def test_missing_kind_exits_1(capsys):
    code, _, _ = run_cli(capsys, "info", "--factors", "3")
    assert code == EXIT_INVALID_SPEC


def test_wedderburn_command(capsys):
    code, out, _ = run_cli(
        capsys, "wedderburn", "--kind", "g2", "--n", "8", "--s", "3", "--t", "0",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sum_d_squared"] == 64
    assert payload["centralizer_dim"] == 64


def test_classes_command_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "classes", "--kind", "dicyclic", "--factors", "2^2", "--y", "2",
        "--format", "json", "--oracle",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["counts"] == {"fixed": 2, "paired": 1, "coset": 2}
    spec = GroupSpec.from_dict(payload["spec"])
    assert spec == GroupSpec(kind="dicyclic", factors=[[2, 2]], y=[2])
    assert spec.build().name == "Dic(C4; y=[2])"


def test_general_spec_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "info", "--kind", "general", "--factors", "2^2,3",
        "--s", "3,1", "--y", "2,0", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    spec = GroupSpec.from_dict(payload["spec"])
    assert spec == GroupSpec(kind="general", factors=[[2, 2], [3, 1]], s=[3, 1], y=[2, 0])
    assert spec.build().order == 24


def test_classes_matrix_dump(tmp_path, capsys):
    dump = tmp_path / "mats.txt"
    code, _, _ = run_cli(
        capsys, "classes", "--kind", "dihedral", "--factors", "3",
        "--dump-matrices", str(dump),
    )
    assert code == EXIT_OK
    assert "N_0" in dump.read_text()


def test_matrix_dump_above_the_guard_leaves_the_file_as_it_was(tmp_path, capsys):
    # the dump is rendered before the file is opened for writing
    dump = tmp_path / "mats.txt"
    dump.write_text("keep")
    code, _, err = run_cli(
        capsys, "classes", "--kind", "dihedral", "--factors", "2^6",
        "--dump-matrices", str(dump),
    )
    assert code == EXIT_GUARD
    assert err.startswith("error: group order 128 exceeds guard 64")
    assert dump.read_text() == "keep"


def test_verify_has_no_csv_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kind", "dihedral", "--factors", "3", "--format", "csv"])
    assert exc.value.code == EXIT_INVALID_SPEC
    err = capsys.readouterr().err
    assert err.startswith("usage: terw verify")
    assert "argument --format: invalid choice: 'csv'" in err.splitlines()[-1]


def test_chartable_csv(capsys):
    code, out, _ = run_cli(
        capsys, "chartable", "--kind", "dihedral", "--factors", "3", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "character"
    assert len(rows) == 4  # header + 3 characters


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "dicyclic", "--factors", "2^2", "--y", "2",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["check"] for c in payload["checks"]}
    assert names >= {
        "conjugacy_classes",
        "scheme_axioms",
        "orthogonality",
        "dimensions",
        "wedderburn",
        "central_idempotents",
    }


def test_verify_dih_c128_within_a_raised_guard(capsys):
    # |G| = 256: the sandwich count reaches the 8584 orbits
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "dihedral", "--factors", "2^7", "--guard", "256",
        "--format", "json",
    )
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    assert len(checks) == 6 and all(c["ok"] for c in checks)


def test_verify_above_guard_exits_3(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--kind", "dihedral", "--factors", "2^2,3^2", "--guard", "32"
    )
    assert code == EXIT_GUARD


def test_sweep_dihedral_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--kind", "dihedral", "--range", "3:12")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 11  # header + one row per n
    header = rows[0]
    for row in rows[1:]:
        record = dict(zip(header, row))
        assert record["triply_transitive"] == "True"
        assert record["wedderburn_ok"] == "True"
        assert record["dim_t0"] == record["dim_closure"]


def test_sweep_g2_json(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "g2", "--range", "3:8", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert any(json.loads(r["params"])["n"] == 8 for r in rows)
    assert all(r["triply_transitive"] for r in rows)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "info", "--kind", "dihedral", "--factors", "3",
        "--format", "json", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["order"] == 6


def test_guard_env_var(capsys, monkeypatch):
    monkeypatch.setenv("TERW_GUARD", "32")
    code, out, _ = run_cli(
        capsys, "dims", "--kind", "dihedral", "--factors", "2^2,3^2", "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["dim_closure"] is None


def test_guard_env_var_is_read_on_every_call(capsys, monkeypatch):
    argv = ("dims", "--kind", "dihedral", "--factors", "2^4", "--format", "json")
    monkeypatch.setenv("TERW_GUARD", "16")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)["dim_closure"] is None
    monkeypatch.setenv("TERW_GUARD", "32")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)["dim_closure"] == json.loads(out)["dim_t0"]


def test_guard_env_var_that_is_not_an_integer_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("TERW_GUARD", "x")
    code, out, err = run_cli(capsys, "info", "--kind", "dihedral", "--factors", "3")
    assert code == EXIT_INVALID_SPEC and out == ""
    assert err == "error: TERW_GUARD must be an integer, got 'x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dims", "--kind", "dihedral", "--factors", "3", "--guard", "x"),
         "argument --guard: invalid int value: 'x'"),
        (("info", "--kind", "bogus"), "argument --kind: invalid choice: 'bogus'"),
        (("info", "--kind", "dihedral", "--factors", "3", "--bogus"),
         "unrecognized arguments: --bogus"),
        (("sweep", "--kind", "dihedral"), "the following arguments are required: --range"),
        ((), "the following arguments are required: command"),
    ],
)
def test_usage_errors_exit_1_not_the_mismatch_code(capsys, argv, message):
    # argparse's own exit code, 2, is the code of a verification mismatch
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_INVALID_SPEC
    assert err.startswith("usage: terw") and message in err.splitlines()[-1]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: terw verify")


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for command in ("info", "dims", "info"):
        assert run_cli(capsys, command, "--kind", "dihedral", "--factors", "3")[0] == EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_guard_help_names_the_default_guard(monkeypatch):
    # the help text is built from the constant, so it cannot drift from it
    monkeypatch.setattr(cli, "DEFAULT_MATRIX_GUARD", 4321)
    cli.build_parser.cache_clear()
    try:
        parser = cli.build_parser()
    finally:
        cli.build_parser.cache_clear()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    helps = [
        action.help
        for sub in subparsers.values()
        for action in sub._actions
        if "--guard" in action.option_strings
    ]
    assert len(helps) == len(subparsers)
    assert all("(default 4321, env TERW_GUARD)" in h for h in helps)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "general", "factors": [[3, 1]], "s": 2},
        {"kind": "dicyclic", "factors": [[2, 2]], "y": 2},
        {"kind": "dihedral", "factors": 5},
        {"kind": "g2", "n": 8, "s": [3], "t": 0},
        [{"kind": "dihedral", "factors": [[3, 1]]}],
    ],
)
def test_malformed_spec_file_is_one_error_line(tmp_path, capsys, spec):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    kind = spec["kind"] if isinstance(spec, dict) else "dihedral"
    code, out, err = run_cli(capsys, "info", "--spec", str(spec_file), "--kind", kind)
    assert code == EXIT_INVALID_SPEC and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and "Traceback" not in err


def test_malformed_json_flags_are_one_error_line(capsys):
    for flags in (["--factors", "[5]"], ["--factors", "[[3, 1]]", "--s", "[[2]]"]):
        code, _, err = run_cli(capsys, "info", "--kind", "general", *flags)
        assert code == EXIT_INVALID_SPEC
        [line] = err.splitlines()
        assert line.startswith("error: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--kind", "dihedral", "--factors", "2^x"],
            "--factors must be P^E terms joined by commas, e.g. 2^2,3, or a JSON list, got '2^x'",
        ),
        (
            ["--kind", "dicyclic", "--factors", "2^2", "--y", "1,z"],
            "--y must be integers joined by commas, e.g. 1,0, or a JSON list, got '1,z'",
        ),
        (["--kind", "g2", "--n", "8", "--s", "x", "--t", "0"], "--s must be an integer for g2, got 'x'"),
        (["--kind", "g2", "--n", "8", "--s", "3,", "--t", "0"], "--s must be an integer for g2, got '3,'"),
        (["--kind", "g2", "--n", "8x", "--s", "3", "--t", "0"], "--n must be an integer, got '8x'"),
    ],
)
def test_flag_values_that_are_not_integers_name_their_flag(capsys, flags, message):
    assert run_cli(capsys, "info", *flags) == (EXIT_INVALID_SPEC, "", f"error: {message}\n")


def test_wrong_length_s_exits_1_with_its_message(capsys):
    code, _, err = run_cli(
        capsys, "info", "--kind", "general", "--factors", "3,2^2", "--s", "2"
    )
    assert code == EXIT_INVALID_SPEC
    assert err == "error: --s needs 2 coordinates\n"


@pytest.mark.parametrize("bounds", ["5", "10:3", "3:x", "3:4:5"])
def test_sweep_range_must_be_lo_hi(capsys, bounds):
    code, out, err = run_cli(capsys, "sweep", "--kind", "dihedral", "--range", bounds)
    assert code == EXIT_INVALID_SPEC and out == ""
    assert err == f"error: --range must be LO:HI with integers LO <= HI, got {bounds!r}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "dihedral", "factors": [[2, 2]], "y": [1]}, "dihedral takes no y"),
        ({"kind": "g2", "n": 8, "s": 3, "t": 0, "factors": [[2, 3]]}, "g2 takes no factors"),
        ({"kind": "general", "factors": [[3, 1]], "s": [2], "n": 3}, "general takes no n"),
        ({"kind": "dicyclic", "factors": [[2, 2]], "y": [2], "t": 0}, "dicyclic takes no t"),
        ({"kind": "dihedral", "factors": [[3, 1]], "n": 3, "t": 0}, "dihedral takes no n, t"),
        ({"kind": "dicyclic", "factors": [[2, 2]], "y": [2], "s": [3]}, "dicyclic takes no s"),
        ({"kind": "dihedral", "factors": [[2, 3]], "fators": [[3, 1]]}, "dihedral takes no fators"),
    ],
)
def test_fields_the_kind_does_not_take_are_rejected(tmp_path, capsys, spec, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    flags = ["--kind", spec["kind"]]
    for key, value in spec.items():
        if key != "kind":
            text = json.dumps(value) if isinstance(value, list) else str(value)
            flags += [f"--{key}", text]
    runs = [["--spec", str(spec_file)]]
    if spec.keys() <= set(GroupSpec._fields):
        runs.append(flags)  # a key that is no field has no flag
    for argv in runs:
        code, out, err = run_cli(capsys, "info", *argv, "--format", "json")
        assert (code, out, err) == (EXIT_INVALID_SPEC, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("kind", [["dihedral"], {"dihedral": 1}, 3])
def test_a_kind_that_is_no_name_is_an_unknown_kind(tmp_path, capsys, kind):
    # no --kind flag, so the file's kind is read: an unhashable one too
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"kind": kind, "factors": [[3, 1]]}))
    code, out, err = run_cli(capsys, "info", "--spec", str(spec_file))
    assert (code, out, err) == (EXIT_INVALID_SPEC, "", f"error: unknown kind {kind!r}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kind", "dicyclic", "--factors", "2^2"], "dicyclic needs --y"),
        (["--kind", "g2", "--s", "3"], "g2 needs --n and --t"),
        (["--kind", "general", "--y", "1"], "general needs --factors and --s"),
        (["--kind", "dihedral", "--factors", "[]"], "dihedral needs --factors"),
    ],
)
def test_missing_fields_are_named(capsys, flags, message):
    assert run_cli(capsys, "info", *flags) == (EXIT_INVALID_SPEC, "", f"error: {message}\n")


def test_guard_minimum(capsys):
    code, _, _ = run_cli(
        capsys, "dims", "--kind", "dihedral", "--factors", "3", "--guard", "2"
    )
    assert code == EXIT_INVALID_SPEC


# -- one writer and one check runner ------------------------------------------------

S3 = ["--kind", "dihedral", "--factors", "3"]


def test_json_is_compact_one_line(capsys):
    code, out, _ = run_cli(capsys, "chartable", *S3, "--format", "json")
    assert code == EXIT_OK
    assert out.count("\n") == 1 and out.endswith("}\n")
    assert json.loads(out)["name"] == "Dih(C3)"


def test_dims_mismatch_names_the_check(capsys, monkeypatch):
    real = cli.is_triply_transitive

    def off_by_one(*args, **kwargs):
        report = real(*args, **kwargs)
        return report._replace(dim_centralizer=report.dim_centralizer + 1)

    monkeypatch.setattr(cli, "is_triply_transitive", off_by_one)
    code, out, _ = run_cli(capsys, "dims", *S3)
    assert code == EXIT_MISMATCH
    payload = json.loads(out)  # a mismatch is reported as JSON whatever the format
    assert payload["mismatch"] is True and payload["ok"] is False
    assert payload["dim_centralizer"] == 12
    [check] = payload["checks"]
    assert check["check"] == "dimensions" and check["ok"] is False
    assert "dimension paths disagree" in check["detail"]


def test_verify_mismatch_names_the_check(capsys, monkeypatch):
    def broken(group, table):
        raise OrthogonalityFailure("character certificate failed for rows 0 and 1: (b) equal")

    monkeypatch.setattr(cli, "verify_orthogonality", broken)
    code, out, _ = run_cli(capsys, "verify", *S3, "--format", "json")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert payload["mismatch"] is True and payload["ok"] is False
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert [c["check"] for c in failed] == ["orthogonality"]
    assert "character certificate failed for rows 0 and 1" in failed[0]["detail"]
    assert len(payload["checks"]) == 6  # the other checks still ran


def test_verify_reports_a_broken_closure_certificate(capsys, monkeypatch):
    import terw.closure

    def shifted(group):
        table = class_index_table(group).copy()
        table[0, 1] = (table[0, 1] + 1) % len(conjugacy_classes(group))
        return table

    monkeypatch.setattr(terw.closure, "class_index_table", shifted)
    code, out, _ = run_cli(capsys, "verify", *S3, "--format", "json")
    assert code == EXIT_MISMATCH
    failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
    # the scheme axioms read the same certificate
    assert [c["check"] for c in failed] == ["scheme_axioms", "dimensions"]
    assert "conjugation by ((0,), 1) changes" in failed[0]["detail"]
    assert "conjugation does not preserve" in failed[1]["detail"]


def test_verify_reports_a_wrong_inverse_as_a_scheme_axiom_failure(capsys, monkeypatch):
    # the class-index table reads the inverses off the normal form; with two
    # coset entries swapped, the axioms, whose oracle is built by group.mul,
    # must fail
    real = terw.groups.inverses

    def swapped(group):
        inv = real(group).copy()
        inv[[group.n, group.n + 1]] = inv[[group.n + 1, group.n]]
        return inv

    for name, module in list(sys.modules.items()):
        if name.startswith("terw") and getattr(module, "inverses", None) is real:
            monkeypatch.setattr(module, "inverses", swapped)
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "dihedral", "--factors", "2^2", "--format", "json"
    )
    assert code == EXIT_MISMATCH
    failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
    # the conjugation certificate reads the same table
    assert [c["check"] for c in failed] == ["scheme_axioms", "dimensions"]
    assert failed[0]["detail"].startswith("scheme axiom (iii) failed")


def test_oracle_mismatch_in_classes_and_chartable(capsys, monkeypatch):
    real = cli.conjugacy_classes_bruteforce

    def reversed_order(*args, **kwargs):
        classes = real(*args, **kwargs)
        labels = len(classes) - 1 - classes.labels
        return ClassList(classes.classes[::-1], labels, classes.reps[::-1])

    monkeypatch.setattr(cli, "conjugacy_classes_bruteforce", reversed_order)
    code, out, _ = run_cli(capsys, "classes", *S3, "--oracle")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["checks"][0]["check"] == "conjugacy_classes"

    def broken(group, table):
        raise OrthogonalityFailure("character certificate failed for row 1")

    monkeypatch.setattr(cli, "verify_orthogonality", broken)
    code, out, _ = run_cli(capsys, "chartable", *S3, "--oracle")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["checks"][0]["check"] == "orthogonality"


def test_wedderburn_mismatch_names_the_check(capsys, monkeypatch):
    def planted(group):
        raise MultiplicityMismatch("planted")

    monkeypatch.setattr(cli, "wedderburn_report", planted)
    code, out, _ = run_cli(capsys, "wedderburn", *S3, "--format", "json")
    assert code == EXIT_MISMATCH
    payload = json.loads(out)
    assert payload["mismatch"] is True and payload["ok"] is False
    assert payload["name"] == "Dih(C3)" and payload["order"] == 6
    assert payload["checks"] == [{"check": "wedderburn", "ok": False, "detail": "planted"}]


def test_a_wrong_class_size_is_a_mismatch(capsys, monkeypatch):
    # the centralizer orders are counted on the representative rows and
    # weighted by the class sizes, so a class list with one size wrong
    # disagrees with them; the guard keeps the closure out.  On D4 the
    # planted size 3 of class 2 ({a, a^3}, centralizer order 4) keeps the
    # weighted sum divisible by |G|, so both commands reach their comparison
    import terw.conjugacy

    real = terw.conjugacy.conjugacy_classes.__wrapped__

    def one_size_wrong(group):
        classes = real(group)
        wrong = classes[2]._replace(size=3)
        return ClassList((*classes[:2], wrong, *classes[3:]), classes.labels, classes.reps)

    monkeypatch.setattr(terw.conjugacy.conjugacy_classes, "__wrapped__", one_size_wrong)
    argv = ["--kind", "dihedral", "--factors", "2^2", "--guard", "6", "--format", "json"]
    details = {}
    for command in ("dims", "wedderburn"):
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == EXIT_MISMATCH
        (check,) = json.loads(out)["checks"]
        details[command] = check["detail"]
    assert details["dims"] == "dimension paths disagree: (28, 28, 30, None)"
    assert details["wedderburn"] == "class 2: centralizer order 4 inconsistent with class size 3"


def test_a_wrong_centralizer_order_fails_the_wedderburn_check(capsys, monkeypatch):
    # the orbit-stabilizer count |C_G(r_k)| |Cl_k| = |G| of permutation_character
    # is evidence of its own: a centralizer order planted one too high is named
    # by both commands, in the wedderburn check and nowhere else
    import terw.wedderburn

    group = GroupSpec(kind="dihedral", factors=[[3, 1]]).build()
    rows, orders = terw.wedderburn.rep_products(group)
    k = len(orders) - 2
    cent = orders.copy()
    cent[k] += 1
    monkeypatch.setattr(terw.wedderburn, "rep_products", lambda _: (rows, cent))
    for command in ("wedderburn", "verify"):
        code, out, _ = run_cli(capsys, command, *S3, "--format", "json")
        assert code == EXIT_MISMATCH
        (failed,) = [c for c in json.loads(out)["checks"] if not c["ok"]]
        assert failed["check"] == "wedderburn"
        assert failed["detail"].startswith(f"class {k}: centralizer order"), command


def test_merged_orbits_are_a_mismatch(capsys, monkeypatch):
    # two orbits of one block merged: the sandwich count reaches the planted
    # cap, one below the centralizer dimension, so the paths disagree
    import terw.closure

    real = terw.closure.conjugation_orbitals.__wrapped__

    def merged(group):
        orb = real(group)
        classes = conjugacy_classes(group)
        blocks = classes.labels[orb.reps[0]] * len(classes) + classes.labels[orb.reps[1]]
        _, first, counts = np.unique(blocks, return_index=True, return_counts=True)
        keep = int(first[np.argmax(counts > 1)])
        gone = int(np.flatnonzero(blocks == blocks[keep])[1])
        labels = np.where(orb.labels == gone, keep, orb.labels)
        labels -= labels > gone
        reps = np.delete(orb.reps, gone, axis=1)
        return terw.closure.Orbitals(orb.count - 1, labels, reps)

    monkeypatch.setattr(terw.closure.conjugation_orbitals, "__wrapped__", merged)
    code, out, _ = run_cli(capsys, "verify", *S3, "--format", "json")
    assert code == EXIT_MISMATCH
    failed = [c for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed == [
        {"check": "dimensions", "ok": False, "detail": "dimension paths disagree: (11, 11, 11, 10)"}
    ]


def test_verify_and_wedderburn_check_orbit_stabilizer_not_inner_products(capsys, monkeypatch):
    # the inner-product weights |Cl_k| psi_k are |G| once permutation_character
    # has checked them, so each command runs that check once and no inner product
    import terw.wedderburn

    calls = Counter()

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("multiplicities_inner_product", "permutation_character"):
        monkeypatch.setattr(terw.wedderburn, name, counting(name, getattr(terw.wedderburn, name)))
    for command in ("verify", "wedderburn"):
        calls.clear()
        code, _, _ = run_cli(capsys, command, *S3)
        assert code == EXIT_OK
        assert calls == {"permutation_character": 1}, command


def _sweep_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_sweep_isolates_guarded_rows(capsys, monkeypatch):
    import terw.scheme

    monkeypatch.setattr(terw.scheme, "ENUMERATION_LIMIT", 20)
    code, out, _ = run_cli(capsys, "sweep", "--kind", "dihedral", "--range", "3:12")
    assert code == EXIT_GUARD
    rows = _sweep_rows(out)
    assert [int(r["order"]) for r in rows] == [2 * n for n in range(3, 13)]
    for row in rows:
        if int(row["order"]) > 20:
            assert "enumeration limit" in row["detail"]
            assert row["dim_t0"] == row["triply_transitive"] == row["wedderburn_ok"] == ""
        else:
            assert row["detail"] == ""
            assert row["triply_transitive"] == row["wedderburn_ok"] == "True"


def test_sweep_oracle_guards_rows_above_the_matrix_guard(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "dihedral", "--range", "6:10",
        "--guard", "16", "--oracle", "--format", "json",
    )
    assert code == EXIT_GUARD
    rows = json.loads(out)
    # orders 12 to 20: the closure runs up to the guard, and above it
    # --oracle turns the skipped closure into a guarded row
    assert [r["dim_closure"] is None for r in rows] == [False, False, False, True, True]
    assert [r["detail"] is None for r in rows] == [True, True, True, False, False]


def test_sweep_mismatch_outranks_guard_and_keeps_its_message(capsys, monkeypatch):
    import terw.scheme

    real = cli.wedderburn_report

    def fails_on_d4(group, *args, **kwargs):
        if group.order == 8:
            raise MultiplicityMismatch("planted on D4")
        return real(group, *args, **kwargs)

    monkeypatch.setattr(cli, "wedderburn_report", fails_on_d4)
    monkeypatch.setattr(terw.scheme, "ENUMERATION_LIMIT", 9)
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "dihedral", "--range", "3:5", "--format", "json"
    )
    assert code == EXIT_MISMATCH
    rows = json.loads(out)
    assert [r["wedderburn_ok"] for r in rows] == [True, False, None]
    assert rows[1]["detail"] == "wedderburn: planted on D4"
    assert rows[1]["dim_t0"] == 28
    assert "enumeration limit" in rows[2]["detail"]
