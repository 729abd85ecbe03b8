"""Command-line front end, a thin layer over the library.

Subcommands: ``info``, ``classes``, ``chartable``, ``dims``, ``wedderburn``,
``verify`` (everything, oracles forced on), and ``sweep`` (iterate a family
over a parameter range, one CSV row per instance).  A group is described by
flags or a JSON spec file with fields ``kind`` (general | dihedral |
dicyclic | g2), ``factors`` (list of [p, e]), ``s``/``y`` (integer vectors
for the general and dicyclic kinds), and ``n``/``s``/``t`` integers for the
g2 kind (``KINDS``; any other key is an invalid spec, named in its error); flags
override file values, and each kind is built by its one constructor in
``terw.groups``.  The parser is built once per process, and
the parsed arguments are the whole run configuration: the commands read
``--format``, ``--oracle``, ``--guard`` and ``--out`` from them, and
``TERW_GUARD`` is read once per call, when ``--guard`` is absent.  Exit
codes: 0 success, 1 invalid spec or command line, 2 verification mismatch,
3 resource guard exceeded.  ``sweep`` reports every row, with the message
of a failed check or of a guard in its ``detail`` column, and exits 2 if
any row mismatched, else 3 if any row hit a guard.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from collections import namedtuple
from typing import Any, Sequence

from .characters import character_table, elem_json, verify_orthogonality
from .conjugacy import conjugacy_classes, conjugacy_classes_bruteforce
from .errors import (
    GuardExceededError,
    InvalidGroupError,
    OracleMismatch,
    TerwError,
    VerificationFailure,
)
from .groups import D2Group, dicyclic, dihedral, g2_group, general
from .limits import DEFAULT_MATRIX_GUARD, MIN_GUARD
from .scheme import dump_matrices, is_triply_transitive, verify_scheme_axioms
from .wedderburn import verify_central_idempotents, wedderburn_report

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_MISMATCH = 2
EXIT_GUARD = 3

KINDS = {  # the spec fields each kind takes, beside ``kind``, in constructor order
    "general": ("factors", "s", "y"),
    "dihedral": ("factors",),
    "dicyclic": ("factors", "y"),
    "g2": ("n", "s", "t"),
}


def _integer(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidGroupError(f"{name} must be an integer, got {value!r}")
    return value


def _integers(value: Any, name: str) -> list[int]:
    if not isinstance(value, list):
        raise InvalidGroupError(f"{name} must be a list of integers, got {value!r}")
    return [_integer(v, name) for v in value]


def _factor_pairs(value: Any, name: str) -> list[list[int]]:
    if not isinstance(value, list) or not all(isinstance(f, list) and len(f) == 2 for f in value):
        raise InvalidGroupError(f"{name} must be a list of [p, e] pairs, got {value!r}")
    return [_integers(f, name) for f in value]


class GroupSpec(namedtuple("GroupSpec", "kind factors s y n t", defaults=(None,) * 5)):
    """Parsed description of one group instance.

    ``kind`` is a str; every other field defaults to None: ``factors`` is a
    list[list[int]], ``s`` a list[int] for general and an int for g2, ``y``
    a list[int], ``n`` and ``t`` ints.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}

    @staticmethod
    def from_dict(data: dict) -> "GroupSpec":
        kind = data.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise InvalidGroupError(f"unknown kind {kind!r}")
        shapes = {
            "factors": _factor_pairs,
            "s": _integer if kind == "g2" else _integers,
            "y": _integers,
            "n": _integer,
            "t": _integer,
        }
        extra = [k for k in data if k != "kind" and k not in KINDS[kind]]
        if extra:
            raise InvalidGroupError(f"{kind} takes no {', '.join(extra)}")
        return GroupSpec(kind, **{k: shape(data[k], k) for k, shape in shapes.items() if k in data})

    def build(self) -> D2Group:
        """The group, from the constructor of its kind, which takes the
        kind's fields in ``KINDS`` order; only the ``y`` of general is optional."""
        fields = KINDS[self.kind]
        required = fields[:2] if self.kind == "general" else fields
        missing = [f"--{k}" for k in required if getattr(self, k) in (None, [])]
        if missing:
            raise InvalidGroupError(f"{self.kind} needs {' and '.join(missing)}")
        make = {"general": general, "dihedral": dihedral, "dicyclic": dicyclic, "g2": g2_group}
        return make[self.kind](*(getattr(self, k) for k in fields))


# -- parsing -------------------------------------------------------------------


def _parse_factors(text: str) -> list:
    """[p, e] pairs from "2^2,3"; a JSON list is left for ``from_dict`` to check."""
    if text.strip().startswith("["):
        return json.loads(text)
    pairs = [token.partition("^") for token in text.split(",")]
    return [[int(p), int(e) if sep else 1] for p, sep, e in pairs]


def _parse_int_vector(text: str) -> list:
    return json.loads(text) if text.strip().startswith("[") else [int(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown flag, missing or malformed value) exits 1, the
    invalid-spec code, not argparse's 2, which here means a mismatch.  The
    subparsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_SPEC, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = _Parser(
        prog="terw",
        description="Association scheme and Terwilliger-algebra computations "
        "for groups with an abelian subgroup of index 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec_flags: bool = True,
                   formats: Sequence[str] = ("text", "json", "csv")):
        if spec_flags:
            p.add_argument("--spec", help="JSON file with the group description")
            p.add_argument("--kind", choices=KINDS)
            p.add_argument("--factors", help='factor list, e.g. "2^2,3" or "[[2,2],[3,1]]"')
            p.add_argument("--s", help="twist vector (general) or integer (g2)")
            p.add_argument("--y", help="square of b as an exponent vector")
            p.add_argument("--n", help="cyclic order (g2)")
            p.add_argument("--t", help="exponent of b^2 (g2)")
        p.add_argument("--format", dest="fmt", choices=formats, default="text")
        p.add_argument("--oracle", action="store_true", help="force brute-force cross-checks")
        p.add_argument(
            "--guard",
            type=int,
            default=None,
            help=f"max group order for matrix paths (default {DEFAULT_MATRIX_GUARD}, "
            "env TERW_GUARD)",
        )
        p.add_argument("--out", help="write the report to this file instead of stdout")

    for name, doc in [
        ("info", "group invariants: n, d, per-factor d_i/n_i, lambda, mu"),
        ("classes", "conjugacy classes"),
        ("chartable", "character table"),
        ("dims", "all dimension paths and the triple-transitivity verdict"),
        ("wedderburn", "block multiplicities: closed form against the character sums"),
        ("verify", "run every check with oracles forced on"),
    ]:
        p = sub.add_parser(name, help=doc)
        add_common(p, formats=("text", "json") if name == "verify" else ("text", "json", "csv"))
        if name == "classes":
            p.add_argument(
                "--dump-matrices",
                help="also write the scheme matrices and dual idempotents to this file",
            )

    p = sub.add_parser("sweep", help="iterate a family over a parameter range (CSV rows)")
    p.add_argument("--kind", choices=["dihedral", "dicyclic", "g2"], required=True)
    p.add_argument("--range", required=True, help="LO:HI inclusive parameter range")
    add_common(p, spec_flags=False)
    return parser


def _load_spec(args: argparse.Namespace) -> GroupSpec:
    data: dict = {}
    if args.spec:
        with open(args.spec) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise InvalidGroupError("a spec file holds one JSON object")
    if args.kind:
        data["kind"] = args.kind
    vector = (_parse_int_vector, "integers joined by commas, e.g. 1,0, or a JSON list")
    flags = {
        "factors": (_parse_factors, "P^E terms joined by commas, e.g. 2^2,3, or a JSON list"),
        "s": (int, "an integer for g2") if data.get("kind") == "g2" else vector,
        "y": vector,
        "n": (int, "an integer"),
        "t": (int, "an integer"),
    }
    for name, (parse, form) in flags.items():
        if (text := getattr(args, name)) is not None:
            try:
                data[name] = parse(text)
            except ValueError:  # int() and json.loads raise it
                raise InvalidGroupError(f"--{name} must be {form}, got {text!r}") from None
    if "kind" not in data:
        raise InvalidGroupError("no group kind given (flag --kind or spec file)")
    return GroupSpec.from_dict(data)


# -- reports and checks ------------------------------------------------------------

DIM_KEYS = ("dim_t0", "dim_closed_form", "dim_centralizer", "dim_closure")
SWEEP_CHECK_FIELDS = (*DIM_KEYS, "triply_transitive", "wedderburn_ok")


def _write(args: argparse.Namespace, *chunks: str) -> None:
    """The one place a report leaves the program: the ``--out`` file or
    stdout.  The chunks are written in order, so that a large report is
    never copied to append its newline."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json(payload: Any) -> str:
    return json.dumps(payload) + "\n"


def _csv(keys: Sequence[str], rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(keys)
    writer.writerows([row[k] for k in keys] for row in rows)
    return buf.getvalue()


def _emit(payload: Any, args: argparse.Namespace, text=None, table=None) -> int:
    """Write the payload as ``--format`` asks: compact JSON, ``text(payload)``,
    or the CSV of ``table(payload)``, a (keys, rows) pair."""
    if args.fmt == "json":
        body = _json(payload)
    elif args.fmt == "csv":
        body = _csv(*table(payload))
    else:
        body = text(payload)
    _write(args, body)
    return EXIT_OK


def _head(spec: GroupSpec, group: D2Group) -> dict:
    return {"spec": spec.to_dict(), "name": group.name, "order": group.order}


class Checks:
    """Named checks run in order.  A ``VerificationFailure`` fails its own
    check and the run goes on; each result is {"check", "ok"[, "detail"]}."""

    def __init__(self):
        self.results: list[dict] = []

    def run(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None if it raised a VerificationFailure."""
        try:
            value = fn(*args, **kwargs)
        except VerificationFailure as exc:
            self.results.append({"check": name, "ok": False, "detail": str(exc)})
            return None
        self.results.append({"check": name, "ok": True})
        return value

    @property
    def failed(self) -> list[dict]:
        return [r for r in self.results if not r["ok"]]


def _mismatch(head: dict, checks: Checks, args: argparse.Namespace) -> int:
    """Report failed checks, always as JSON."""
    _write(args, _json({"mismatch": True, **head, "checks": checks.results, "ok": False}))
    return EXIT_MISMATCH


def _classes_agree(group: D2Group, guard: int) -> None:
    # both lists are in the canonical order, so equal labels are equal partitions
    brute = conjugacy_classes_bruteforce(group, guard=guard)
    if (brute.labels != conjugacy_classes(group).labels).any():
        raise OracleMismatch("closed-form and brute-force partitions differ")


def _dimensions_agree(group: D2Group, args: argparse.Namespace, into: dict) -> None:
    """Every computed dimension path gives the same value and the
    triple-transitivity verdict holds; the values are stored in ``into``."""
    report = is_triply_transitive(group, guard=args.guard, need_closure=args.oracle)
    into.update(zip(DIM_KEYS, report.as_tuple()), triply_transitive=report.triply_transitive)
    if len({v for v in report.as_tuple() if v is not None}) != 1 or not report.triply_transitive:
        raise OracleMismatch(f"dimension paths disagree: {report.as_tuple()}")


# -- commands ---------------------------------------------------------------------


def cmd_info(spec: GroupSpec, args: argparse.Namespace) -> int:
    group = spec.build()
    fx = group.fixed
    payload = {
        **_head(spec, group),
        "n": group.n,
        "d": group.d,
        "d_i": list(fx.d_vec),
        "n_i": list(fx.n_vec),
        "lambda": group.abelian.lam,
        "mu": group.abelian.mu,
        "fixed_subgroup_size": group.d,
        "twisted_subgroup_size": fx.twisted_size,
    }
    return _emit(
        payload,
        args,
        lambda p: "".join(f"{k}: {v}\n" for k, v in p.items() if k != "spec"),
        lambda p: ([k for k in p if k != "spec"], [p]),
    )


def cmd_classes(spec: GroupSpec, args: argparse.Namespace) -> int:
    group = spec.build()
    classes = conjugacy_classes(group)
    head = _head(spec, group)
    if args.oracle:
        checks = Checks()
        checks.run("conjugacy_classes", _classes_agree, group, args.guard)
        if checks.failed:
            return _mismatch(head, checks, args)
    members = iter(group.elements_at(classes.labels.argsort(kind="stable")))  # class by class
    payload = {
        **head,
        "counts": dict(zip(("fixed", "paired", "coset"), classes.counts)),
        "classes": [
            {
                "index": c.index,
                "kind": c.kind,
                "size": c.size,
                "rep": elem_json(c.rep),
                "elements": [elem_json(next(members)) for _ in range(c.size)],
            }
            for c in classes
        ],
    }
    if args.dump_matrices:
        dump = dump_matrices(group, guard=args.guard)  # a guard error leaves the file as it was
        with open(args.dump_matrices, "w") as fh:
            fh.write(dump)

    def text(p):
        lines = [f"{p['name']}: {len(p['classes'])} classes {p['counts']}"]
        for c in p["classes"]:
            lines.append(f"  [{c['index']:>2}] {c['kind']:<6} size {c['size']:>3} rep {c['rep']}")
        return "\n".join(lines) + "\n"

    def table(p):
        rows = [{**c, "rep": json.dumps(c["rep"])} for c in p["classes"]]
        return ["index", "kind", "size", "rep"], rows

    return _emit(payload, args, text, table)


def cmd_chartable(spec: GroupSpec, args: argparse.Namespace) -> int:
    group = spec.build()
    table = character_table(group)
    if args.oracle:
        checks = Checks()
        checks.run("orthogonality", verify_orthogonality, group, table)
        if checks.failed:
            return _mismatch(_head(spec, group), checks, args)
    if args.fmt == "json":
        _write(args, table.to_json({"spec": spec.to_dict(), "name": group.name}), "\n")
    elif args.fmt == "csv":
        _write(args, table.to_csv())
    else:
        _write(args, table.to_text(), "\n")
    return EXIT_OK


def cmd_dims(spec: GroupSpec, args: argparse.Namespace) -> int:
    group = spec.build()
    payload = _head(spec, group)
    checks = Checks()
    checks.run("dimensions", _dimensions_agree, group, args, payload)
    if checks.failed:
        return _mismatch(payload, checks, args)
    keys = (*DIM_KEYS, "triply_transitive")
    return _emit(
        payload,
        args,
        lambda p: f"{p['name']}: " + ", ".join(f"{k}={p[k]}" for k in keys) + "\n",
        lambda p: (["name", "order", *keys], [p]),
    )


def cmd_wedderburn(spec: GroupSpec, args: argparse.Namespace) -> int:
    group = spec.build()
    checks = Checks()
    report = checks.run("wedderburn", wedderburn_report, group)
    if checks.failed:
        return _mismatch(_head(spec, group), checks, args)
    payload = {"spec": spec.to_dict(), **report.to_json_dict()}

    def text(p):
        lines = [
            f"{p['group']}: blocks {p['blocks']}",
            f"sum d^2 = {p['sum_d_squared']} = centralizer dim {p['centralizer_dim']}",
            f"sum d*deg = {p['sum_d_times_degree']} = |G| = {p['order']}",
        ]
        for c in p["characters"]:
            lines.append(f"  {c['label']:<16} deg {c['degree']}  mult {c['multiplicity']}")
        return "\n".join(lines) + "\n"

    return _emit(
        payload, args, text, lambda p: (["label", "degree", "multiplicity"], p["characters"])
    )


def cmd_verify(spec: GroupSpec, args: argparse.Namespace) -> int:
    args.oracle = True
    group = spec.build()
    checks = Checks()
    checks.run("conjugacy_classes", _classes_agree, group, args.guard)
    checks.run("scheme_axioms", verify_scheme_axioms, group, guard=args.guard)
    table = character_table(group)
    checks.run("orthogonality", verify_orthogonality, group, table)
    checks.run("dimensions", _dimensions_agree, group, args, {})
    report = checks.run("wedderburn", wedderburn_report, group)
    if report is not None:
        checks.run("central_idempotents", verify_central_idempotents, group, table,
                   report.closed_form)
    head = _head(spec, group)
    if checks.failed:
        return _mismatch(head, checks, args)

    def text(p):
        lines = [f"{p['name']}: all {len(p['checks'])} checks passed"]
        lines.extend(f"  ok {c['check']}" for c in p["checks"])
        return "\n".join(lines) + "\n"

    return _emit({**head, "checks": checks.results, "ok": True}, args, text)


def cmd_sweep(args: argparse.Namespace) -> int:
    bounds = re.fullmatch(r"(-?\d+):(-?\d+)", args.range)
    if not bounds or int(bounds[1]) > int(bounds[2]):
        raise InvalidGroupError(f"--range must be LO:HI with integers LO <= HI, got {args.range!r}")
    lo, hi = int(bounds[1]), int(bounds[2])
    rows = []
    mismatched = guarded = False
    for spec in _sweep_specs(args.kind, lo, hi):
        group = spec.build()
        row = {
            "kind": spec.kind,
            "params": json.dumps(spec.to_dict()),
            "order": group.order,
            "n": group.n,
            "d": group.d,
            **dict.fromkeys(SWEEP_CHECK_FIELDS),
        }
        checks, guard_hit = Checks(), []
        try:
            checks.run("dimensions", _dimensions_agree, group, args, row)
            row["wedderburn_ok"] = checks.run("wedderburn", wedderburn_report, group) is not None
        except GuardExceededError as exc:
            row.update(dict.fromkeys(SWEEP_CHECK_FIELDS))
            guard_hit.append(str(exc))
        mismatched |= bool(checks.failed)
        guarded |= bool(guard_hit)
        notes = [f"{c['check']}: {c['detail']}" for c in checks.failed] + guard_hit
        row["detail"] = "; ".join(notes) or None
        rows.append(row)

    def table(payload):
        return (list(payload[0]) if payload else []), payload

    _emit(rows, args, lambda payload: _csv(*table(payload)), table)
    return EXIT_MISMATCH if mismatched else EXIT_GUARD if guarded else EXIT_OK


def _sweep_specs(kind: str, lo: int, hi: int) -> list[GroupSpec]:
    from .groups import factorize
    from .instances import g2_parameter_triples

    specs = []
    if kind == "dihedral":
        for n in range(max(lo, 3), hi + 1):
            specs.append(GroupSpec(kind="dihedral", factors=[[p, e] for p, e in factorize(n)]))
    elif kind == "dicyclic":
        for n in range(max(lo, 4), hi + 1):
            if n % 2:
                continue
            factors = [[p, e] for p, e in factorize(n)]
            y = [p**e // 2 if p == 2 else 0 for p, e in factors]
            specs.append(GroupSpec(kind="dicyclic", factors=factors, y=y))
    else:
        for n, s, t in g2_parameter_triples(hi):
            if n >= lo:
                specs.append(GroupSpec(kind="g2", n=n, s=s, t=t))
    return specs


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.guard is None:
            text = os.environ.get("TERW_GUARD", str(DEFAULT_MATRIX_GUARD))
            try:
                args.guard = int(text)
            except ValueError:
                raise InvalidGroupError(f"TERW_GUARD must be an integer, got {text!r}") from None
        if args.guard < MIN_GUARD:
            raise InvalidGroupError(f"guard must be >= {MIN_GUARD}")
        if args.command == "sweep":
            return cmd_sweep(args)
        spec = _load_spec(args)
        handler = {
            "info": cmd_info,
            "classes": cmd_classes,
            "chartable": cmd_chartable,
            "dims": cmd_dims,
            "wedderburn": cmd_wedderburn,
            "verify": cmd_verify,
        }[args.command]
        return handler(spec, args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except VerificationFailure as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (TerwError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC


if __name__ == "__main__":
    sys.exit(main())
