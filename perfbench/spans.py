"""Spans around the public functions of each terw module, recorded from outside.

Each terw module is a layer.  The tracer replaces a function with a wrapper
that records a span (name, start, end, parent span, instance) and rebinds
the wrapper in every ``terw`` module that binds the original, because the
modules import each other with ``from .x import f``.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

Self time is a span's duration minus the duration of its direct children;
the program is single-threaded, so children never overlap and there is no
waiting to record.  Beside spans, the tracer counts calls of
``SparseRationalBasis.insert`` (the exact-rank layer) and how many of them
grew the basis, and checks each closure result against the orbit count.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> public functions that get a span.  ``install`` raises if one is
# missing, so that a rename cannot pass for a layer that costs nothing.
SPANNED = {
    "cli": ["main"],
    "groups": ["index_tables"],
    "conjugacy": [
        "conjugacy_classes",
        "conjugacy_classes_bruteforce",
        "class_index_table",
        "class_products",
        "structure_tensor",
    ],
    "characters": ["character_table", "verify_orthogonality"],
    "scheme": ["is_triply_transitive", "dim_t0", "dim_centralizer", "verify_scheme_axioms"],
    "closure": [
        "conjugation_orbitals",
        "terwilliger_closure_dim",
        "closure_dim_in_orbit_coords",
        "algebra_dimension",
    ],
    "wedderburn": [
        "wedderburn_report",
        "multiplicities_char_sum",
        "multiplicities_inner_product",
        "verify_central_idempotents",
        "central_idempotent",
    ],
}


def span_name(module: str, func: str) -> str:
    # the command line is one layer with one entry point
    return "cli" if module == "cli" else f"{module}.{func}"


SPAN_NAMES = [span_name(m, f) for m, funcs in SPANNED.items() for f in funcs]

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES for kind, unit in
       (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "closure.basis_inserts": "count",
    "closure.basis_inserts_useful": "count",
    "closure.insert_yield": "ratio",
    "closure.cap_reached_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _terw_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "terw" or name.startswith("terw."))]


def _require(owner, owner_name: str, attr: str):
    value = getattr(owner, attr, None)
    if value is None:
        raise LookupError(f"{owner_name}.{attr} not found: update SPANNED in perfbench/spans.py")
    return value


class Tracer:
    """Spans and counters for one run, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, instance)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.instance = -1  # sequence number of the instance being run
        self.orbit_count = 0  # expected orbit count of that instance
        self.inserts = 0
        self.inserts_useful = 0
        self.closure_calls = 0
        self.closure_capped = 0

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)

        return wrapper

    def _closure_result(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dim = fn(*args, **kwargs)
            self.closure_calls += 1
            self.closure_capped += dim == self.orbit_count
            return dim

        return wrapper

    def _insert(self, fn):
        @functools.wraps(fn)
        def wrapper(basis, vec):
            grew = fn(basis, vec)
            self.inserts += 1
            self.inserts_useful += bool(grew)
            return grew

        return wrapper

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        """Rebind every spanned function in every loaded terw module."""
        modules = _terw_modules()
        for mod_name, funcs in SPANNED.items():
            module = sys.modules.get(f"terw.{mod_name}")
            for func in funcs:
                orig = _require(module, f"terw.{mod_name}", func)
                wrapped = self._span(span_name(mod_name, func), orig)
                if func == "terwilliger_closure_dim":
                    wrapped = self._closure_result(wrapped)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, orig, wrapped)
        basis = _require(sys.modules.get("terw.closure"), "terw.closure", "SparseRationalBasis")
        insert = _require(basis, "terw.closure.SparseRationalBasis", "insert")
        self._patch(basis, "insert", insert, self._insert(insert))

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, instances: int) -> dict[str, float]:
        """Per-instance calls, busy time and self time of every span name.

        Busy time counts only spans with no enclosing span of the same name.
        """
        spans = self.spans  # complete: every wrapper has returned
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("calls", "busy_s", "self_s")}
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[f"{name}.busy_s"] += end - start
        per = max(instances, 1)
        out = {k: v / per for k, v in out.items()}
        out["closure.basis_inserts"] = self.inserts / per
        out["closure.basis_inserts_useful"] = self.inserts_useful / per
        out["closure.insert_yield"] = self.inserts_useful / self.inserts if self.inserts else 0.0
        out["closure.cap_reached_frac"] = (
            self.closure_capped / self.closure_calls if self.closure_calls else 0.0
        )
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, instance."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
