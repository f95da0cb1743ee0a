"""Span tracer that wraps stabcheck's public functions from the outside.

`Tracer.install` replaces each traced function with a timing wrapper under
every name that refers to it in a loaded `stabcheck` module (so both
`distance.classify` and `cli.classify` are wrapped), and replaces traced
methods on their class.  `Tracer.uninstall` puts the originals back.

Each call records a span (name, start, end, parent, request id).  A call
that opened no traced call of its own is a leaf; leaves are folded into one
record per (parent span, name) holding the call count and the summed
duration, which keeps `syndrome_masks` (millions of calls per pass) within
memory while self times and counts stay exact.  `end_pass` closes the log of
one benchmark pass; all logs stay in memory until `write` dumps them.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter
from typing import Any, Callable

# (qualified name, module, attribute path inside the module, result hook).
# The hook pulls a work count out of the return value.
TRACED = (
    ("cli.main", "stabcheck.cli", "main", None),
    ("codefile.read_code_file", "stabcheck.codefile", "read_code_file", None),
    ("stabilizer.validate", "stabcheck.stabilizer", "validate", None),
    ("stabilizer.standard_form", "stabcheck.stabilizer", "standard_form", None),
    ("stabilizer.css_split", "stabcheck.stabilizer", "css_split", None),
    ("stabilizer.syndrome_masks", "stabcheck.stabilizer", "StabilizerCode.syndrome_masks", None),
    ("stabilizer.in_stabilizer_masks", "stabcheck.stabilizer", "StabilizerCode.in_stabilizer_masks", None),
    ("symplectic.PauliOperator.from_masks", "stabcheck.symplectic", "PauliOperator.from_masks", None),
    ("symplectic.row_reduce", "stabcheck.symplectic", "row_reduce", None),
    (
        "symplectic.smallest_dependent_subset",
        "stabcheck.symplectic",
        "smallest_dependent_subset",
        lambda r: {"visited": r.visited},
    ),
    ("degeneracy.classify", "stabcheck.degeneracy", "classify", None),
    ("degeneracy.sufficient_nondegenerate", "stabcheck.degeneracy", "sufficient_nondegenerate", None),
    ("degeneracy.necessary_check", "stabcheck.degeneracy", "necessary_check", None),
    ("degeneracy.css_nondegeneracy", "stabcheck.degeneracy", "css_nondegeneracy", None),
    ("degeneracy.standard_form_shortcut", "stabcheck.degeneracy", "standard_form_shortcut", None),
    ("distance.min_distance", "stabcheck.distance", "min_distance", None),
    ("distance.column_bounds", "stabcheck.distance", "column_bounds", None),
    ("distance.max_independence_order", "stabcheck.distance", "max_independence_order", None),
    ("channel.build_table", "stabcheck.channel", "build_table", lambda r: {"entries": r.covered}),
    ("channel.run", "stabcheck.channel", "run", None),
    ("channel.sample_error", "stabcheck.channel", "sample_error", None),
)

CRITERIA = (
    "degeneracy.sufficient_nondegenerate",
    "degeneracy.necessary_check",
    "degeneracy.css_nondegeneracy",
    "degeneracy.standard_form_shortcut",
)

ROOT_SPAN = 0


class Tracer:
    """Records spans of the traced stabcheck functions while installed."""

    def __init__(self) -> None:
        self.request = 0
        # full spans: (id, name, parent, request, start, end, attrs or None)
        self.spans: list[tuple] = []
        # folded leaves: (parent, name) -> [calls, total seconds]
        self.leaves: dict[tuple[int, str], list] = {}
        # closed pass logs: (spans, leaves)
        self.history: list[tuple[list, dict]] = []
        self._next_id = ROOT_SPAN
        self._stack = [ROOT_SPAN]
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            if hook is None and tracer._next_id == sid:
                acc = leaves.get((parent, name))
                if acc is None:
                    leaves[(parent, name)] = [1, end - start]
                else:
                    acc[0] += 1
                    acc[1] += end - start
            else:
                attrs = None if hook is None else hook(result)
                spans.append((sid, name, parent, tracer.request, start, end, attrs))
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "stabcheck" or k.startswith("stabcheck.")]
        for name, module_name, attr, hook in TRACED:
            owner = sys.modules[module_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            raw = owner.__dict__[path[-1]] if isinstance(owner, type) else getattr(owner, path[-1])
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                self._patch(owner, path[-1], raw, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, path[-1], raw, self._wrap(name, raw, hook))
            else:
                wrapped = self._wrap(name, raw, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, owner: Any, key: str, old: Any, new: Any) -> None:
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def end_pass(self) -> tuple[list, dict]:
        """Close the current pass log and return it as (spans, leaves)."""
        log = (list(self.spans), dict(self.leaves))
        self.history.append(log)
        self.spans.clear()
        self.leaves.clear()
        return log

    def write(self, path) -> None:
        """Dump every closed pass log as gzipped JSON lines.

        A span line is [pass, id, name, parent, request, start, end, attrs];
        a folded-leaf line is [pass, name, parent, calls, total seconds].
        """
        with gzip.open(path, "wt", compresslevel=1) as out:
            for index, (spans, leaves) in enumerate(self.history):
                for span in spans:
                    out.write(json.dumps([index, *span]) + "\n")
                for (parent, name), (calls, total) in leaves.items():
                    out.write(json.dumps([index, name, parent, calls, total]) + "\n")


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(spans: list, leaves: dict) -> dict[str, float]:
    """Per-layer self times and work counts of one pass log.

    Self time of a span is its duration minus the durations of its direct
    children (full spans and folded leaves alike).
    """
    names = {sid: name for sid, name, *_ in spans}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    child_time: dict[int, float] = {}
    attrs_total: dict[str, int] = {}
    by_parent: dict[tuple[str, str], int] = {}

    for sid, name, parent, _req, start, end, attrs in spans:
        calls[name] = calls.get(name, 0) + 1
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for key, value in (attrs or {}).items():
            attrs_total[f"{name}.{key}"] = attrs_total.get(f"{name}.{key}", 0) + value
    for (parent, name), (count, total) in leaves.items():
        calls[name] = calls.get(name, 0) + count
        self_s[name] = self_s.get(name, 0.0) + total
        child_time[parent] = child_time.get(parent, 0.0) + total
        key = (names.get(parent, ""), name)
        by_parent[key] = by_parent.get(key, 0) + count
    for sid, name, _parent, _req, start, end, _attrs in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)

    def c(name: str) -> int:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    sds = "symplectic.smallest_dependent_subset"
    sds_total = sum(end - start for _, name, _, _, start, end, _ in spans if name == sds)
    visited = attrs_total.get(f"{sds}.visited", 0)
    return {
        "channel.run.self_s": s("channel.run"),
        "channel.sample_error.calls": c("channel.sample_error"),
        "channel.sample_error.self_s": s("channel.sample_error"),
        "symplectic.PauliOperator.from_masks.calls": c("symplectic.PauliOperator.from_masks"),
        "symplectic.PauliOperator.from_masks.self_s": s("symplectic.PauliOperator.from_masks"),
        "channel.build_table.self_s": s("channel.build_table"),
        "channel.build_table.entries": attrs_total.get("channel.build_table.entries", 0),
        "channel.build_table.ops_scanned": by_parent.get(("channel.build_table", "stabilizer.syndrome_masks"), 0),
        "stabilizer.syndrome_masks.calls": c("stabilizer.syndrome_masks"),
        "stabilizer.syndrome_masks.self_s": s("stabilizer.syndrome_masks"),
        "stabilizer.in_stabilizer_masks.calls": c("stabilizer.in_stabilizer_masks"),
        "stabilizer.in_stabilizer_masks.self_s": s("stabilizer.in_stabilizer_masks"),
        "stabilizer.standard_form.calls": c("stabilizer.standard_form"),
        "stabilizer.standard_form.self_s": s("stabilizer.standard_form"),
        "stabilizer.css_split.calls": c("stabilizer.css_split"),
        "stabilizer.css_split.self_s": s("stabilizer.css_split"),
        "stabilizer.validate.self_s": s("stabilizer.validate"),
        f"{sds}.calls": c(sds),
        f"{sds}.visited": visited,
        f"{sds}.visits_per_s": visited / sds_total if sds_total > 0 else 0.0,
        "symplectic.row_reduce.calls": c("symplectic.row_reduce"),
        "symplectic.row_reduce.self_s": s("symplectic.row_reduce"),
        "degeneracy.classify.calls": c("degeneracy.classify"),
        "degeneracy.classify.self_s": s("degeneracy.classify"),
        "degeneracy.classify.errors_scanned": by_parent.get(("degeneracy.classify", "stabilizer.syndrome_masks"), 0),
        "degeneracy.criteria.self_s": sum(s(name) for name in CRITERIA),
        "distance.min_distance.self_s": s("distance.min_distance"),
        "distance.min_distance.ops_scanned": by_parent.get(("distance.min_distance", "stabilizer.syndrome_masks"), 0),
        "distance.column_bounds.calls": c("distance.column_bounds"),
        "distance.column_bounds.self_s": s("distance.column_bounds"),
        "distance.max_independence_order.calls": c("distance.max_independence_order"),
        "codefile.read_code_file.calls": c("codefile.read_code_file"),
        "codefile.read_code_file.self_s": s("codefile.read_code_file"),
        "cli.main.self_s": s("cli.main"),
    }
