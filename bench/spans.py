"""Spans and counters recorded around the program's layer boundaries.

``traced(recorder)`` wraps each layer's public function at every module
attribute that names it (``tightspan.troplin.non_matroidal_witness``,
``tightspan.subdivision.ganter_hasse``, ``tightspan.matroid.hull``, ...),
so a call is seen whichever module the caller looked it up from.  Each
wrapped call becomes a span with a name, start, end and parent, and adds
counters read off the returned objects (``HRep``, ``Subdivision``,
``HasseDiagram``, ...).  ``ClosureSystem.close`` runs once per closure and
would dominate memory as one span per call, so its calls are folded into a
single aggregate span per parent, with a call count and busy time.

Spans stay in memory until ``Recorder.dump``.  Nothing here is in the
program: the wrappers are installed by the benchmark and removed after it.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

CLOSE = "closure.close"

# metric name -> unit; the order is the order they are printed
PER_LAYER = {
    "exactgeom.hull.calls": "count",
    "exactgeom.hull.s": "s",
    "exactgeom.hull.points": "count",
    "exactgeom.hull.facets": "count",
    "subdivision.regular_subdivision.calls": "count",
    "subdivision.regular_subdivision.self_s": "s",
    "subdivision.regular_subdivision.cells": "count",
    "subdivision.regular_subdivision.boundary_facets": "count",
    "subdivision.coordinatize.self_s": "s",
    "subdivision.coordinatize.span_cells": "count",
    "matroid.gate.calls": "count",
    "matroid.gate.self_s": "s",
    "matroid.gate.cells_checked": "count",
    "matroid.parse_census_line.s": "s",
    "closure.ganter_hasse.self_s": "s",
    "closure.close.s": "s",
    "closure.close.calls": "count",
    "closure.nodes": "count",
    "closure.arcs": "count",
    "closure.useful_ratio": "ratio",
    "troplin.tropical_linear_space.self_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}
ALIASES = {"cli.self_s": "cli.main.self_s"}  # metric name -> span metric it reports


def _count_hull(counts, args, result):
    counts["exactgeom.hull.points"] += len(args[0].points)
    counts["exactgeom.hull.facets"] += len(result[0].facets)


def _count_subdivision(counts, args, result):
    counts["subdivision.regular_subdivision.cells"] += len(result.maximal_cells)
    counts["subdivision.regular_subdivision.boundary_facets"] += len(result.boundary_facets)


def _count_coordinatize(counts, args, result):
    counts["subdivision.coordinatize.span_cells"] += len(result.cells)


def _count_gate(counts, args, result):
    cells = args[0].maximal_cells
    counts["matroid.gate.cells_checked"] += (
        len(cells) if result is None else cells.index(result[0]) + 1
    )


def _count_hasse(counts, args, result):
    counts["closure.nodes"] += len(result.nodes)
    counts["closure.arcs"] += len(result.arcs)


# (span name, defining module, function, counter hook)
LAYERS = (
    ("exactgeom.hull", "tightspan.exactgeom", "hull", _count_hull),
    ("subdivision.regular_subdivision", "tightspan.subdivision", "regular_subdivision",
     _count_subdivision),
    ("subdivision.coordinatize", "tightspan.subdivision", "coordinatize", _count_coordinatize),
    ("matroid.gate", "tightspan.matroid", "non_matroidal_witness", _count_gate),
    ("matroid.parse_census_line", "tightspan.matroid", "parse_census_line", None),
    ("closure.ganter_hasse", "tightspan.closure", "ganter_hasse", _count_hasse),
    ("troplin.tropical_linear_space", "tightspan.troplin", "tropical_linear_space", None),
    ("cli.main", "tightspan.cli", "main", None),
)


class Recorder:
    """Spans and counters of one traced run, grouped by workload pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict[str, int]] = []
        self._stack: list[int] = []
        self._close: dict[int | None, list] = {}  # parent id -> [calls, busy, start, end]
        self._in_close = False

    def begin_pass(self) -> None:
        self._flush_close()
        self.counts.append(defaultdict(int))

    def _open(self) -> tuple[int, float]:
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in by _end
        self._stack.append(sid)
        return sid, perf_counter()

    def _end(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = {"id": sid, "parent": parent, "name": name, "start": start,
                           "end": end, "pass": len(self.counts) - 1}

    def _flush_close(self) -> None:
        for parent, (calls, busy, start, end) in self._close.items():
            self.spans.append({"id": len(self.spans), "parent": parent, "name": CLOSE,
                               "start": start, "end": end, "pass": len(self.counts) - 1,
                               "calls": calls, "busy": busy})
        self._close = {}

    def wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            sid, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid, name, start)
            if count is not None:
                count(self.counts[-1], args, result)
            return result

        return wrapper

    def wrap_close(self, fn):
        def close(system, subset):
            if self._in_close:  # a restricted system closing through its base
                return fn(system, subset)
            self._in_close = True
            start = perf_counter()
            try:
                return fn(system, subset)
            finally:
                end = perf_counter()
                self._in_close = False
                parent = self._stack[-1] if self._stack else None
                agg = self._close.get(parent)
                if agg is None:
                    self._close[parent] = [1, end - start, start, end]
                else:
                    agg[0] += 1
                    agg[1] += end - start
                    agg[3] = end

        return close

    def pass_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each pass.  Every span name gets ``.calls``,
        ``.s`` and ``.self_s``: its duration minus what its direct children
        cover."""
        self._flush_close()
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += _busy(s)
        totals = [defaultdict(float, c) for c in self.counts]
        for s in self.spans:
            t, busy, name = totals[s["pass"]], _busy(s), s["name"]
            t[name + ".calls"] += s.get("calls", 1)
            t[name + ".s"] += busy
            t[name + ".self_s"] += busy - child[s["id"]]
        out = []
        for t in totals:
            m = {k: t[ALIASES.get(k, k)] for k in PER_LAYER}
            calls = m["closure.close.calls"]
            m["closure.useful_ratio"] = m["closure.arcs"] / calls if calls else 0.0
            out.append(m)
        return out

    def dump(self, path: str) -> None:
        self._flush_close()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _busy(span: dict) -> float:
    return span.get("busy", span["end"] - span["start"])


@contextmanager
def traced(recorder: Recorder):
    """Install the layer wrappers for the duration of the block."""
    from tightspan import closure

    originals = [getattr(importlib.import_module(module_name), attr)
                 for _, module_name, attr, _ in LAYERS]
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "tightspan" or name.startswith("tightspan."))]
    undo = []
    for (span_name, _, _, count), original in zip(LAYERS, originals):
        wrapper = recorder.wrap(span_name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)
    original_close = closure.ClosureSystem.close
    closure.ClosureSystem.close = recorder.wrap_close(original_close)
    try:
        yield recorder
    finally:
        closure.ClosureSystem.close = original_close
        for module, key, value in reversed(undo):
            setattr(module, key, value)

