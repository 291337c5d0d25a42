"""Spans around the calls into each layer, for the traced run.

Tracing is off in the runs that report end-to-end metrics.  In a traced
run (``--trace 1``) the workloads alternate traced and untraced units,
and a traced unit does two things:

* the benchmark's own code opens a span around every call it makes into
  a layer's public function (``read_jsonl``, ``repro.solve``,
  ``OnlineAdaptationEngine.observe_all``, ``ServingRuntime.apply_delta``
  and so on);
* :func:`instrumented` wraps, for the duration of the unit only, the
  public functions that the program calls on its own inside those calls
  (the variant selection, graph build, validation, CSR conversion and
  greedy solve inside ``InventoryReducer.run``, the CSR conversions
  inside ``apply_delta``, and the runtime's batch read that the
  frontend issues).  Nothing inside the program is edited; the original
  attributes are restored when the unit ends.

A span records its name, start, end, the span that caused it and a
trace id; every span of one pass, one read batch or one stream period
shares the trace id of that unit's root span.  Spans stay in memory and
are written out as JSON lines when the workload ends.  A span's self
time is its duration minus the time its child spans cover (the
workloads are single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median
from typing import Dict, List, Optional

#: Public functions the program calls on its own, wrapped during traced
#: units: ``(module, owner attribute path, span name)``.  A dotted owner
#: path names a class attribute (method or classmethod).
PATCHES = (
    ("repro.pipeline", "recommend_variant",
     "adaptation.variant_selection.recommend_variant"),
    ("repro.adaptation.engine", "DataAdaptationEngine.build_graph",
     "adaptation.engine.build_graph"),
    ("repro.core.graph", "PreferenceGraph.validate", "core.graph.validate"),
    ("repro.core.csr", "CSRGraph.from_preference_graph",
     "core.csr.from_preference_graph"),
    ("repro.pipeline", "greedy_solve", "core.greedy.solve"),
    ("repro.serving.runtime", "ServingRuntime.covered_probability_many",
     "serving.runtime.read_batch"),
)


class Tracer:
    """In-memory span recorder for one single-threaded workload process.

    ``span()`` is a no-op unless a traced unit is open, so the workload
    code can call it unconditionally.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.enabled = False
        self._open: List[dict] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the enclosed block when tracing is on."""
        if not self.enabled:
            yield None
            return
        parent = self._open[-1] if self._open else None
        record = {
            "trace": parent["trace"] if parent else next(self._trace_ids),
            "id": next(self._span_ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    @contextmanager
    def unit(self, name: Optional[str], traced: bool):
        """One unit of work (set-up, pass, read window or stream period).

        With ``traced`` the unit's calls are recorded under a fresh
        trace whose root span is ``name``; a read window passes
        ``name=None`` so that every batch read in it roots a trace of
        its own.  Without ``traced`` the unit runs exactly as in an
        untraced run.
        """
        if not traced:
            yield
            return
        self.enabled = True
        try:
            with instrumented(self):
                if name is None:
                    yield
                else:
                    with self.span(name):
                        yield
        finally:
            self.enabled = False

    def write(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, fn, name: str):
    if name == "serving.runtime.read_batch":
        @functools.wraps(fn)
        def read_batch(self, items):
            with tracer.span(name) as record:
                values = fn(self, items)
                if record is not None:
                    record["size"] = len(values)
                return values
        return read_batch

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every :data:`PATCHES` target in a span; restore on exit."""
    saved = []
    try:
        for module_name, path, name in PATCHES:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(_wrap(tracer, original.__func__, name))
            else:
                patched = _wrap(tracer, original, name)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def unit_breakdown(spans: List[dict]) -> Dict[str, List[dict]]:
    """Per unit (trace): self time and call count of every span name.

    Returns ``{root span name: [{span name: {"self_s", "calls"}}, ...]}``
    with one mapping per traced unit, in the order the units ran.
    """
    children_s: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            children_s[record["parent"]] += record["end"] - record["start"]
    traces: Dict[int, dict] = {}
    roots: Dict[int, str] = {}
    for record in sorted(spans, key=lambda r: r["start"]):
        trace = traces.setdefault(record["trace"], {})
        if record["parent"] is None:
            roots[record["trace"]] = record["name"]
        entry = trace.setdefault(record["name"], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (
            record["end"] - record["start"] - children_s[record["id"]]
        )
        entry["calls"] += 1
    out: Dict[str, List[dict]] = defaultdict(list)
    for trace_id in sorted(traces):
        out[roots[trace_id]].append(traces[trace_id])
    return dict(out)


def layer_self_ms(
    breakdown: Dict[str, List[dict]], name: str
) -> float:
    """Median per-unit self time of span ``name``, in milliseconds.

    Units other than the set-up are preferred; a span that only the
    set-up records (``from_arrays``, ``ensure``) reports the set-up's
    value, and a layer the workload never calls reports 0.
    """
    for include_setup in (False, True):
        values = [
            unit[name]["self_s"]
            for root, units in breakdown.items()
            if (root == "setup") == include_setup
            for unit in units
            if name in unit
        ]
        if values:
            return median(values) * 1e3
    return 0.0


def calls_per_unit(
    breakdown: Dict[str, List[dict]], root: str, name: str
) -> Optional[List[int]]:
    """Calls of span ``name`` in each traced unit rooted at ``root``."""
    units = breakdown.get(root)
    if not units:
        return None
    return [unit.get(name, {"calls": 0})["calls"] for unit in units]
