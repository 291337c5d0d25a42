"""The benchmark's three workloads, from clickstream to served answers.

Every workload is one process that first sets up (timed as ``setup_s``)
and then repeats short timed units until its ``--seconds`` are spent.
Inputs are generated beforehand by the parent process from the seed, so
no metric counts the generation.  All three use the Independent
variant, as three of the paper's four datasets do.  ``README.md`` in
this directory has the metric definitions and the full map from layer
metrics to end-to-end metrics.

Every end-to-end metric exists on every workload:

* ``pass_s`` is the write side -- the median time from new input to a
  result that answers reads (a batch pass, a cold solve pass, or one
  stream period of the serving process);
* ``read_p50_ms`` / ``reads_per_s`` are the read side --
  ``covered_probability`` point reads of that result through a
  ``ServingFrontend``, in read phases between the timed passes or
  periods.  A read phase is open-loop reads at 8,000/s for two thirds
  of it, items drawn from the node-weight distribution (the paper's
  request model) and each timed from when it was due, then a closed
  loop keeping 256 reads (the frontend's ``max_batch``) outstanding.

``pipeline_pe`` -- the paper's Figure 2 batch job, run the way
``repro pipeline`` runs it: ``read_jsonl`` -> ``InventoryReducer(k=100,
variant="auto").run`` -> result JSON, on the PE stand-in at scale 0.01
(~108k sessions, ~12k items).  It exists because ingest, variant
selection and graph adaptation are ~99% of a pass and the greedy under
1%: gains in ``clickstream.io`` / ``adaptation.*`` / ``core.csr`` show
here, and a solver-only gain must read "no change" on this workload.
Its reads reach a ``SolutionSnapshot`` of the pass's result through the
frontend alone, bypassing the serving runtime and service.

``solve_1m`` -- Figure 4d's largest point: 1M items, ~3.8M edges, k=5000.
Set-up loads the graph with ``CSRGraph.from_arrays``; each pass is a
cold ``repro.solve`` -> ``solve_context_digest`` ->
``SolutionSnapshot.build``.  The ~150 MB of CSR arrays dwarf the CPU
caches and no ingest runs, so this is where solver and snapshot gains
show and where ingest gains must not.  The pass calls the solver
directly, not through ``AssortmentService``, whose CSR->dict->CSR round
trip would dominate at this size.  Its reads reach the pass's snapshot
through the frontend alone, as in ``pipeline_pe``.

``serve_pe`` -- a process shaped like ``repro serve`` on the same PE
stream.  Set-up reads the JSONL, folds the first half of the sessions
into ``OnlineAdaptationEngine``, builds ``ServingRuntime(
AssortmentService(k=100))``, calls ``ensure()`` and starts
``ServingFrontend`` with its default settings.  The run then alternates
read phases and write periods, never overlapping them: on a 2-CPU host,
refreshing while reads were in flight made read p90 swing with GIL
contention against the refresh (32-45 ms, p50 moving 18% between
identical runs), while phased reads held p90 at ~4 ms.  A write period
folds the next equal slice of the second half into the engine,
``snapshot()``s it, diffs it with ``graph_delta`` and applies it through
``ServingRuntime.apply_delta``; its ``pass_s`` ends when a read through
the frontend is answered from the new snapshot.

Why the batch workloads serve their result too: every end-to-end metric
has to exist on every workload, and timing the snapshot's reads
directly (sub-microsecond calls) swung up to twofold with the host's
speed between runs, while reads through the frontend's micro-batching
are dominated by its 2 ms batch window.

Oracles -- each mismatch counts as a failed operation:

* ``pipeline_pe``: every pass returns the first pass's retained list and
  its cover equals ``repro.cover`` recomputed (within 1e-9);
* ``solve_1m``: every pass makes the same selection and
  ``sum(conditional * W)`` equals ``result.cover`` within 1e-9;
* every read equals the answering snapshot's ``repro.item_coverage``,
  recomputed offline, bitwise;
* ``serve_pe``, after the last period: the streamed graph equals
  ``DataAdaptationEngine.build_graph`` over the same sessions, and the
  served cover equals a cold ``repro.solve`` within 1e-9;
* the counts ``clickstream.io.records``,
  ``core.csr.from_preference_graph_calls`` and
  ``core.greedy.gain_evaluations`` repeat exactly across the units of a
  run and across the set-up processes of one invocation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import zlib
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro
from repro.adaptation.engine import AdaptationConfig, DataAdaptationEngine
from repro.adaptation.online import OnlineAdaptationEngine
from repro.clickstream.drift import graph_delta
from repro.clickstream.io import read_jsonl, write_jsonl
from repro.clickstream.models import Clickstream
from repro.core.context import solve_context_digest
from repro.core.csr import CSRGraph, as_csr
from repro.core.variants import Variant
from repro.errors import ReproError
from repro.observability import MetricsRegistry
from repro.serving import (
    AssortmentService,
    ServingFrontend,
    ServingRuntime,
    SolutionSnapshot,
)
from repro.workloads.datasets import build_dataset
from repro.workloads.graphs import random_preference_graph

from host import probe_ms
from tracing import Tracer, calls_per_unit, layer_self_ms, unit_breakdown

#: Tolerance of the cover oracles.
COVER_TOLERANCE = 1e-9

#: Share of a ``serve_pe`` run spent in read phases (the rest is the
#: write periods and the per-phase oracle checks).
READ_SHARE = 0.7

#: Length of the read phase before each timed pass of a batch workload.
BATCH_READ_PHASE_S = 0.5

#: Open-loop read rate (reads per second).
READ_RATE = 8000.0

#: Reads the closed loop keeps outstanding (the frontend's ``max_batch``).
OUTSTANDING = 256

#: Item draws kept per read phase for the closed loop (cycled).
CLOSED_POOL = 16_384


@dataclass(frozen=True)
class Size:
    """Input sizes of the three workloads."""

    pe_scale: float
    k_pe: int
    graph_items: int
    k_graph: int
    periods: int


#: ``full`` is the benchmark; ``tiny`` runs the same code on small
#: inputs for the benchmark's own tests.
SIZES = {
    "full": Size(
        pe_scale=0.01, k_pe=100, graph_items=1_000_000, k_graph=5000,
        periods=20,
    ),
    "tiny": Size(
        pe_scale=0.0005, k_pe=20, graph_items=5000, k_graph=50, periods=3,
    ),
}

#: ``(name, unit)`` of every end-to-end metric, printed with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("read_p50_ms", "ms"),
    ("reads_per_s", "1/s"),
)

#: Span names whose median per-unit self time is a per-layer metric.
SPAN_LAYERS = (
    "clickstream.io.read_jsonl",
    "adaptation.variant_selection.recommend_variant",
    "adaptation.engine.build_graph",
    "core.graph.validate",
    "core.csr.from_preference_graph",
    "core.csr.from_arrays",
    "core.greedy.solve",
    "core.context.digest",
    "serving.store.snapshot_build",
    "adaptation.online.observe",
    "adaptation.online.snapshot",
    "clickstream.drift.graph_delta",
    "serving.runtime.apply_delta",
    "serving.runtime.ensure",
)

#: ``(name, unit)`` of every per-layer metric, printed by a traced run.
PER_LAYER = tuple((f"{name}_ms", "ms") for name in SPAN_LAYERS) + (
    ("clickstream.io.records", "count"),
    ("clickstream.io.rejected", "count"),
    ("core.csr.from_preference_graph_calls", "count"),
    ("core.greedy.gain_evaluations", "count"),
    ("clickstream.drift.delta_changes", "count"),
    ("serving.frontend.queue_wait_ms", "ms"),
    ("serving.frontend.read_p90_ms", "ms"),
    ("serving.frontend.batch_size", "count"),
    ("serving.frontend.rejected", "count"),
    ("serving.frontend.deadline_exceeded", "count"),
    ("serving.runtime.read_batch_us", "us"),
    ("serving.store.hit_ratio", "ratio"),
    ("serving.runtime.refresh_retries", "count"),
    ("serving.runtime.refresh_failures", "count"),
    ("serving.refresh.prefix_kept_ratio", "ratio"),
    ("host.probe_ms", "ms"),
    ("bench.generator_late_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
)


def digest(values) -> str:
    """Short fingerprint of a selection, for cross-process comparison."""
    return f"{zlib.crc32(repr(list(values)).encode()) & 0xFFFFFFFF:08x}"


def draw(rng: np.random.Generator, weights, n: int) -> np.ndarray:
    """``n`` item indices drawn from the node-weight distribution."""
    p = np.asarray(weights, dtype=np.float64)
    return rng.choice(p.size, size=n, p=p / p.sum())


class Run:
    """Bookkeeping of one workload process: operations, samples, counts."""

    MAX_MESSAGES = 20

    def __init__(self, seed: int, tracing: bool) -> None:
        self.tracing = tracing
        self.tracer = Tracer()
        # Read draws use their own stream, independent of generation.
        self.rng = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.counts: Dict[str, int] = {}
        self.fingerprint: Dict[str, object] = {}
        self.probes: List[float] = []
        self.pass_s: List[float] = []
        self.pass_traced_s: List[float] = []
        self.read_lat_s: List[np.ndarray] = []
        self.read_rates: List[float] = []
        self.generator_late_s: List[float] = []
        self.queue_wait_s: List[float] = []
        self.batch_sizes: List[int] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """Record ``attempted`` operations of which ``failed`` failed."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(f"{what} ({failed} of {attempted})")

    def op(self, ok: bool, what: str) -> None:
        """Record one operation that succeeded when ``ok``."""
        self.ops(1, 0 if ok else 1, what)

    def count(self, name: str, value: int) -> None:
        """Record an exact count; a differing repeat is a failure."""
        value = int(value)
        previous = self.counts.setdefault(name, value)
        self.op(previous == value, f"count {name} changed: {previous} -> {value}")

    def traced(self, index: int) -> bool:
        """Whether unit ``index`` is traced (ABBA order in a traced run)."""
        return self.tracing and index % 4 in (0, 3)

    def probe(self) -> None:
        """Run the host probe between timed units."""
        self.probes.append(probe_ms())

    def timed(self, traced: bool, seconds: float) -> None:
        """File one unit's wall time with the traced or untraced units."""
        (self.pass_traced_s if traced else self.pass_s).append(seconds)


class ReadCheck:
    """Bitwise oracle for reads: offline ``repro.item_coverage`` per snapshot.

    The expected vector is recomputed once per distinct (graph, retained
    list) and the reads are compared as they are handed in, so the
    benchmark keeps no read values alive to inflate ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        self._graph: Optional[CSRGraph] = None
        self._retained: List = []
        self._expected: Optional[np.ndarray] = None

    def check(self, run: Run, snapshot: SolutionSnapshot, indices, values) -> None:
        retained = snapshot.retained
        if snapshot.graph is not self._graph or retained != self._retained:
            self._graph, self._retained = snapshot.graph, retained
            self._expected = repro.item_coverage(
                snapshot.graph, retained, snapshot.variant
            )
        indices = np.asarray(indices, dtype=np.int64)
        bad = int(np.count_nonzero(np.asarray(values) != self._expected[indices]))
        run.ops(len(indices), bad, "read differs from offline item_coverage")


async def open_loop(run: Run, frontend, snapshot, duration: float):
    """Point reads at a fixed rate, each timed from when it was due.

    Returns the read item indices and the answers.
    """
    rate = READ_RATE
    n = max(1, int(rate * duration))
    indices = draw(run.rng, snapshot.graph.node_weight, n)
    items = snapshot.graph.items
    submitted = np.zeros(n)
    answered = np.zeros(n)
    values = np.full(n, np.nan)
    errors = 0

    async def read(j: int, item) -> None:
        nonlocal errors
        submitted[j] = perf_counter()
        try:
            values[j] = await frontend.covered_probability(item)
        except ReproError:
            errors += 1
        answered[j] = perf_counter()

    loop = asyncio.get_running_loop()
    first_span = len(run.tracer.spans)
    # Only reads in flight are referenced: holding every finished task
    # until the phase ends would grow the heap that each garbage
    # collection walks, and so the read tail.
    in_flight = set()
    drained = loop.create_future()
    crashed: List[BaseException] = []

    def finished(task) -> None:
        in_flight.discard(task)
        if task.exception() is not None:  # not a handled ReproError
            crashed.append(task.exception())
        if not in_flight and i == n and not drained.done():
            drained.set_result(None)

    due = perf_counter() + 1e-3 + np.arange(n) / rate
    i = 0
    while i < n:
        now = perf_counter()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        run.generator_late_s.append(now - due[i])
        while i < n and due[i] <= now:
            task = loop.create_task(read(i, items[indices[i]]))
            in_flight.add(task)
            task.add_done_callback(finished)
            i += 1
    if in_flight:
        await drained
    if crashed:
        raise crashed[0]
    run.read_lat_s.append(answered - due)
    run.ops(n, errors, "open-loop read raised")
    if run.tracer.enabled:
        queue_waits(run, run.tracer.spans[first_span:], submitted)
    ok = ~np.isnan(values)
    return indices[ok], values[ok]


def queue_waits(run: Run, spans: List[dict], submitted: np.ndarray) -> None:
    """Match FIFO-ordered reads to the runtime batch reads that answered them."""
    batches = sorted(
        (s for s in spans if s["name"] == "serving.runtime.read_batch"),
        key=lambda s: s["start"],
    )
    sizes = [s.get("size", 0) for s in batches]
    if sum(sizes) != submitted.size:
        return  # no runtime underneath, or a read failed
    order = np.argsort(submitted, kind="stable")
    position = 0
    for batch, size in zip(batches, sizes):
        members = order[position:position + size]
        run.queue_wait_s.extend((batch["start"] - submitted[members]).tolist())
        run.batch_sizes.append(size)
        position += size


async def closed_loop(run: Run, frontend, snapshot, duration: float):
    """Keep ``OUTSTANDING`` reads in flight; records answered reads/second.

    Returns the read item indices and the answers.
    """
    width = OUTSTANDING
    pool = draw(run.rng, snapshot.graph.node_weight, CLOSED_POOL)
    items = snapshot.graph.items
    got_index: List[int] = []
    got_value: List[float] = []
    errors = 0
    deadline = perf_counter() + duration

    async def client(offset: int) -> None:
        nonlocal errors
        j = offset
        while perf_counter() < deadline:
            index = int(pool[j % pool.size])
            j += width
            try:
                value = await frontend.covered_probability(items[index])
            except ReproError:
                errors += 1
                continue
            got_index.append(index)
            got_value.append(value)

    began = perf_counter()
    await asyncio.gather(*(client(c) for c in range(width)))
    elapsed = perf_counter() - began
    run.read_rates.append(len(got_index) / elapsed)
    run.ops(len(got_index) + errors, errors, "closed-loop read raised")
    return got_index, got_value


async def read_phase(run: Run, frontend, snapshot, seconds: float,
                     index: int, oracle: ReadCheck) -> float:
    """Open loop for 2/3 of ``seconds``, closed loop for the rest.

    Returns the time spent reading; the oracle check that follows is
    not part of it.
    """
    began = perf_counter()
    with run.tracer.unit(None, run.traced(index)):
        opened = await open_loop(run, frontend, snapshot, seconds * 2 / 3)
    closed = await closed_loop(run, frontend, snapshot, seconds / 3)
    elapsed = perf_counter() - began
    for indices, values in (opened, closed):
        oracle.check(run, snapshot, indices, values)
    return elapsed


class Workload:
    """What the three workloads share: the read oracle and its registry."""

    name = ""

    def __init__(self, size: Size) -> None:
        self.size = size
        self.reads = ReadCheck()
        self.metrics = MetricsRegistry()

    async def close(self) -> None:
        """Release what ``setup`` started."""

    def finish(self, run: Run) -> None:
        """End-of-run oracles."""


class BatchWorkload(Workload):
    """A workload of repeated passes whose result is served between them."""

    snapshot: SolutionSnapshot

    async def measure(self, run: Run, seconds: float) -> None:
        """Read phase, host probe, timed pass, pass oracle -- ``seconds`` long.

        Only reading and passes count towards ``seconds``; oracle checks
        run on top.  A traced run alternates traced and untraced passes
        (at least one of each) so their difference is the tracing
        overhead.
        """
        minimum = 2 if run.tracing else 1
        measured = 0.0
        index = 0
        while index < minimum or measured < seconds:
            snapshot = self.snapshot
            async with ServingFrontend(snapshot, metrics=self.metrics) as frontend:
                measured += await read_phase(
                    run, frontend, snapshot, BATCH_READ_PHASE_S, index,
                    self.reads,
                )
            run.probe()
            traced = run.traced(index)
            with run.tracer.unit("pass", traced):
                began = perf_counter()
                outcome = self.one_pass(run)
                elapsed = perf_counter() - began
            run.timed(traced, elapsed)
            measured += elapsed
            self.check_pass(run, outcome)
            index += 1


# ----------------------------------------------------------------------
# pipeline_pe
# ----------------------------------------------------------------------
class PipelinePE(BatchWorkload):
    """The Figure 2 batch job on the PE stand-in (see module docstring)."""

    name = "pipeline_pe"

    def generate(self, seed: int, workdir: Path) -> None:
        stream, _model = build_dataset("PE", scale=self.size.pe_scale, seed=seed)
        write_jsonl(stream, workdir / "pe.jsonl")

    def setup(self, run: Run, workdir: Path) -> None:
        self.path = workdir / "pe.jsonl"
        report = self.one_pass(run)
        self.reference = list(report.retained)
        run.fingerprint["selection"] = digest(self.reference)
        self.check_pass(run, report)
        csr = as_csr(report.graph)
        key = solve_context_digest(csr, report.variant, k=self.size.k_pe)
        self.snapshot = SolutionSnapshot.build(
            key, csr, report.variant, report.result
        )

    def one_pass(self, run: Run):
        span = run.tracer.span
        with span("clickstream.io.read_jsonl"):
            stream = read_jsonl(self.path)
        with span("pipeline.run"):
            report = repro.InventoryReducer(
                k=self.size.k_pe, variant="auto"
            ).run(stream)
        self.result_json = json.dumps(report.result.to_dict())
        run.count("clickstream.io.records", len(stream))
        run.count("core.greedy.gain_evaluations", report.result.gain_evaluations)
        return report

    def check_pass(self, run: Run, report) -> None:
        run.op(list(report.retained) == self.reference,
               "pass retained list differs from the first pass")
        recomputed = repro.cover(report.graph, report.retained, report.variant)
        run.op(abs(recomputed - report.cover) <= COVER_TOLERANCE,
               "pass cover differs from repro.cover recomputed")


# ----------------------------------------------------------------------
# solve_1m
# ----------------------------------------------------------------------
class Solve1M(BatchWorkload):
    """Figure 4d's largest point, solved cold each pass."""

    name = "solve_1m"

    def generate(self, seed: int, workdir: Path) -> None:
        csr = random_preference_graph(
            self.size.graph_items, variant="independent", seed=seed
        )
        sources = np.repeat(
            np.arange(csr.n_items, dtype=np.int64), np.diff(csr.out_ptr)
        )
        np.savez(
            workdir / "graph.npz", node_weight=csr.node_weight, src=sources,
            dst=csr.out_dst, weight=csr.out_weight,
        )

    def setup(self, run: Run, workdir: Path) -> None:
        with np.load(workdir / "graph.npz") as arrays:
            node_weight, src, dst, weight = (
                arrays[name] for name in ("node_weight", "src", "dst", "weight")
            )
        with run.tracer.span("core.csr.from_arrays"):
            self.csr = CSRGraph.from_arrays(node_weight, src, dst, weight)
        del src, dst, weight
        result, snapshot = self.one_pass(run)
        self.reference = result.selected
        run.fingerprint["selection"] = digest(self.reference)
        self.check_pass(run, (result, snapshot))

    def one_pass(self, run: Run):
        span = run.tracer.span
        k = self.size.k_graph
        with span("core.greedy.solve"):
            result = repro.solve(self.csr, variant="independent", k=k)
        with span("core.context.digest"):
            key = solve_context_digest(self.csr, "independent", k=k)
        with span("serving.store.snapshot_build"):
            snapshot = SolutionSnapshot.build(
                key, self.csr, Variant.INDEPENDENT, result
            )
        run.count("core.greedy.gain_evaluations", result.gain_evaluations)
        return result, snapshot

    def check_pass(self, run: Run, outcome) -> None:
        result, snapshot = outcome
        run.op(result.selected == self.reference,
               "pass selection differs from the first pass")
        total = float(np.dot(snapshot.conditional, self.csr.node_weight))
        run.op(abs(total - result.cover) <= COVER_TOLERANCE,
               "sum(conditional * W) differs from result.cover")
        self.snapshot = snapshot


# ----------------------------------------------------------------------
# serve_pe
# ----------------------------------------------------------------------
class ServePE(Workload):
    """A ``repro serve``-shaped process on the PE stream, phased."""

    name = "serve_pe"

    def __init__(self, size: Size) -> None:
        super().__init__(size)
        self.delta_changes = 0
        self.prefix_kept: List[float] = []

    def generate(self, seed: int, workdir: Path) -> None:
        stream, _model = build_dataset("PE", scale=self.size.pe_scale, seed=seed)
        sessions = list(stream)
        half = len(sessions) // 2
        cuts = np.linspace(half, len(sessions), self.size.periods + 1)
        cuts = cuts.astype(int).tolist()
        parts = [sessions[:half]] + [
            sessions[a:b] for a, b in zip(cuts[:-1], cuts[1:])
        ]
        for index, part in enumerate(parts):
            write_jsonl(Clickstream(part), workdir / f"part-{index}.jsonl")

    def setup(self, run: Run, workdir: Path) -> None:
        # The sessions live in files, not in this process: holding the
        # ~108k Session objects would multiply the cost of every full
        # garbage collection (~100 ms instead of ~20 ms at this scale)
        # and charge the benchmark's own memory to the read tail.
        self.parts = sorted(
            workdir.glob("part-*.jsonl"),
            key=lambda path: int(path.stem.split("-")[1]),
        )
        span = run.tracer.span
        with span("clickstream.io.read_jsonl"):
            first_half = read_jsonl(self.parts[0])
        run.count("clickstream.io.records", len(first_half))
        self.engine = OnlineAdaptationEngine(
            AdaptationConfig(variant=Variant.INDEPENDENT)
        )
        with span("adaptation.online.observe"):
            self.engine.observe_all(first_half)
        del first_half
        with span("adaptation.online.snapshot"):
            self.previous = self.engine.snapshot()
        with span("serving.service.init"):
            service = AssortmentService(
                self.previous, variant="independent", k=self.size.k_pe
            )
        self.runtime = ServingRuntime(service)
        self.metrics = self.runtime.metrics
        with span("serving.runtime.ensure"):
            snapshot = self.runtime.ensure()
        self.frontend = ServingFrontend(self.runtime)
        self.frontend.start()
        self.selected = list(snapshot.retained)
        run.fingerprint["selection"] = digest(self.selected)
        # Confirming read of each period: the initially most requested
        # item (items are never removed, so every snapshot has it).
        weights = snapshot.graph.node_weight
        self.confirm_item = snapshot.graph.items[int(np.argmax(weights))]

    async def measure(self, run: Run, seconds: float) -> None:
        periods = len(self.parts) - 1
        phase_s = READ_SHARE * seconds / (periods + 1)
        for index in range(periods + 1):
            snapshot = self.runtime.active_snapshot()
            await read_phase(
                run, self.frontend, snapshot, phase_s, index, self.reads
            )
            run.op(self.runtime.active_snapshot() is snapshot,
                   "snapshot changed during a read phase")
            run.probe()
            if index < periods:
                await self.write_period(run, index)

    async def write_period(self, run: Run, index: int) -> None:
        """Fold, snapshot, diff and apply one period; time it to an answer.

        The period's sessions are read before the clock starts: the
        period begins when its last session has arrived.
        """
        arrived = read_jsonl(self.parts[index + 1])
        span = run.tracer.span
        traced = run.traced(index)
        with run.tracer.unit("period", traced):
            began = perf_counter()
            with span("adaptation.online.observe"):
                self.engine.observe_all(arrived)
            with span("adaptation.online.snapshot"):
                graph = self.engine.snapshot()
            with span("clickstream.drift.graph_delta"):
                delta = graph_delta(self.previous, graph, sequence=index + 1)
            with span("serving.runtime.apply_delta"):
                snapshot = self.runtime.apply_delta(delta)
            with span("serving.frontend.read"):
                try:
                    value = await self.frontend.covered_probability(
                        self.confirm_item
                    )
                except ReproError:
                    value = None
            run.timed(traced, perf_counter() - began)
        fresh = snapshot is not None and snapshot.sequence == index + 1
        run.op(fresh, "apply_delta did not install the period's snapshot")
        run.op(
            fresh and value == snapshot.conditional[
                snapshot.index_of(self.confirm_item)
            ],
            "the period's confirming read was not answered by its snapshot",
        )
        if fresh:
            retained = list(snapshot.retained)
            kept = 0
            for before, after in zip(self.selected, retained):
                if before != after:
                    break
                kept += 1
            self.prefix_kept.append(kept / self.size.k_pe)
            self.selected = retained
        self.delta_changes += delta.n_changes
        self.previous = graph

    def finish(self, run: Run) -> None:
        """ROADMAP item 1's oracle: streamed equals batch, served equals cold."""
        sessions = [s for path in self.parts for s in read_jsonl(path)]
        batch = DataAdaptationEngine(
            AdaptationConfig(variant=Variant.INDEPENDENT)
        ).build_graph(Clickstream(sessions))
        streamed = self.runtime.service.graph
        same = (
            streamed.n_items == batch.n_items
            and all(
                item in batch
                and streamed.node_weight(item) == batch.node_weight(item)
                for item in streamed.items()
            )
            and {(s, t): w for s, t, w in streamed.edges()}
            == {(s, t): w for s, t, w in batch.edges()}
        )
        run.op(same, "streamed graph differs from the batch build")
        cold = repro.solve(batch, variant="independent", k=self.size.k_pe)
        served = self.runtime.active_snapshot()
        run.op(abs(cold.cover - served.cover) <= COVER_TOLERANCE,
               "served cover differs from a cold repro.solve")
        run.count("clickstream.drift.delta_changes", self.delta_changes)

    async def close(self) -> None:
        await self.frontend.aclose()


WORKLOADS = {cls.name: cls for cls in (PipelinePE, Solve1M, ServePE)}


# ----------------------------------------------------------------------
# Running one workload process
# ----------------------------------------------------------------------
async def _run(workload: Workload, run: Run, workdir: Path, role: str,
               seconds: float, started: float) -> float:
    with run.tracer.unit("setup", run.tracing):
        workload.setup(run, workdir)
    gc.collect()
    setup_s = perf_counter() - started
    try:
        if role == "measure":
            await workload.measure(run, seconds)
    finally:
        await workload.close()
    if role == "measure":
        workload.finish(run)
    return setup_s


def run_workload(name: str, *, seed: int, seconds: float, size: str,
                 tracing: bool, role: str, workdir: Path,
                 started: float, spans_path: Optional[Path] = None) -> dict:
    """Set up (and, for ``role="measure"``, measure) one workload.

    ``started`` is the process start on the ``perf_counter`` clock;
    ``setup_s`` runs from it to the first timed unit.  Set-up ends with
    a full garbage collection, so its garbage is paid for in ``setup_s``
    rather than by whichever timed unit the collector happens to land
    in.
    """
    workload = WORKLOADS[name](SIZES[size])
    run = Run(seed, tracing)
    setup_s = asyncio.run(
        _run(workload, run, workdir, role, seconds, started)
    )
    out = {
        "setup_s": setup_s,
        "fingerprint": dict(run.fingerprint, counts=dict(run.counts)),
    }
    if role != "measure":
        return out
    if tracing:
        breakdown = unit_breakdown(run.tracer.spans)
        metrics = per_layer_metrics(run, workload, breakdown)
        if spans_path is not None:
            run.tracer.write(spans_path)
    else:
        metrics = end_to_end_metrics(run)
    out.update(
        attempted=run.attempted,
        failed=run.failed,
        messages=run.messages,
        metrics=metrics,
        probe_ms=median(run.probes),
        units=len(run.pass_s) + len(run.pass_traced_s),
    )
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_percentile_ms(run: Run, q: float) -> float:
    """Median over open-loop read phases of each phase's ``q``-th percentile.

    Taken per phase, like every other timing here a median over units:
    a burst of host preemption then moves one phase, not the run.
    """
    return float(np.median(
        [np.percentile(latency, q) for latency in run.read_lat_s]
    )) * 1e3


def end_to_end_metrics(run: Run) -> dict:
    """Medians over the run's units: passes, periods and read phases."""
    values = {
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": median(run.pass_s),
        "read_p50_ms": read_percentile_ms(run, 50),
        "reads_per_s": median(run.read_rates),
    }
    return {name: values[name] for name, _unit in END_TO_END if name in values}


def per_layer_metrics(run: Run, workload: Workload,
                      breakdown: Dict[str, List[dict]]) -> dict:
    values = {
        f"{name}_ms": layer_self_ms(breakdown, name) for name in SPAN_LAYERS
    }
    values["serving.runtime.read_batch_us"] = (
        layer_self_ms(breakdown, "serving.runtime.read_batch") * 1e3
    )
    unit = "period" if isinstance(workload, ServePE) else "pass"
    calls = calls_per_unit(breakdown, unit, "core.csr.from_preference_graph") or [0]
    for value in calls:
        run.count("core.csr.from_preference_graph_calls", value)
    values["core.csr.from_preference_graph_calls"] = calls[0]
    for name in (
        "clickstream.io.records",
        "core.greedy.gain_evaluations",
        "clickstream.drift.delta_changes",
    ):
        values[name] = run.counts.get(name, 0)
    values["clickstream.io.rejected"] = 0  # strict ingestion raises instead
    values["serving.frontend.queue_wait_ms"] = (
        median(run.queue_wait_s) * 1e3 if run.queue_wait_s else 0.0
    )
    values["serving.frontend.batch_size"] = (
        median(run.batch_sizes) if run.batch_sizes else 0
    )
    values["serving.frontend.read_p90_ms"] = read_percentile_ms(run, 90)
    registry_counters = {
        "serving.frontend.rejected": "serving.rejected",
        "serving.frontend.deadline_exceeded": "serving.deadline_exceeded",
        "serving.runtime.refresh_retries": "serving.retries",
        "serving.runtime.refresh_failures": "serving.refresh_failures",
    }
    for name, counter in registry_counters.items():
        values[name] = int(workload.metrics.counter(counter).value)
    runtime = getattr(workload, "runtime", None)
    values["serving.store.hit_ratio"] = (
        runtime.service.store.hit_ratio if runtime else 0.0
    )
    prefix = getattr(workload, "prefix_kept", None)
    values["serving.refresh.prefix_kept_ratio"] = (
        median(prefix) if prefix else 0.0
    )
    values["host.probe_ms"] = median(run.probes)
    values["bench.generator_late_ms"] = (
        float(np.percentile(run.generator_late_s, 90)) * 1e3
    )
    values["bench.tracing_overhead_pct"] = (
        (median(run.pass_traced_s) / median(run.pass_s) - 1.0) * 100.0
    )
    return {name: values[name] for name, _unit in PER_LAYER}
