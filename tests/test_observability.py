"""Tests for the observability subsystem (metrics + solver trace)."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.greedy import greedy_solve
from repro.observability import (
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    SolverTrace,
    Telemetry,
    TraceEvent,
    coerce_tracer,
)


class TestMetricsRegistry:
    def test_counter_incr(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 4)
        registry.incr("b", 2.5)
        data = registry.to_dict()
        assert data["counters"] == {"a": 5, "b": 2.5}

    def test_timer_records_and_means(self):
        registry = MetricsRegistry()
        registry.record_time("stage", 0.5)
        registry.record_time("stage", 1.5)
        timer = registry.timer("stage")
        assert timer.count == 2
        assert timer.total_s == pytest.approx(2.0)
        assert timer.mean_s == pytest.approx(1.0)

    def test_time_contextmanager(self):
        registry = MetricsRegistry()
        with registry.time("sleepy"):
            time.sleep(0.01)
        timer = registry.timer("sleepy")
        assert timer.count == 1
        assert timer.total_s >= 0.01

    def test_histogram_streaming_stats(self):
        registry = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("width", value)
        hist = registry.histogram("width")
        assert hist.count == 3
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)

    def test_merge_combines_registries(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.incr("calls", 2)
        right.incr("calls", 3)
        right.record_time("stage", 1.0)
        right.observe("width", 7.0)
        left.merge(right)
        data = left.to_dict()
        assert data["counters"]["calls"] == 5
        assert data["timers"]["stage"]["count"] == 1
        assert data["histograms"]["width"]["max"] == 7.0

    def test_bool_and_json_roundtrip(self):
        registry = MetricsRegistry()
        assert not registry
        registry.incr("x")
        assert registry
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["x"] == 1

    def test_summary_mentions_names(self):
        registry = MetricsRegistry()
        registry.incr("solver.iterations", 12)
        registry.observe("accelerated.update_width", 3)
        text = registry.summary()
        assert "solver.iterations" in text
        assert "accelerated.update_width" in text


class TestSolverTrace:
    def test_event_ordering_seq_and_time(self):
        trace = SolverTrace()
        for index in range(5):
            trace.event("tick", index=index)
        seqs = [event.seq for event in trace.events]
        assert seqs == [0, 1, 2, 3, 4]
        times = [event.t for event in trace.events]
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_iteration_counts_and_merges_stash(self):
        trace = SolverTrace()
        trace.stash(updated_gains=9)
        trace.iteration(0, item="A", gain=0.5)
        trace.iteration(1, item="B", gain=0.25)
        events = trace.events_of("iteration")
        assert len(events) == 2
        assert events[0].data["updated_gains"] == 9
        assert "updated_gains" not in events[1].data
        assert trace.metrics.counter("solver.iterations").value == 2

    def test_span_times_and_emits_event(self):
        trace = SolverTrace()
        with trace.span("stage", detail="x"):
            time.sleep(0.005)
        spans = trace.events_of("span")
        assert len(spans) == 1
        assert spans[0].data["name"] == "stage"
        assert spans[0].data["duration_s"] >= 0.005
        assert trace.metrics.timer("span.stage").count == 1

    def test_max_events_safety_valve(self):
        trace = SolverTrace(max_events=2)
        for index in range(5):
            trace.event("tick", index=index)
        assert len(trace) == 2
        assert trace.metrics.counter("solver.trace_dropped").value == 3

    def test_jsonl_export(self, tmp_path):
        trace = SolverTrace()
        trace.event("solve.start", solver="greedy")
        trace.iteration(0, item="A")
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "solve.start"
        assert first["seq"] == 0
        second = json.loads(lines[1])
        assert second["kind"] == "iteration"
        assert second["item"] == "A"
        assert trace.to_jsonl() == path.read_text().rstrip("\n")

    def test_to_dict_flattens_payload(self):
        event = TraceEvent(seq=3, t=0.5, kind="iteration", data={"gain": 1.0})
        assert event.to_dict() == {
            "seq": 3, "t": 0.5, "kind": "iteration", "gain": 1.0,
        }


class TestNullTracer:
    def test_disabled_flag_and_noops(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        tracer.event("x", a=1)
        tracer.iteration(0, item="A")
        tracer.incr("n")
        tracer.observe("h", 1.0)
        tracer.stash(b=2)
        with tracer.span("stage"):
            pass
        assert tracer.metrics is None

    def test_coerce(self):
        assert coerce_tracer(None) is NULL_TRACER
        trace = SolverTrace()
        assert coerce_tracer(trace) is trace

    def test_disabled_tracer_records_zero_events(self, figure1):
        """A solve without a tracer must leave NULL_TRACER untouched."""
        greedy_solve(figure1, k=3, variant="normalized")
        assert not hasattr(NULL_TRACER, "events")
        assert NULL_TRACER.metrics is None
        assert NULL_TRACER.enabled is False


class TestSolverIntegration:
    def test_one_iteration_event_per_pick(self, figure1, variant):
        for strategy in ("naive", "accelerated"):
            trace = SolverTrace()
            result = greedy_solve(
                figure1, k=3, variant=variant, strategy=strategy,
                tracer=trace,
            )
            iterations = trace.events_of("iteration")
            assert len(iterations) == len(result.retained) == 3
            assert [e.data["iteration"] for e in iterations] == [0, 1, 2]
            picked = [e.data["item"] for e in iterations]
            assert picked == list(result.retained)

    def test_iteration_events_carry_gain_and_cover(self, figure1):
        trace = SolverTrace()
        result = greedy_solve(
            figure1, k=3, variant="independent", strategy="naive",
            tracer=trace,
        )
        events = trace.events_of("iteration")
        covers = [e.data["cover"] for e in events]
        assert covers == sorted(covers)  # monotone under greedy
        assert covers[-1] == pytest.approx(result.cover)
        gains = [e.data["gain"] for e in events]
        assert gains == sorted(gains, reverse=True)  # submodularity

    def test_start_and_end_events_bracket_iterations(self, figure1):
        trace = SolverTrace()
        greedy_solve(figure1, k=2, variant="independent", tracer=trace)
        kinds = [event.kind for event in trace.events]
        assert kinds[0] == "solve.start"
        assert kinds[-1] == "solve.end"
        assert kinds[1:-1] == ["iteration"] * 2

    def test_accelerated_update_width_recorded(self, small_graph, variant):
        trace = SolverTrace()
        greedy_solve(
            small_graph, k=5, variant=variant, strategy="accelerated",
            tracer=trace,
        )
        hist = trace.metrics.histogram("accelerated.update_width")
        assert hist.count == 5
        assert hist.min >= 1
        for event in trace.events_of("iteration"):
            assert event.data["updated_gains"] >= 1


class TestTelemetry:
    def test_events_property(self):
        trace = SolverTrace()
        trace.event("x")
        telemetry = Telemetry(metrics=trace.metrics, trace=trace)
        assert len(telemetry.events) == 1
        bare = Telemetry(metrics=MetricsRegistry())
        assert bare.events == []

    def test_summary_falls_back_to_metrics(self):
        metrics = MetricsRegistry()
        metrics.incr("facade.calls")
        telemetry = Telemetry(metrics=metrics)
        assert "facade.calls" in telemetry.summary()
