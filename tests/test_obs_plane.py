"""Tests for the operations plane: exposition, exporter, logs, traces.

Covers the Prometheus text rendering round-trip, the sidecar HTTP
exporter, labeled-metric plumbing, histogram percentile edge cases,
registry thread-safety under contention, and end-to-end trace
correlation across the serving frontend, the snapshot service and the
runtime's refresh episodes.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.observability import (
    COUNT_BUCKETS,
    Histogram,
    MetricsExporter,
    MetricsRegistry,
    logs,
    parse_exposition,
    render_exposition,
)
from repro.observability.console import render_dashboard
from repro.observability.exposition import (
    bucket_quantile,
    sanitize_metric_name,
)
from repro.resilience import FaultInjector, inject_faults
from repro.serving import (
    AssortmentService,
    CircuitBreaker,
    RetryPolicy,
    ServingFrontend,
    ServingRuntime,
)
from repro.workloads.graphs import random_preference_graph


@pytest.fixture(autouse=True)
def _quiet_ambient():
    """Shield deterministic assertions from ambient ``REPRO_FAULTS``."""
    with inject_faults(None):
        yield


@pytest.fixture()
def event_log(tmp_path):
    """Enable the JSON-lines sink for one test; yields the log path."""
    path = tmp_path / "events.jsonl"
    logs.configure_logging(str(path))
    try:
        yield path
    finally:
        logs.reset_logging()


def read_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def make_service(n=60, k=8, seed=3):
    graph = random_preference_graph(n, variant="independent", seed=seed)
    return AssortmentService(graph, variant="independent", k=k)


# ---------------------------------------------------------------------
# histogram percentile edge cases


class TestHistogramEdgeCases:
    def test_empty_percentile_is_none(self):
        histogram = Histogram("latency")
        assert histogram.percentile(50.0) is None
        assert histogram.p50 is None
        assert histogram.p99 is None

    def test_invalid_quantile_raises_even_when_empty(self):
        histogram = Histogram("latency")
        with pytest.raises(ValueError):
            histogram.percentile(-1.0)
        with pytest.raises(ValueError):
            histogram.percentile(100.5)
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(101.0)

    def test_extreme_quantiles(self):
        histogram = Histogram("latency")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(100.0) == 5.0

    def test_single_observation_every_quantile(self):
        histogram = Histogram("latency")
        histogram.observe(7.0)
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert histogram.percentile(q) == 7.0


# ---------------------------------------------------------------------
# registry thread-safety


class TestRegistryThreadSafety:
    def test_concurrent_hammer_loses_nothing(self):
        registry = MetricsRegistry()
        workers, rounds = 8, 500
        barrier = threading.Barrier(workers)

        def hammer(worker):
            barrier.wait()
            for i in range(rounds):
                registry.incr("hits")
                registry.incr("labeled", labels={"w": str(worker % 2)})
                registry.observe("lat", 0.001 * (i % 17))
                registry.record_time("step", 0.001)
                registry.set_gauge("depth", float(i))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert registry.counter("hits").value == workers * rounds
        labeled = (
            registry.counter("labeled", labels={"w": "0"}).value
            + registry.counter("labeled", labels={"w": "1"}).value
        )
        assert labeled == workers * rounds
        assert registry.histogram("lat").count == workers * rounds
        assert registry.timer("step").count == workers * rounds
        # Bucket counts must agree with the total despite racing writers.
        histogram = registry.histogram("lat")
        buckets = histogram.cumulative_buckets()
        assert buckets[-1][1] == histogram.count


# ---------------------------------------------------------------------
# exposition rendering and parsing


class TestExposition:
    def test_sanitize_names(self):
        assert (
            sanitize_metric_name("serving.answer_latency_s")
            == "repro_serving_answer_latency_seconds"
        )
        assert sanitize_metric_name("a b/c") == "repro_a_b_c"

    def test_render_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.incr("serving.queries", 42)
        registry.set_gauge("serving.tier", 1)
        registry.observe(
            "serving.answer_latency_s", 0.002, labels={"tier": "fresh"}
        )
        registry.record_time("span.solve", 0.5)
        text = render_exposition(registry.snapshot())
        assert "# TYPE repro_serving_queries_total counter" in text
        assert "repro_serving_queries_total 42" in text
        assert "repro_serving_tier 1" in text
        assert (
            'repro_serving_answer_latency_seconds_bucket{le="+Inf",'
            'tier="fresh"} 1' in text
        )
        assert "repro_span_solve_seconds_sum 0.5" in text
        assert text.endswith("\n")

    def test_round_trip_parse(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.004, 0.2):
            registry.observe("lat_s", value)
        registry.incr("hits", 7)
        series = parse_exposition(render_exposition(registry.snapshot()))
        assert series["repro_hits_total"][()] == 7.0
        buckets = [
            (float(dict(labels)["le"]), value)
            for labels, value in series["repro_lat_seconds_bucket"].items()
        ]
        assert max(value for _, value in buckets) == 4.0
        estimate = bucket_quantile(buckets, 0.5)
        assert estimate is not None and 0.0 < estimate < 0.01

    def test_cumulative_buckets_monotone(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(0)
        for value in rng.exponential(0.01, size=200):
            registry.observe("lat_s", float(value))
        buckets = registry.histogram("lat_s").cumulative_buckets()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)

    def test_bucket_quantile_edges(self):
        with pytest.raises(ValueError):
            bucket_quantile([(1.0, 1.0)], 1.5)
        assert bucket_quantile([], 0.5) is None
        assert bucket_quantile([(1.0, 0.0), (float("inf"), 0.0)], 0.5) is None

    def test_snapshot_is_the_single_schema(self):
        """Benchmark dumps and exposition serialize the same snapshot."""
        registry = MetricsRegistry()
        registry.incr("x")
        registry.observe("lat_s", 0.5)
        snapshot = registry.snapshot()
        # JSON-serializable as-is (what benchmarks/results/metrics.json
        # now stores) and renderable as Prometheus text.
        dumped = json.loads(json.dumps(snapshot))
        assert dumped == snapshot
        assert "repro_x_total 1" in render_exposition(dumped)


# ---------------------------------------------------------------------
# HTTP exporter


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestExporter:
    def test_metrics_healthz_readyz(self):
        registry = MetricsRegistry()
        registry.incr("serving.queries", 3)
        ready = {"flag": True}
        with MetricsExporter(
            registry,
            readiness=lambda: (ready["flag"], {"tier": "fresh"}),
        ) as exporter:
            status, body = fetch(exporter.url + "/metrics")
            assert status == 200
            assert "repro_serving_queries_total 3" in body
            status, body = fetch(exporter.url + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            status, body = fetch(exporter.url + "/readyz")
            assert status == 200
            assert json.loads(body) == {
                "status": "ready", "tier": "fresh",
            }
            ready["flag"] = False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(exporter.url + "/readyz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "unready"

    def test_unknown_path_is_404(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(exporter.url + "/nope")
            assert excinfo.value.code == 404

    def test_crashing_probe_reports_unready(self):
        def probe():
            raise RuntimeError("boom")

        with MetricsExporter(MetricsRegistry(), readiness=probe) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(exporter.url + "/readyz")
            assert excinfo.value.code == 503

    def test_runtime_readiness_wiring(self):
        service = make_service()
        runtime = ServingRuntime(
            service,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            breaker=CircuitBreaker(window=4, min_calls=2,
                                   reset_timeout_s=1000.0),
        )
        runtime.ensure()
        ok, detail = runtime.readiness()
        assert ok and detail["tier"] == "fresh"
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            for step in range(5):
                runtime.apply_delta(_next_delta(service, seed=step))
        ok, detail = runtime.readiness()
        assert not ok and detail["breaker"] == "open"


def _next_delta(service, seed=11):
    from repro.clickstream.drift import random_delta

    return random_delta(
        service.graph, sigma=0.2, seed=seed, sequence=seed + 1
    )


# ---------------------------------------------------------------------
# trace correlation


class TestTraceCorrelation:
    def test_batch_and_service_reads_share_trace(self, event_log):
        service = make_service()
        frontend = ServingFrontend(service, batch_window_s=0.002)

        async def scenario():
            async with frontend:
                items = list(service.graph.items())[:6]
                return await asyncio.gather(*[
                    frontend.covered_probability(item) for item in items
                ])

        answers = asyncio.run(scenario())
        assert len(answers) == 6
        logs.reset_logging()
        records = read_records(event_log)
        seals = [r for r in records if r["event"] == "batch_seal"]
        assert seals, "no batch_seal records written"
        # Every member query's trace finds the shared batch steps and
        # the vectorized snapshot read issued on its behalf.
        member = seals[0]["trace_ids"][0]
        matching = [
            r for r in records if logs.record_matches_trace(r, member)
        ]
        events = {r["event"] for r in matching}
        assert "batch_seal" in events
        assert "batch_answered" in events
        assert "read" in events  # service-level snapshot read

    def test_refresh_episode_correlates_with_span(self, event_log):
        service = make_service()
        runtime = ServingRuntime(
            service,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            breaker=CircuitBreaker(window=4, min_calls=2,
                                   reset_timeout_s=1000.0),
        )
        runtime.ensure()
        with logs.span("test") as context:
            with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
                for step in range(5):
                    runtime.apply_delta(_next_delta(service, seed=step))
        logs.reset_logging()
        records = [
            r for r in read_records(event_log)
            if logs.record_matches_trace(r, context.trace_id)
        ]
        events = {r["event"] for r in records}
        assert "refresh_episode" in events
        assert "tier_transition" in events
        assert "breaker_transition" in events
        outcomes = {
            r.get("outcome") for r in records
            if r["event"] == "refresh_episode"
        }
        assert "failed" in outcomes
        assert "short_circuited" in outcomes

    def test_disabled_sink_stays_silent(self, tmp_path):
        assert not logs.logging_enabled()
        service = make_service()
        frontend = ServingFrontend(service, batch_window_s=0.0)

        async def scenario():
            async with frontend:
                item = list(service.graph.items())[0]
                return await frontend.covered_probability(item)

        asyncio.run(scenario())  # must not raise without a sink


# ---------------------------------------------------------------------
# SLO instruments


class TestSloInstruments:
    def test_per_tier_latency_and_staleness(self):
        service = make_service()
        runtime = ServingRuntime(
            service,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        )
        runtime.ensure()
        runtime.answer(list(service.graph.items())[0])
        fresh = service.metrics.histogram(
            "serving.answer_latency_s", labels={"tier": "fresh"}
        )
        assert fresh.count >= 1
        staleness = service.metrics.gauge("serving.staleness_s")
        assert staleness.value is not None and staleness.value >= 0.0
        episodes = service.metrics.histogram("serving.refresh_episode_s")
        assert episodes.count >= 1
        text = render_exposition(service.metrics.snapshot())
        assert (
            'repro_serving_answer_latency_seconds_bucket{le="+Inf",'
            'tier="fresh"}' in text
        )

    def test_batch_occupancy_histogram(self):
        service = make_service()
        frontend = ServingFrontend(service, batch_window_s=0.002)

        async def scenario():
            async with frontend:
                items = list(service.graph.items())[:5]
                await asyncio.gather(*[
                    frontend.covered_probability(item) for item in items
                ])

        asyncio.run(scenario())
        occupancy = service.metrics.histogram("serving.batch_occupancy")
        assert occupancy.count >= 1
        assert occupancy.total == 5
        bounds = [bound for bound, _ in occupancy.cumulative_buckets()]
        assert bounds == list(COUNT_BUCKETS)


# ---------------------------------------------------------------------
# dashboard rendering (pure function, no terminal needed)


class TestDashboard:
    def test_render_dashboard_from_scrape(self):
        registry = MetricsRegistry()
        registry.incr("serving.queries", 120)
        registry.set_gauge("serving.tier", 1)
        registry.set_gauge("serving.breaker.state", 1)
        registry.set_gauge("serving.staleness_s", 4.2)
        registry.observe(
            "serving.answer_latency_s", 0.003, labels={"tier": "stale"}
        )
        series = parse_exposition(render_exposition(registry.snapshot()))
        frame = render_dashboard(series, interval_s=2.0, color=False)
        assert "stale" in frame
        assert "open" in frame
        assert "120" in frame
