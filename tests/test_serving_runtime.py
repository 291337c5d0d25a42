"""Tests for the fault-tolerant serving runtime (repro.serving.runtime).

Covers the resilience surface layered over the assortment service:
seeded-jitter retry schedules, the refresh-path circuit breaker's full
state machine, per-query deadline propagation through the frontend
micro-batcher (including the all-expired batch that must not touch the
snapshot), the monotone degradation ladder fresh → stale → static →
shed, warm-restart snapshot persistence with corrupt-file fallback, and
the ``repro serve`` exit-code contract (0 healthy / 3 degraded /
4 shed).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cli import main
from repro.clickstream.drift import random_delta
from repro.core.cover import item_coverage
from repro.errors import DeadlineExceeded, ReproError, ServingError
from repro.observability import MetricsRegistry
from repro.resilience import FaultInjector, inject_faults
from repro.serving import (
    AssortmentService,
    CircuitBreaker,
    RetryPolicy,
    ServingFrontend,
    ServingRuntime,
    SnapshotPersister,
    Tier,
)
from repro.workloads.graphs import random_preference_graph


@pytest.fixture(autouse=True)
def _suppress_ambient(request):
    """Shield these deterministic tests from ambient ``REPRO_FAULTS``.

    Tests marked ``ambient_chaos`` opt out — they drive the CLI under
    an env-provided spec and need the ambient injector observable.
    """
    if request.node.get_closest_marker("ambient_chaos"):
        yield
        return
    with inject_faults(None):
        yield


def make_service(variant="independent", n=60, k=8, seed=3, **kwargs):
    graph = random_preference_graph(n, variant=variant, seed=seed)
    return AssortmentService(graph, variant=variant, k=k, **kwargs)


def fast_runtime(service, **kwargs):
    """A runtime with no real sleeping and a twitchy breaker."""
    kwargs.setdefault(
        "retry",
        RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
    )
    kwargs.setdefault(
        "breaker",
        CircuitBreaker(window=4, min_calls=2, reset_timeout_s=0.0),
    )
    return ServingRuntime(service, **kwargs)


def next_delta(service, seed=11):
    return random_delta(
        service.graph, sigma=0.2, edge_churn=0.05, seed=seed,
        sequence=service.stats()["sequence"] + 1,
    )


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ServingError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServingError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ServingError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ServingError):
            RetryPolicy(base_delay_s=-1.0)

    def test_delays_deterministic_given_seed(self):
        policy = RetryPolicy(max_attempts=5, seed=42)
        assert policy.delays() == policy.delays()
        other = RetryPolicy(max_attempts=5, seed=43)
        assert policy.delays() != other.delays()

    def test_backoff_growth_and_ceiling(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, max_delay_s=0.4,
            multiplier=2.0, jitter=0.0,
        )
        assert policy.delays() == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_call_retries_then_succeeds(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=7)
        attempts, slept, retried = [], [], []
        def flaky(attempt):
            attempts.append(attempt)
            if attempt < 3:
                raise ServingError("boom")
            return "ok"
        out = policy.call(
            flaky,
            sleep=slept.append,
            on_retry=lambda a, e, d: retried.append((a, d)),
        )
        assert out == "ok"
        assert attempts == [1, 2, 3]
        assert slept == [d for _, d in retried]
        # the jittered schedule is replayed exactly on a second call
        assert slept == policy.delays()[:2]

    def test_call_exhaustion_reraises_last_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        def always(attempt):
            raise ServingError(f"attempt {attempt}")
        with pytest.raises(ServingError, match="attempt 2"):
            policy.call(always, sleep=lambda _: None)

    def test_non_repro_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.0)
        calls = []
        def bug(attempt):
            calls.append(attempt)
            raise ValueError("a genuine bug")
        with pytest.raises(ValueError):
            policy.call(bug, sleep=lambda _: None)
        assert calls == [1]


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        kwargs.setdefault("window", 4)
        kwargs.setdefault("min_calls", 2)
        kwargs.setdefault("failure_threshold", 0.5)
        kwargs.setdefault("reset_timeout_s", 10.0)
        breaker = CircuitBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_opens_after_failure_rate_crossed(self):
        breaker, _ = self._breaker()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"  # below min_calls
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_successes_keep_it_closed(self):
        breaker, _ = self._breaker()
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes_and_clears(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] = 11.0
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        # window was cleared: one more failure must not re-open
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # timeout restarted
        clock["now"] = 22.0
        assert breaker.allow()

    def test_state_gauge_and_transition_counters(self):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            window=4, min_calls=2, reset_timeout_s=0.0, metrics=metrics,
        )
        assert metrics.gauge("serving.breaker.state").value == 0
        breaker.record_failure()
        breaker.record_failure()
        assert metrics.gauge("serving.breaker.state").value == 1
        breaker.allow()
        assert metrics.gauge("serving.breaker.state").value == 2
        breaker.record_success()
        assert metrics.gauge("serving.breaker.state").value == 0
        assert metrics.counter("serving.breaker.open").value == 1
        assert metrics.counter("serving.breaker.closed").value == 1
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert snapshot["opened"] == 1 and snapshot["closed"] == 1


# ----------------------------------------------------------------------
# Degradation tiers
# ----------------------------------------------------------------------
class TestDegradationTiers:
    def test_fresh_answers_are_stamped(self):
        runtime = fast_runtime(make_service())
        snapshot = runtime.ensure()
        answer = runtime.answer(snapshot.graph.items[0])
        assert answer.tier is Tier.FRESH
        assert answer.staleness_s is not None and answer.staleness_s >= 0
        assert answer.sequence == snapshot.sequence
        assert answer.value == snapshot.covered_probability(answer.item)

    def test_failed_refresh_degrades_to_stale(self):
        service = make_service()
        runtime = fast_runtime(service)
        snapshot = runtime.ensure()
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            out = runtime.apply_delta(next_delta(service))
        assert out is snapshot  # last good snapshot keeps serving
        assert runtime.tier is Tier.STALE
        answer = runtime.answer(snapshot.graph.items[1])
        assert answer.tier is Tier.STALE
        assert answer.staleness_s is not None
        # stale answers still match the snapshot's own offline reference
        offline = item_coverage(
            snapshot.graph, snapshot.result.retained, snapshot.variant
        )
        assert answer.value == float(
            offline[snapshot.index_of(answer.item)]
        )

    def test_successful_refresh_resets_to_fresh(self):
        service = make_service()
        runtime = fast_runtime(service)
        runtime.ensure()
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            runtime.apply_delta(next_delta(service))
        assert runtime.tier is Tier.STALE
        refreshed = runtime.refresh()
        assert refreshed is not None
        assert runtime.tier is Tier.FRESH
        assert runtime.metrics.counter("serving.tier.fresh").value >= 1

    def test_cold_start_under_faults_serves_static(self):
        service = make_service(k=6)
        runtime = fast_runtime(service, static_k=5)
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            snapshot = runtime.ensure()
            assert runtime.tier is Tier.STATIC
            assert snapshot.result.strategy == "static-top-weight"
            answer = runtime.answer(snapshot.graph.items[0])
        assert answer.tier is Tier.STATIC
        assert answer.staleness_s is None and answer.sequence == -1
        # once faults clear, the self-warming read path solves for real
        recovered = runtime.answer(snapshot.graph.items[0])
        assert recovered.tier is Tier.FRESH
        # the static fallback is the top-K-by-weight assortment, and its
        # served vector still equals offline recomputation exactly
        csr = service.current_csr()
        expected = set(
            np.argsort(-np.asarray(csr.node_weight), kind="stable")[:5]
            .tolist()
        )
        assert set(
            int(i) for i in snapshot.result.retained_indices
        ) == expected
        offline = item_coverage(
            csr, snapshot.result.retained, service.variant
        )
        assert np.array_equal(snapshot.conditional, offline)

    def test_shed_without_static_fallback(self):
        service = make_service()
        runtime = fast_runtime(service, static_fallback=False)
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            with pytest.raises(ServingError, match="shedding"):
                runtime.ensure()
        assert runtime.tier is Tier.SHED
        assert runtime.shed_count == 1
        assert runtime.metrics.counter("serving.shed").value == 1

    def test_degradation_is_monotone_until_success(self):
        service = make_service()
        runtime = fast_runtime(service)
        runtime.ensure()
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            for step in range(4):
                before = runtime.tier
                runtime.apply_delta(next_delta(service, seed=step))
                assert runtime.tier >= before

    def test_breaker_short_circuits_repeated_failures(self):
        service = make_service()
        metrics = service.metrics
        runtime = fast_runtime(
            service,
            breaker=CircuitBreaker(
                window=4, min_calls=2, reset_timeout_s=1000.0,
            ),
        )
        runtime.ensure()
        with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
            for step in range(5):
                runtime.apply_delta(next_delta(service, seed=step))
        assert runtime.breaker.state == "open"
        assert metrics.counter("serving.breaker.short_circuited").value >= 1
        # short-circuited episodes never reached the solver
        assert service.refresh_failures < 5 * runtime.retry.max_attempts

    def test_stale_sequence_deltas_still_drop(self):
        service = make_service()
        runtime = fast_runtime(service)
        runtime.ensure()
        delta = next_delta(service)
        runtime.apply_delta(delta)
        again = runtime.apply_delta(delta)  # duplicate sequence
        assert again is service.active
        assert service.metrics.counter("serving.deltas_stale").value == 1


# ----------------------------------------------------------------------
# Deadline propagation through the frontend
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_query_fails_fast_with_typed_error(self):
        service = make_service()
        item = service.current_csr().items[0]

        async def scenario():
            frontend = ServingFrontend(
                service, batch_window_s=0.0, default_deadline_s=1e-9,
            )
            async with frontend:
                # the deadline (1ns) expires before the drain loop can
                # possibly seal the batch
                with pytest.raises(DeadlineExceeded):
                    await frontend.covered_probability(item)
            assert service.metrics.counter(
                "serving.deadline_exceeded"
            ).value >= 1

        asyncio.run(scenario())

    def test_batch_window_never_outwaits_earliest_deadline(self):
        service = make_service()
        csr = service.current_csr()

        async def scenario():
            # a one-hour batch window would starve every query; the
            # 50 ms deadline must seal the batch long before that
            frontend = ServingFrontend(service, batch_window_s=3600.0)
            async with frontend:
                value = await asyncio.wait_for(
                    frontend.covered_probability(
                        csr.items[0], timeout_s=0.05
                    ),
                    timeout=5.0,
                )
            return value

        value = asyncio.run(scenario())
        snapshot = service.ensure()
        assert value == snapshot.covered_probability(csr.items[0])

    def test_all_expired_batch_issues_no_snapshot_read(self):
        service = make_service()
        service.ensure()
        csr = service.current_csr()
        reads = []
        original = service.covered_probability_many
        service.covered_probability_many = lambda items: (
            reads.append(list(items)) or original(items)
        )
        frontend = ServingFrontend(service, batch_window_s=0.0)

        async def scenario():
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            batch = [
                (csr.items[i], future, 0.0, 1e-12)  # deadline long past
                for i, future in enumerate(futures)
            ]
            frontend._answer(batch)
            for future in futures:
                with pytest.raises(DeadlineExceeded):
                    future.result()

        asyncio.run(scenario())
        assert reads == []  # no vectorized read for an all-expired batch
        assert service.metrics.counter(
            "serving.deadline_exceeded"
        ).value == 3

    def test_mixed_batch_answers_live_members_only(self):
        service = make_service()
        service.ensure()
        csr = service.current_csr()
        frontend = ServingFrontend(service, batch_window_s=0.0)

        async def scenario():
            loop = asyncio.get_running_loop()
            expired = loop.create_future()
            live = loop.create_future()
            frontend._answer([
                (csr.items[0], expired, 0.0, 1e-12),
                (csr.items[1], live, 0.0, None),
            ])
            with pytest.raises(DeadlineExceeded):
                expired.result()
            return live.result()

        value = asyncio.run(scenario())
        assert value == service.ensure().covered_probability(csr.items[1])

    def test_invalid_default_deadline_rejected(self):
        with pytest.raises(ServingError):
            ServingFrontend(make_service(), default_deadline_s=0.0)


# ----------------------------------------------------------------------
# Warm-restart persistence
# ----------------------------------------------------------------------
class TestWarmRestart:
    def test_restore_is_bitwise_identical(self, tmp_path):
        service = make_service()
        runtime = fast_runtime(service, persist_dir=tmp_path)
        snapshot = runtime.ensure()
        reborn = fast_runtime(
            AssortmentService(
                service.graph, variant=service.variant, k=service.k
            ),
            persist_dir=tmp_path,
        )
        assert reborn.restored
        adopted = reborn.active_snapshot()
        assert adopted.result.retained == snapshot.result.retained
        assert np.array_equal(adopted.conditional, snapshot.conditional)
        assert adopted.key == snapshot.key
        # the restored runtime answers without ever solving
        assert reborn.metrics.counter("serving.warm_restarts").value == 1
        answer = reborn.answer(snapshot.graph.items[0])
        assert answer.tier is Tier.FRESH

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        service = make_service()
        runtime = fast_runtime(service, persist_dir=tmp_path)
        snapshot = runtime.ensure()
        persister = runtime.persister
        # write a newer, corrupt file for the same key
        bogus = persister.path_for(snapshot.key, snapshot.sequence + 7)
        bogus.write_bytes(b"not an npz archive")
        loaded = SnapshotPersister(tmp_path).load(snapshot.key)
        assert loaded is not None
        assert loaded.result.retained == snapshot.result.retained

    def test_foreign_snapshot_is_not_restored(self, tmp_path):
        runtime = fast_runtime(make_service(seed=3), persist_dir=tmp_path)
        runtime.ensure()
        # a service over a different graph must not adopt it
        other = fast_runtime(make_service(seed=4), persist_dir=tmp_path)
        assert not other.restored
        assert other.active_snapshot() is None

    def test_adopt_rejects_key_mismatch(self, tmp_path):
        service_a = make_service(seed=3)
        service_b = make_service(seed=4)
        snapshot = service_a.ensure()
        with pytest.raises(ServingError, match="different question"):
            service_b.adopt(snapshot)

    def test_from_persisted_rebuilds_service_and_rule(self, tmp_path):
        service = make_service(k=7)
        runtime = fast_runtime(service, persist_dir=tmp_path)
        snapshot = runtime.ensure()
        reborn = ServingRuntime.from_persisted(tmp_path)
        assert reborn.restored
        assert reborn.service.k == 7
        assert reborn.service.variant == service.variant
        assert reborn.active_snapshot().key == snapshot.key

    def test_from_persisted_empty_directory_raises(self, tmp_path):
        with pytest.raises(ServingError, match="no usable"):
            ServingRuntime.from_persisted(tmp_path)

    def test_prune_keeps_newest(self, tmp_path):
        service = make_service()
        persister = SnapshotPersister(tmp_path, keep=2)
        runtime = fast_runtime(service, persister=persister)
        runtime.ensure()
        for step in range(4):
            runtime.apply_delta(next_delta(service, seed=step))
        files = sorted(tmp_path.glob("snap-*.npz"))
        # one file per distinct context key; at most `keep` per key
        by_key = {}
        for path in files:
            by_key.setdefault(path.name.rsplit("-", 1)[0], []).append(path)
        assert all(len(group) <= 2 for group in by_key.values())

    def test_injected_write_failures_are_counted_not_fatal(self, tmp_path):
        service = make_service()
        runtime = fast_runtime(service, persist_dir=tmp_path)
        with inject_faults(FaultInjector(checkpoint_write=1.0, seed=5)):
            snapshot = runtime.ensure()
        assert snapshot is not None  # the solve itself succeeded
        assert runtime.persister.write_failures >= 1
        assert list(tmp_path.glob("snap-*.npz")) == []
        assert list(tmp_path.glob(".tmp-*")) == []  # no torn temp files


# ----------------------------------------------------------------------
# Frontend over a runtime + CLI exit codes
# ----------------------------------------------------------------------
class TestIntegration:
    def test_frontend_over_runtime_serves_through_faults(self):
        service = make_service()
        runtime = fast_runtime(service)
        csr = service.current_csr()

        async def scenario():
            frontend = ServingFrontend(runtime, batch_window_s=0.0)
            async with frontend:
                clean = await frontend.covered_probability(csr.items[0])
                with inject_faults(FaultInjector(refresh_crash=1.0, seed=5)):
                    applied = await frontend._apply_delta(
                        next_delta(service)
                    )
                degraded = await frontend.covered_probability(csr.items[0])
            return clean, applied, degraded

        clean, applied, degraded = asyncio.run(scenario())
        assert applied  # runtime absorbed the failure (no raise)
        assert runtime.tier is Tier.STALE
        assert degraded == clean  # still the last good snapshot

    def test_serve_exit_code_healthy(self, capsys):
        code = main([
            "serve", "--items", "30", "--requests", "40",
            "--concurrency", "8", "--seed", "1",
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert '"tier": "fresh"' in report

    @pytest.mark.ambient_chaos
    def test_serve_exit_code_degraded(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "refresh_crash=1.0:seed=9")
        code = main([
            "serve", "--items", "30", "--requests", "40",
            "--concurrency", "8", "--seed", "1", "--retries", "2",
        ])
        assert code == 3
        report = capsys.readouterr().out
        assert '"tier": "static"' in report

    @pytest.mark.ambient_chaos
    def test_serve_exit_code_shed(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "refresh_crash=1.0:seed=9")
        code = main([
            "serve", "--items", "30", "--requests", "40",
            "--concurrency", "8", "--seed", "1", "--retries", "2",
            "--no-static-fallback",
        ])
        assert code == 4

    def test_serve_persist_dir_round_trip(self, tmp_path, capsys):
        persist = tmp_path / "snaps"
        code = main([
            "serve", "--items", "30", "--requests", "20",
            "--concurrency", "8", "--seed", "1",
            "--persist-dir", str(persist),
        ])
        assert code == 0
        assert list(persist.glob("snap-*.npz"))
        code = main([
            "serve", "--items", "30", "--requests", "20",
            "--concurrency", "8", "--seed", "1",
            "--persist-dir", str(persist),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert '"restored": true' in report

    def test_chaos_harness_smoke_is_green(self, monkeypatch):
        from repro.evaluation.fuzz import run_fuzz

        fired = []
        real = FaultInjector.refresh_fails

        def counted(self):
            fired.append(real(self))
            return fired[-1]

        monkeypatch.setattr(FaultInjector, "refresh_fails", counted)
        report = run_fuzz(
            preset="serving-chaos", rounds=2, max_items=32, seed=5
        )
        assert report.ok, report.summary()
        assert any(fired)
        assert "OK" in report.summary()
