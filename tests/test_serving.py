"""Tests for the assortment serving layer (repro.serving).

Covers the acceptance surface of the serving subsystem: snapshot cache
hit/miss and TTL expiry (via an injectable clock, no sleeping), atomic
hot-swap under concurrent queries, micro-batching window correctness,
the differential guarantee that served answers equal offline
``cover``-module recomputation exactly, and chaos-mode degradation —
an injected refresh crash plus a corrupted delta feed must not drop
in-flight queries, which keep being answered from the last good
snapshot.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

import repro
from repro.clickstream.drift import GraphDelta, graph_delta, random_delta
from repro.core.cover import cover, item_coverage
from repro.errors import (
    ClickstreamFormatError,
    ServingError,
    SolverError,
    UnknownItemError,
    VariantError,
)
from repro.observability import MetricsRegistry
from repro.resilience.faults import FaultInjector, InjectedCrash, inject_faults
from repro.serving import (
    AssortmentService,
    RetryPolicy,
    ServingFrontend,
    ServingRuntime,
    SolutionStore,
)
from repro.workloads.graphs import random_preference_graph


def make_service(variant="independent", n=120, k=12, seed=3, **kwargs):
    graph = random_preference_graph(n, variant=variant, seed=seed)
    return AssortmentService(graph, variant=variant, k=k, **kwargs)


def assert_is_cold_solve(snapshot, **rule):
    """The snapshot is bitwise a cold ``repro.solve`` of its own CSR."""
    cold = repro.solve(snapshot.graph, variant=snapshot.variant, **rule)
    assert snapshot.retained == cold.retained
    assert snapshot.cover == cold.cover
    assert np.array_equal(
        snapshot.conditional,
        item_coverage(snapshot.graph, cold.retained, snapshot.variant),
    )


# ----------------------------------------------------------------------
# SolutionStore: LRU, TTL, counters
# ----------------------------------------------------------------------
class TestSolutionStore:
    def _snapshot(self, service, key=None):
        snapshot = service.ensure()
        if key is None:
            return snapshot
        import dataclasses

        return dataclasses.replace(snapshot, key=key)

    def test_cache_hit_and_miss_counters(self):
        service = make_service()
        store = service.store
        service.ensure()  # cold solve
        assert store.misses == 1 and store.hits == 0
        service.ensure()
        assert store.hits == 1 and store.misses == 1
        assert store.get("no-such-key") is None
        assert store.misses == 2
        assert 0 < store.hit_ratio < 1

    def test_cache_hit_returns_identical_snapshot_object(self):
        service = make_service()
        first = service.ensure()
        assert service.ensure() is first

    def test_lru_eviction_beyond_capacity(self):
        service = make_service()
        base = service.ensure()
        store = SolutionStore(capacity=2)
        import dataclasses

        for name in ("a", "b", "c"):
            store.put(dataclasses.replace(base, key=name))
        assert len(store) == 2
        assert store.evictions == 1
        assert store.keys() == ["b", "c"]  # "a" was least recently used

    def test_lru_order_updated_by_get(self):
        service = make_service()
        base = service.ensure()
        store = SolutionStore(capacity=2)
        import dataclasses

        store.put(dataclasses.replace(base, key="a"))
        store.put(dataclasses.replace(base, key="b"))
        assert store.get("a") is not None  # refresh "a"
        store.put(dataclasses.replace(base, key="c"))
        assert store.keys() == ["a", "c"]  # "b" evicted, not "a"

    def test_ttl_expiry_with_injectable_clock(self):
        clock = {"now": 0.0}
        store = SolutionStore(capacity=4, ttl_s=10.0,
                              clock=lambda: clock["now"])
        service = make_service(store=store)
        snapshot = service.ensure()
        clock["now"] = 5.0
        assert store.get(snapshot.key) is snapshot  # still fresh
        clock["now"] = 15.1
        assert store.get(snapshot.key) is None      # expired
        assert store.expirations == 1
        # ensure() transparently re-solves after expiry.
        again = service.ensure()
        assert again is not snapshot
        assert again.key == snapshot.key

    def test_ttl_expiry_races_concurrent_get_put(self):
        """TTL expiry must stay consistent under concurrent get/put.

        Writers keep re-inserting snapshots stamped at the current
        clock, readers keep probing, and a third thread jumps the clock
        past the TTL repeatedly.  However the three interleave, no call
        may raise, every hit must return a snapshot for the requested
        key, the hit/miss tally must account for every probe exactly
        once, and entries stamped before a clock jump must actually
        expire (the expiration counter moves).
        """
        import dataclasses
        import time as _time

        service = make_service(n=40, k=6)
        base = service.ensure()
        clock_lock = threading.Lock()
        clock = {"now": 0.0}

        def now() -> float:
            with clock_lock:
                return clock["now"]

        store = SolutionStore(capacity=4, ttl_s=1.0, clock=now)
        keys = ["race-a", "race-b"]
        stop = threading.Event()
        errors: list = []
        probes = [0] * 4

        def writer(key: str) -> None:
            try:
                while not stop.is_set():
                    store.put(dataclasses.replace(
                        base, key=key, created_at=now()))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader(slot: int, key: str) -> None:
            try:
                while not stop.is_set():
                    snapshot = store.get(key)
                    probes[slot] += 1
                    if snapshot is not None and snapshot.key != key:
                        errors.append(
                            AssertionError(f"{key} hit -> {snapshot.key}"))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def advancer() -> None:
            # Each jump exceeds the TTL, so everything written before
            # it is expired the moment a reader next probes it.
            for _ in range(60):
                with clock_lock:
                    clock["now"] += 1.5
                _time.sleep(0.002)
            stop.set()

        threads = [threading.Thread(target=writer, args=(k,)) for k in keys]
        threads += [
            threading.Thread(target=reader, args=(slot, keys[slot % 2]))
            for slot in range(4)
        ]
        threads.append(threading.Thread(target=advancer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        # Every probe is tallied exactly once, as a hit or a miss.
        assert store.hits + store.misses == sum(probes)
        assert store.expirations > 0
        assert len(store) <= store.capacity
        # After the dust settles a fresh put is immediately servable.
        final = store.put(dataclasses.replace(
            base, key="race-final", created_at=now()))
        assert store.get("race-final") is final

    def test_store_validation(self):
        with pytest.raises(ValueError):
            SolutionStore(capacity=0)
        with pytest.raises(ValueError):
            SolutionStore(ttl_s=0.0)

    def test_stats_payload(self):
        service = make_service()
        service.ensure()
        stats = service.store.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 0 and stats["misses"] == 1


# ----------------------------------------------------------------------
# AssortmentService: queries, differential guarantee, deltas
# ----------------------------------------------------------------------
class TestAssortmentService:
    def test_requires_exactly_one_stopping_rule(self):
        graph = random_preference_graph(30, seed=0)
        with pytest.raises(ServingError):
            AssortmentService(graph, variant="independent")
        with pytest.raises(ServingError):
            AssortmentService(graph, variant="independent", k=3,
                              threshold=0.5)

    def test_served_answers_match_offline_recomputation_exactly(self, variant):
        service = make_service(variant=variant, n=150, k=15, seed=11)
        snapshot = service.ensure()
        offline = item_coverage(
            snapshot.graph, snapshot.result.retained, variant
        )
        assert np.array_equal(snapshot.conditional, offline)
        for index in (0, 7, 42, 149):
            item = snapshot.graph.items[index]
            assert service.covered_probability(item) == float(offline[index])

    def test_query_reports_membership_and_probability(self):
        service = make_service()
        snapshot = service.ensure()
        retained = set(snapshot.result.retained)
        rows = service.query(snapshot.graph.items[:20])
        assert len(rows) == 20
        for row in rows:
            assert row["retained"] == (row["item"] in retained)
            if row["retained"]:
                assert row["covered_probability"] == 1.0

    def test_top_alternatives_sorted_retained_only(self):
        service = make_service(n=200, k=30, seed=5)
        snapshot = service.ensure()
        retained = set(snapshot.result.retained)
        checked = 0
        for item in snapshot.graph.items:
            alternatives = service.top_alternatives(item, limit=4)
            if item in retained:
                assert alternatives == []
                continue
            weights = [w for _, w in alternatives]
            assert weights == sorted(weights, reverse=True)
            assert all(alt in retained for alt, _ in alternatives)
            checked += len(alternatives)
        assert checked > 0  # the instance produced real alternatives

    def test_unknown_item_raises_typed_error(self):
        service = make_service()
        service.ensure()
        with pytest.raises(UnknownItemError):
            service.covered_probability("no-such-item")
        with pytest.raises(UnknownItemError):
            service.top_alternatives("no-such-item")

    def test_threshold_mode_serves_from_facade_solve(self):
        graph = random_preference_graph(80, seed=9)
        service = AssortmentService(
            graph, variant="independent", threshold=0.6
        )
        snapshot = service.ensure()
        assert snapshot.result.cover >= 0.6
        offline = item_coverage(
            snapshot.graph, snapshot.result.retained, "independent"
        )
        assert np.array_equal(snapshot.conditional, offline)
        after = service.apply_delta(
            random_delta(service.graph, sigma=0.1, seed=4, sequence=1)
        )
        assert_is_cold_solve(after, threshold=0.6)

    def test_apply_delta_refreshes_and_reuses_prefix(self):
        service = make_service(n=150, k=20, seed=21)
        before = service.ensure()
        delta = random_delta(service.graph, sigma=0.05, seed=1, sequence=1)
        after = service.apply_delta(delta)
        assert after is not before
        assert after.key != before.key
        assert service.active is after
        assert_is_cold_solve(before, k=20)
        assert_is_cold_solve(after, k=20)

    def test_warm_reads_add_no_store_miss_and_no_solve(self):
        service = make_service(n=150, k=15, seed=11)
        snapshot = service.ensure()
        misses = service.store.misses
        for item in snapshot.graph.items:
            service.covered_probability(item)
        service.covered_probability_many(snapshot.graph.items)
        assert service.ensure() is snapshot
        assert service.store.misses == misses == 1
        assert service.metrics.timer("serving.solve").count == 1

    def test_stale_delta_is_dropped(self):
        service = make_service()
        service.ensure()
        first = service.apply_delta(
            random_delta(service.graph, sigma=0.1, seed=2, sequence=5)
        )
        again = service.apply_delta(
            random_delta(service.graph, sigma=0.1, seed=3, sequence=5)
        )
        assert again is first  # same sequence: ignored
        assert service.metrics.counter("serving.deltas_stale").value == 1

    def test_hot_swap_atomicity_under_concurrent_queries(self):
        """Concurrent readers must always see an internally consistent
        snapshot: every batch answer must match one of the snapshots
        that existed during the run, never a mixture."""
        service = make_service(n=100, k=10, seed=8)
        service.ensure()
        items = list(service.graph.items())
        probe = items[:32]
        valid_answers = []  # tuple views of every snapshot ever active

        def snapshot_answer(snapshot):
            return tuple(
                float(x) for x in snapshot.covered_probability_many(probe)
            )

        valid_answers.append(snapshot_answer(service.active))
        errors = []
        seen = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    seen.append(
                        tuple(
                            float(x) for x in
                            service.covered_probability_many(probe)
                        )
                    )
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for sequence in range(1, 6):
            delta = random_delta(
                service.graph, sigma=0.1, seed=sequence, sequence=sequence
            )
            swapped = service.apply_delta(delta)
            valid_answers.append(snapshot_answer(swapped))
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert seen, "readers never completed a query"
        valid = set(valid_answers)
        torn = [answer for answer in seen if answer not in valid]
        assert not torn, f"{len(torn)} torn reads of {len(seen)}"

    def test_shared_store_deduplicates_identical_questions(self):
        graph = random_preference_graph(60, seed=4)
        store = SolutionStore()
        first = AssortmentService(
            graph, variant="independent", k=6, store=store
        )
        second = AssortmentService(
            graph, variant="independent", k=6, store=store
        )
        a = first.ensure()
        b = second.ensure()
        assert a is b  # identical context digest -> one snapshot


# ----------------------------------------------------------------------
# ServingFrontend: batching, admission control, degradation
# ----------------------------------------------------------------------
class TestServingFrontend:
    def run(self, coro):
        return asyncio.run(coro)

    def test_batching_window_coalesces_concurrent_requests(self):
        service = make_service(n=100, k=10)
        service.ensure()
        items = list(service.graph.items())[:40]

        async def main():
            async with ServingFrontend(
                service, batch_window_s=0.05, max_batch=64
            ) as frontend:
                answers = await asyncio.gather(
                    *(frontend.covered_probability(item) for item in items)
                )
            return answers

        answers = self.run(main())
        snapshot = service.active
        expected = snapshot.covered_probability_many(items)
        assert answers == [float(x) for x in expected]
        batches = service.metrics.histogram("serving.batch_size")
        # 40 concurrent requests within a 50ms window must land in far
        # fewer vectorized calls than 40 (typically 1-2 batches).
        assert batches.count < len(items)
        assert batches.max > 1

    def test_max_batch_bounds_each_vectorized_call(self):
        service = make_service(n=80, k=8)
        service.ensure()
        items = list(service.graph.items())[:30]

        async def main():
            async with ServingFrontend(
                service, batch_window_s=0.05, max_batch=10
            ) as frontend:
                await asyncio.gather(
                    *(frontend.covered_probability(item) for item in items)
                )

        self.run(main())
        assert service.metrics.histogram("serving.batch_size").max <= 10

    def test_batch_answers_match_point_reads(self):
        service = make_service(n=90, k=9, seed=13)
        snapshot = service.ensure()
        items = list(service.graph.items())

        async def main():
            async with ServingFrontend(service) as frontend:
                return await frontend.query(items[:25])

        rows = self.run(main())
        for row in rows:
            assert row["covered_probability"] == \
                snapshot.covered_probability(row["item"])

    def test_admission_control_sheds_load_beyond_max_pending(self):
        service = make_service(n=60, k=6)
        service.ensure()
        items = list(service.graph.items())

        async def main():
            frontend = ServingFrontend(
                service, batch_window_s=0.2, max_pending=5
            )
            # Not started: the drain loop never empties the queue, so
            # submissions beyond max_pending must be rejected.
            frontend._queue = asyncio.Queue()
            futures = [
                frontend._submit(items[i % len(items)]) for i in range(5)
            ]
            with pytest.raises(ServingError):
                frontend._submit(items[0])
            for future in futures:
                future.cancel()
            return service.metrics.counter("serving.rejected").value

        assert self.run(main()) == 1

    def test_unknown_item_does_not_poison_batch(self):
        service = make_service(n=50, k=5)
        service.ensure()
        good = list(service.graph.items())[:3]

        async def main():
            async with ServingFrontend(
                service, batch_window_s=0.05
            ) as frontend:
                futures = [
                    frontend.covered_probability(item) for item in good
                ]
                bad = frontend.covered_probability("no-such-item")
                results = await asyncio.gather(
                    *futures, bad, return_exceptions=True
                )
            return results

        results = self.run(main())
        assert all(
            isinstance(value, float) for value in results[:3]
        ), "good items must still be answered"
        assert isinstance(results[3], UnknownItemError)

    def test_serve_forever_consumes_delta_feed_then_stops(self):
        service = make_service(n=80, k=8, seed=17)

        async def main():
            deltas = [
                random_delta(service.graph, sigma=0.05, seed=s, sequence=s)
                for s in (1, 2, 3)
            ]

            async def feed():
                for delta in deltas:
                    yield delta.to_json()

            frontend = ServingFrontend(service, batch_window_s=0.001)
            await frontend.serve_forever(feed())
            return service.stats()

        stats = self.run(main())
        assert stats["sequence"] == 3
        assert service.metrics.counter("serving.deltas_applied").value == 3


# ----------------------------------------------------------------------
# Chaos: injected crash + corrupted feed must degrade, not break
# ----------------------------------------------------------------------
class TestServingDegradation:
    def test_refresh_crash_keeps_last_good_snapshot(self):
        service = make_service(n=90, k=9, seed=23)
        good = service.ensure()
        injector = FaultInjector(kill_round=1)
        with inject_faults(injector):
            with pytest.raises(InjectedCrash):
                service.apply_delta(
                    random_delta(
                        service.graph, sigma=0.1, seed=1, sequence=1
                    )
                )
        assert injector.fired.get("kill_round") == 1
        assert service.refresh_failures == 1
        # Queries keep working off the last good snapshot.
        assert service.active is good
        item = good.graph.items[0]
        assert service.covered_probability(item) == \
            good.covered_probability(item)

    def test_frontend_survives_crash_and_corrupt_feed(self):
        """The acceptance scenario: a FaultInjector spec combining a
        refresh crash with delta-feed corruption; in-flight queries are
        all answered from the last good snapshot."""
        service = make_service(n=100, k=10, seed=29)
        good = service.ensure()
        items = list(service.graph.items())
        injector = FaultInjector(
            seed=7, kill_round=1, malformed_record=1.0
        )

        async def main():
            async with ServingFrontend(
                service, batch_window_s=0.005
            ) as frontend:
                in_flight = [
                    asyncio.ensure_future(
                        frontend.covered_probability(items[i % len(items)])
                    )
                    for i in range(24)
                ]
                # Corrupted line: dropped by the parser, counted.
                corrupt = random_delta(
                    service.graph, sigma=0.1, seed=2, sequence=1
                ).to_json()
                parsed = frontend._parse_delta(corrupt)
                assert parsed is None
                # Structurally valid delta whose refresh crashes.
                crashing = GraphDelta.from_json(
                    random_delta(
                        service.graph, sigma=0.1, seed=3, sequence=2
                    ).to_json()
                )
                applied = await frontend._apply_delta(crashing)
                assert applied is False
                return await asyncio.gather(*in_flight)

        with inject_faults(injector):
            answers = asyncio.run(main())
        assert len(answers) == 24
        assert all(isinstance(value, float) for value in answers)
        # Degraded to the last good snapshot, observably.
        assert service.active is good
        assert service.refresh_failures == 1
        assert service.metrics.counter("serving.deltas_corrupt").value == 1
        assert injector.fired.get("malformed_record", 0) >= 1
        assert injector.fired.get("kill_round") == 1
        expected = good.covered_probability_many(
            [items[i % len(items)] for i in range(24)]
        )
        assert answers == [float(x) for x in expected]


# ----------------------------------------------------------------------
# GraphDelta: diffing, application, wire form
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_graph_delta_roundtrip(self, line_graph):
        target = line_graph.copy()
        target.add_item("A", 0.4)
        target.add_item("B", 0.4)
        target.add_edge("C", "A", 0.7)
        target.remove_edge("B", "C")
        delta = graph_delta(line_graph, target, sequence=3)
        assert not delta.is_empty
        assert delta.n_changes == 4
        rebuilt = delta.apply_to(line_graph.copy())
        assert graph_delta(rebuilt, target).is_empty

    def test_json_wire_form_roundtrip(self, line_graph):
        delta = GraphDelta(
            node_weights={"A": 0.6},
            edge_updates=(("A", "B", 0.25),),
            edge_removals=(("B", "C"),),
            sequence=9,
        )
        parsed = GraphDelta.from_json(delta.to_json())
        assert parsed.node_weights == {"A": 0.6}
        assert parsed.edge_updates == (("A", "B", 0.25),)
        assert parsed.edge_removals == (("B", "C"),)
        assert parsed.sequence == 9

    def test_corrupt_payloads_raise_typed_error(self):
        with pytest.raises(ClickstreamFormatError):
            GraphDelta.from_json("{not json")
        with pytest.raises(ClickstreamFormatError):
            GraphDelta.from_json('["a", "list"]')
        with pytest.raises(ClickstreamFormatError):
            GraphDelta.from_dict({"node_weights": [["A", "not-a-number"]]})

    def test_random_delta_preserves_validity(self, variant):
        graph = random_preference_graph(
            60, variant=variant, seed=31
        ).to_preference_graph()
        delta = random_delta(graph, sigma=0.3, edge_churn=0.2, seed=1)
        delta.apply_to(graph)
        graph.validate(variant)  # must not raise


# ----------------------------------------------------------------------
# A delta with a bad entry is rejected whole
# ----------------------------------------------------------------------
#: The second update names an unknown item; nothing of it may stick.
BAD_DELTA = GraphDelta(
    node_weights={"a": 0.1, "c": 0.6},
    edge_updates=(("x", "c", 0.3),),
    sequence=1,
)
GOOD_DELTA = GraphDelta(edge_updates=(("a", "c", 0.9),), sequence=2)


def abc_graph():
    return repro.PreferenceGraph.from_weights(
        {"a": 0.5, "b": 0.3, "c": 0.2}, [("a", "b", 0.5), ("b", "c", 0.4)]
    )


def abc_service(form):
    """k=1 over ``abc_graph``, dict-backed or in bulk form (CSR input)."""
    graph = abc_graph() if form == "dicts" else abc_graph().to_csr()
    return AssortmentService(graph, variant="independent", k=1)


def served_state(service):
    csr = service.current_csr()
    return (
        list(csr.items), csr.node_weight.tolist(), csr.content_digest(),
        service.context_key(), service.stats()["sequence"],
    )


def assert_served_accepted_only(snapshot):
    """The served answer equals an offline cover of GOOD_DELTA alone."""
    expected = GOOD_DELTA.apply_to(abc_graph())
    assert snapshot.retained == ["c"]
    assert snapshot.cover == cover(expected, ["c"], "independent")
    assert snapshot.cover == repro.solve(
        expected, variant="independent", k=1
    ).cover
    assert snapshot.cover == pytest.approx(0.77)


class TestRejectedDelta:
    @pytest.mark.parametrize("form", ["dicts", "bulk"])
    def test_service(self, form):
        service = abc_service(form)
        service.ensure()
        before = served_state(service)
        with pytest.raises(UnknownItemError):
            service.apply_delta(BAD_DELTA)
        assert served_state(service) == before
        assert (service.graph._arrays is None) == (form == "dicts")
        assert service.metrics.counter("serving.deltas_rejected").value == 1
        assert service.metrics.counter("serving.deltas_applied").value == 0
        assert service.refresh_failures == 0
        assert_served_accepted_only(service.apply_delta(GOOD_DELTA))

    @pytest.mark.parametrize("form", ["dicts", "bulk"])
    def test_runtime(self, form):
        runtime = ServingRuntime(abc_service(form))
        runtime.ensure()
        before = served_state(runtime.service)
        with pytest.raises(UnknownItemError):
            runtime.apply_delta(BAD_DELTA)
        assert served_state(runtime.service) == before
        assert runtime.tier.name == "FRESH"
        assert_served_accepted_only(runtime.apply_delta(GOOD_DELTA))

    @pytest.mark.parametrize("form", ["dicts", "bulk"])
    def test_frontend_feed(self, form):
        self.assert_feed_applies_only_the_good_delta(form, BAD_DELTA)

    @pytest.mark.parametrize("bad", [
        GraphDelta(edge_updates=(("a",),), sequence=1),
        GraphDelta(edge_updates=(("a", "c", "heavy"),), sequence=1),
        GraphDelta(edge_updates=((["a"], "c", 0.3),), sequence=1),
        GraphDelta(edge_removals=(("a", "b", 0.5),), sequence=1),
        GraphDelta(node_weights={"a": None}, sequence=1),
    ], ids=["short-update", "bad-weight", "unhashable-id", "long-removal",
            "null-node-weight"])
    @pytest.mark.parametrize("form", ["dicts", "bulk"])
    def test_frontend_feed_goes_on_past_a_malformed_delta(self, form, bad):
        self.assert_feed_applies_only_the_good_delta(form, bad)

    @staticmethod
    def assert_feed_applies_only_the_good_delta(form, bad):
        runtime = ServingRuntime(abc_service(form))
        runtime.ensure()

        async def main():
            async def feed():
                yield bad
                yield GOOD_DELTA.to_json()

            async with ServingFrontend(runtime) as frontend:
                applied = await frontend.consume_deltas(feed())
                answer = await frontend.covered_probability("a")
            return applied, answer

        applied, answer = asyncio.run(main())
        metrics = runtime.metrics
        assert applied == 1
        assert metrics.counter("serving.deltas_rejected").value == 1
        assert metrics.counter("serving.deltas_applied").value == 1
        assert runtime.service.refresh_failures == 0
        snapshot = runtime.service.active
        assert snapshot.sequence == 2
        assert_served_accepted_only(snapshot)
        expected = GOOD_DELTA.apply_to(abc_graph())
        assert answer == item_coverage(expected, ["c"], "independent")[
            expected.to_csr().index_of("a")
        ]


# ----------------------------------------------------------------------
# Satellites: SolveResult contract, variant coercion, validated flag
# ----------------------------------------------------------------------
class TestApiSatellites:
    def test_solve_result_stable_contract(self, small_graph, variant):
        result = repro.solve(small_graph, variant=variant, k=3)
        assert result.selected == list(result.retained)
        result.selected.append("mutated")  # a copy, not the field
        assert result.selected == list(result.retained)
        assert result.context_digest is not None
        assert result.telemetry is not None
        assert result.coverage.shape == (small_graph.n_items,)
        assert "context_digest" in result.to_dict()

    def test_context_digest_identifies_the_question(self):
        graph = random_preference_graph(40, variant="normalized", seed=1)
        a = repro.solve(graph, variant="independent", k=3)
        b = repro.solve(graph, variant="independent", k=3)
        c = repro.solve(graph, variant="independent", k=4)
        d = repro.solve(graph, variant="normalized", k=3)
        assert a.context_digest == b.context_digest
        assert a.context_digest != c.context_digest
        assert a.context_digest != d.context_digest

    def test_plain_string_variants_accepted_everywhere(self, small_graph):
        for alias in ("independent", "ipc", "IPC_k"):
            assert repro.Variant.coerce(alias) is repro.Variant.INDEPENDENT
        for alias in ("normalized", "normalised", "npc"):
            assert repro.Variant.coerce(alias) is repro.Variant.NORMALIZED
        result = repro.solve(small_graph, variant="ipc", k=2)
        assert result.variant is repro.Variant.INDEPENDENT

    def test_variant_error_is_solver_and_value_error(self):
        with pytest.raises(VariantError):
            repro.Variant.coerce("bogus")
        assert issubclass(VariantError, SolverError)
        assert issubclass(VariantError, ValueError)
        assert issubclass(ServingError, SolverError)

    def test_facade_validates_by_default(self):
        graph = repro.PreferenceGraph.from_weights(
            {"A": 0.9, "B": 0.9}, edges=[("A", "B", 0.5)]
        )  # weights sum to 1.8: invalid
        with pytest.raises(repro.GraphValidationError):
            repro.solve(graph, variant="independent", k=1)

    def test_validation_is_memoized_per_graph_object(self, variant):
        graph = random_preference_graph(50, variant=variant, seed=2)
        assert not graph.is_validated(variant)
        graph.validate(variant)
        assert graph.is_validated(variant)

    def test_mutation_invalidates_memoized_validation(self, line_graph):
        line_graph.validate("independent")
        assert line_graph.is_validated("independent")
        line_graph.add_item("D", 0.0)
        assert not line_graph.is_validated("independent")

    def test_histogram_percentiles(self):
        metrics = MetricsRegistry()
        for value in range(1, 101):
            metrics.observe("latency", float(value))
        histogram = metrics.histogram("latency")
        assert histogram.p50 == 50.0
        assert histogram.p99 == 99.0
        assert histogram.percentile(100.0) == 100.0
        payload = metrics.to_dict()["histograms"]["latency"]
        assert payload["p50"] == 50.0
        assert payload["p99"] == 99.0
        assert metrics.histogram("empty").p50 is None

    def test_histogram_reservoir_is_bounded(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("wide")
        for value in range(10_000):
            histogram.observe(float(value))
        assert histogram.count == 10_000
        assert len(histogram._reservoir) == histogram.RESERVOIR_SIZE
        # The window tracks the most recent values.
        assert histogram.p50 > 9_000


# ----------------------------------------------------------------------
# Offline differential harness plumbing
# ----------------------------------------------------------------------
class TestServingDifferentialHarness:
    def test_smoke_sweep_is_clean(self):
        from repro.evaluation.fuzz import run_fuzz

        report = run_fuzz(preset="serving", rounds=6, max_items=60, seed=0)
        assert report.ok, report.summary()
        assert report.checks > 0
        assert "OK" in report.summary()

    def test_failures_are_reported(self):
        from repro.evaluation.fuzz import FuzzFailure, FuzzReport

        report = FuzzReport(rounds=1, seed=0, preset="serving")
        report.failures.append(
            FuzzFailure(
                round_no=0, invariant="c", detail="d", case=None,
            )
        )
        assert not report.ok
        assert "FAILURE" in report.summary()

    def test_bad_deltas_are_drawn_and_rejected(self):
        import random

        from repro.evaluation.fuzz import BAD_DELTAS, family_case, run_case

        rng = random.Random(0)
        cases = [family_case(rng, "serving", i, 24) for i in range(24)]
        assert {case.bad_delta for case in cases} == {None, *BAD_DELTAS}
        for case in cases:
            if case.bad_delta is not None:
                violations, _ = run_case(case)
                assert violations == [], violations


# ----------------------------------------------------------------------
# A delta that breaks the model's invariants is never served
# ----------------------------------------------------------------------
class TestInvalidDelta:
    @staticmethod
    def service_and_delta():
        service = AssortmentService(
            random_preference_graph(40, seed=6), variant="independent", k=4
        )
        good = service.ensure()
        item = good.graph.items[0]
        return service, good, GraphDelta(node_weights={item: 5.0}, sequence=1)

    @staticmethod
    def edge_delta(service, sequence):
        """An edge-only delta that keeps the graph valid."""
        source, target, weight = next(iter(service.graph.edges()))
        return GraphDelta(
            edge_updates=((source, target, weight * 0.9),), sequence=sequence
        )

    def test_service_rejects_the_delta_and_keeps_the_last_good_snapshot(self):
        service, good, delta = self.service_and_delta()
        graph = service.graph
        with pytest.raises(repro.GraphValidationError):
            service.apply_delta(delta)
        assert service.graph is graph
        assert service.stats()["sequence"] == 0
        assert service.metrics.counter("serving.deltas_rejected").value == 1
        assert service.refresh_failures == 0
        assert service.active is good
        item = good.graph.items[0]
        assert service.covered_probability(item) == \
            good.covered_probability(item)

    def test_edge_delta_after_a_rejected_one_refreshes(self):
        service, good, delta = self.service_and_delta()
        with pytest.raises(repro.GraphValidationError):
            service.apply_delta(delta)
        refreshed = service.apply_delta(self.edge_delta(service, 2))
        assert refreshed is service.active and refreshed is not good
        assert refreshed.sequence == 2
        assert service.refresh_failures == 0
        assert service.metrics.counter("serving.deltas_rejected").value == 1

    def test_runtime_rejects_the_delta_and_stays_fresh(self):
        service, good, delta = self.service_and_delta()
        runtime = ServingRuntime(
            service,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        )
        with pytest.raises(repro.GraphValidationError):
            runtime.apply_delta(delta)
        assert runtime.tier.name == "FRESH"
        assert runtime.ensure() is good
        assert service.refresh_failures == 0

    def test_runtime_default_policy_refreshes_the_next_delta_first_try(self):
        service, good, delta = self.service_and_delta()
        runtime = ServingRuntime(service)
        with pytest.raises(repro.GraphValidationError):
            runtime.apply_delta(delta)
        refreshed = runtime.apply_delta(self.edge_delta(service, 2))
        assert refreshed.sequence == 2
        assert runtime.tier.name == "FRESH"
        assert service.refresh_failures == 0
        assert runtime.metrics.counter("serving.retries").value == 0
