"""Tests for the drifting-market simulator."""

import numpy as np
import pytest

from repro.clickstream.drift import DriftConfig, DriftingMarket
from repro.clickstream.generator import ShopperConfig
from repro.errors import ClickstreamFormatError


@pytest.fixture
def market() -> DriftingMarket:
    return DriftingMarket(
        ShopperConfig(n_items=50, behavior="independent"),
        DriftConfig(popularity_sigma=0.2, acceptance_churn=0.1),
        seed=5,
    )


class TestDriftConfig:
    def test_validation(self):
        with pytest.raises(ClickstreamFormatError):
            DriftConfig(popularity_sigma=-0.1)
        with pytest.raises(ClickstreamFormatError):
            DriftConfig(acceptance_churn=1.5)


class TestAdvance:
    def test_popularity_stays_distribution(self, market):
        for _ in range(5):
            market.advance()
            assert market.model.popularity.sum() == pytest.approx(1.0)
            assert np.all(market.model.popularity > 0)

    def test_popularity_actually_moves(self, market):
        before = market.model.popularity.copy()
        market.advance()
        assert not np.allclose(before, market.model.popularity)

    def test_acceptance_churn(self):
        market = DriftingMarket(
            ShopperConfig(n_items=100),
            DriftConfig(popularity_sigma=0.0, acceptance_churn=0.5),
            seed=1,
        )
        before = [a.copy() for a in market.model.acceptance]
        market.advance()
        changed = sum(
            1
            for old, new in zip(before, market.model.acceptance)
            if old.size and not np.allclose(old, new)
        )
        assert changed > 10  # roughly half the non-empty items

    def test_zero_drift_is_static(self):
        market = DriftingMarket(
            ShopperConfig(n_items=30),
            DriftConfig(popularity_sigma=0.0, acceptance_churn=0.0),
            seed=2,
        )
        before = market.model.popularity.copy()
        market.advance()
        np.testing.assert_array_equal(before, market.model.popularity)

    def test_period_counter(self, market):
        assert market.period == 0
        market.advance()
        market.advance()
        assert market.period == 2

    def test_structure_is_stable(self, market):
        # Drift never changes which alternatives exist, only weights.
        before = [a.copy() for a in market.model.alternatives]
        for _ in range(3):
            market.advance()
        for old, new in zip(before, market.model.alternatives):
            np.testing.assert_array_equal(old, new)


class TestGeneration:
    def test_session_ids_carry_period(self, market):
        first = market.generate(5)
        market.advance()
        second = market.generate(5)
        assert first[0].session_id.startswith("p0-")
        assert second[0].session_id.startswith("p1-")

    def test_true_graph_valid_every_period(self, market):
        for _ in range(4):
            market.true_graph().validate("independent")
            market.advance()

    def test_run_iterator(self, market):
        periods = list(market.run(3, sessions_per_period=10))
        assert [p for p, _s, _g in periods] == [0, 1, 2]
        assert market.period == 3
        for _p, stream, graph in periods:
            assert stream.n_sessions == 10
            graph.validate("independent")

    def test_deterministic_given_seed(self):
        def collect(seed):
            market = DriftingMarket(
                ShopperConfig(n_items=40), seed=seed
            )
            rows = []
            for _p, stream, _g in market.run(2, 20):
                rows.extend(s.purchase for s in stream)
            return rows

        assert collect(9) == collect(9)
        assert collect(9) != collect(10)


class TestIncrementalAcrossDrift:
    def test_incremental_solver_tracks_market(self):
        """End-to-end: each period's delta refresh is a cold solve."""
        import repro
        from repro.adaptation import build_preference_graph
        from repro.clickstream.drift import graph_delta
        from repro.core.cover import item_coverage
        from repro.serving import AssortmentService

        market = DriftingMarket(
            ShopperConfig(n_items=60),
            DriftConfig(popularity_sigma=0.1, acceptance_churn=0.0),
            seed=11,
        )
        service = previous = None
        for period, stream, _truth in market.run(3, 8_000):
            graph = build_preference_graph(stream, "independent")
            if service is None:
                service = AssortmentService(
                    graph, variant="independent", k=10
                )
                snapshot = service.ensure()
            else:
                snapshot = service.apply_delta(
                    graph_delta(previous, graph, sequence=period)
                )
                assert snapshot.sequence == period
            previous = graph
            cold = repro.solve(snapshot.graph, variant="independent", k=10)
            assert snapshot.retained == cold.retained
            assert snapshot.cover == cold.cover
            assert np.array_equal(
                snapshot.conditional,
                item_coverage(snapshot.graph, cold.retained, "independent"),
            )
            fresh = repro.solve(graph, variant="independent", k=10)
            assert set(snapshot.retained) == set(fresh.retained)
            assert snapshot.cover == pytest.approx(fresh.cover, abs=1e-12)
