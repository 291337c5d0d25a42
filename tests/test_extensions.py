"""Tests for the future-work extensions: revenue, capacity, incremental
maintenance."""

import numpy as np
import pytest

from repro.clickstream.drift import GraphDelta
from repro.core.cover import cover
from repro.core.csr import as_csr
from repro.core.greedy import greedy_solve
from repro.errors import SolverError
from repro.extensions.capacity import budget_spent, capacity_greedy_solve
from repro.extensions.revenue import (
    expected_revenue,
    revenue_greedy_solve,
    revenue_scaled_graph,
)
from repro.serving import AssortmentService
from repro.workloads.graphs import random_preference_graph


class TestRevenue:
    def test_uniform_revenue_matches_plain_greedy(self, medium_graph, variant):
        n = as_csr(medium_graph).n_items
        uniform = np.ones(n)
        scaled = revenue_greedy_solve(medium_graph, 25, variant, uniform)
        plain = greedy_solve(medium_graph, 25, variant)
        assert scaled.retained == plain.retained
        assert scaled.cover == pytest.approx(plain.cover, abs=1e-9)

    def test_revenue_shifts_selection(self, variant):
        from repro.core.graph import PreferenceGraph

        g = PreferenceGraph.from_weights(
            {"popular": 0.9, "niche": 0.1}
        )
        plain = greedy_solve(g, 1, variant)
        assert plain.retained == ["popular"]
        rich = revenue_greedy_solve(
            g, 1, variant, {"popular": 1.0, "niche": 100.0}
        )
        assert rich.retained == ["niche"]

    def test_expected_revenue_consistent(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        revenues = np.random.default_rng(0).uniform(1, 10, csr.n_items)
        result = revenue_greedy_solve(medium_graph, 20, variant, revenues)
        direct = expected_revenue(
            medium_graph, result.retained, variant, revenues
        )
        assert result.cover == pytest.approx(direct, abs=1e-9)

    def test_revenue_mapping_by_item_id(self, figure1):
        revenues = {item: 1.0 for item in figure1.items()}
        result = revenue_greedy_solve(figure1, 2, "normalized", revenues)
        assert result.retained == ["B", "D"]

    def test_missing_revenue_rejected(self, figure1):
        with pytest.raises(SolverError, match="no revenue"):
            revenue_greedy_solve(figure1, 1, "normalized", {"A": 1.0})

    def test_negative_revenue_rejected(self, figure1):
        revenues = {item: -1.0 for item in figure1.items()}
        with pytest.raises(SolverError, match="nonnegative"):
            revenue_greedy_solve(figure1, 1, "normalized", revenues)

    def test_wrong_shape_rejected(self, figure1):
        with pytest.raises(SolverError, match="shape"):
            revenue_greedy_solve(figure1, 1, "normalized", np.ones(3))

    def test_scaled_graph_preserves_edges(self, figure1):
        scaled = revenue_scaled_graph(figure1, {i: 2.0 for i in figure1})
        csr = as_csr(figure1)
        assert scaled.n_edges == csr.n_edges
        np.testing.assert_allclose(scaled.node_weight, csr.node_weight * 2)


class TestCapacity:
    def test_respects_budget(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        costs = np.random.default_rng(1).uniform(0.5, 2.0, csr.n_items)
        result = capacity_greedy_solve(medium_graph, 20.0, variant, costs)
        assert budget_spent(medium_graph, result.retained, costs) <= 20.0 + 1e-9

    def test_unit_costs_reduce_to_cardinality(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        result = capacity_greedy_solve(
            medium_graph, 15.0, variant, np.ones(csr.n_items)
        )
        plain = greedy_solve(medium_graph, 15, variant)
        assert result.cover == pytest.approx(plain.cover, abs=1e-9)
        assert result.k == 15

    def test_cover_exact(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        costs = np.random.default_rng(2).uniform(0.5, 2.0, csr.n_items)
        result = capacity_greedy_solve(medium_graph, 12.0, variant, costs)
        assert result.cover == pytest.approx(
            cover(medium_graph, result.retained, variant), abs=1e-9
        )

    def test_cheap_valuable_items_preferred(self, variant):
        from repro.core.graph import PreferenceGraph

        g = PreferenceGraph.from_weights(
            {"expensive": 0.5, "cheap1": 0.25, "cheap2": 0.25}
        )
        costs = {"expensive": 10.0, "cheap1": 1.0, "cheap2": 1.0}
        result = capacity_greedy_solve(g, 2.0, variant, costs)
        assert set(result.retained) == {"cheap1", "cheap2"}
        assert result.cover == pytest.approx(0.5)

    def test_zero_budget(self, figure1, variant):
        costs = {item: 1.0 for item in figure1.items()}
        result = capacity_greedy_solve(figure1, 0.0, variant, costs)
        assert result.retained == []
        assert result.cover == 0.0

    def test_nonpositive_cost_rejected(self, figure1):
        costs = {item: 0.0 for item in figure1.items()}
        with pytest.raises(SolverError, match="positive"):
            capacity_greedy_solve(figure1, 1.0, "normalized", costs)

    def test_negative_budget_rejected(self, figure1):
        costs = {item: 1.0 for item in figure1.items()}
        with pytest.raises(SolverError, match="budget"):
            capacity_greedy_solve(figure1, -1.0, "normalized", costs)


class TestIncremental:
    """§7 incremental maintenance: a service refreshed by graph deltas.

    Every refresh is a cold greedy solve of the updated graph, so the
    served selection must equal a fresh ``greedy_solve`` of it.
    """

    def make_service(self, variant, k=20, n=150):
        graph = random_preference_graph(n, variant=variant, seed=8)
        service = AssortmentService(graph, variant=variant, k=k)
        return service, service.ensure()

    @staticmethod
    def assert_fresh(service, snapshot):
        fresh = greedy_solve(service.graph, k=service.k,
                             variant=service.variant)
        assert snapshot.retained == fresh.retained
        assert snapshot.cover == fresh.cover

    @staticmethod
    def shift(service, source, target, fraction):
        """A delta moving ``fraction`` of ``source``'s weight to ``target``."""
        graph = service.graph
        mass = graph.node_weight(source) * fraction
        return GraphDelta(node_weights={
            source: graph.node_weight(source) - mass,
            target: graph.node_weight(target) + mass,
        }, sequence=service.stats()["sequence"] + 1)

    def test_initial_solve_matches_plain_greedy(self, variant):
        service, first = self.make_service(variant)
        self.assert_fresh(service, first)

    def test_resolve_after_noop_reuses_everything(self, variant):
        service, first = self.make_service(variant)
        again = service.refresh()
        assert again.retained == first.retained
        self.assert_fresh(service, again)

    def test_resolve_after_update_matches_fresh_greedy(self, variant):
        service, first = self.make_service(variant)
        # Promote a non-retained item by shifting weight from the top
        # retained item (keeps total weight at 1).
        loser = [i for i in service.graph.items()
                 if i not in first.retained][0]
        second = service.apply_delta(
            self.shift(service, first.retained[0], loser, 0.8)
        )
        self.assert_fresh(service, second)
        # The very first pick changed.
        assert second.retained[0] != first.retained[0]

    def test_small_update_reuses_prefix(self, variant):
        service, first = self.make_service(variant)
        # Perturb the weight of the *last* retained item downward a bit;
        # earlier picks stay optimal, so the served order keeps them.
        other = [i for i in service.graph.items()
                 if i not in first.retained][0]
        second = service.apply_delta(
            self.shift(service, first.retained[-1], other, 0.01)
        )
        self.assert_fresh(service, second)
        assert second.retained[:service.k - 5] == \
            first.retained[:service.k - 5]

    def test_edge_update_consistency(self, variant):
        service, _ = self.make_service(variant, k=10, n=60)
        # Remove one existing edge and re-solve.
        source, target, _w = next(iter(service.graph.edges()))
        second = service.apply_delta(
            GraphDelta(edge_removals=((source, target),), sequence=1)
        )
        assert not service.graph.has_edge(source, target)
        self.assert_fresh(service, second)

    def test_add_item(self, variant):
        service, _ = self.make_service(variant, k=10, n=60)
        # Shift 10% of an existing item's mass onto a new item.
        donor = next(iter(service.graph.items()))
        mass = service.graph.node_weight(donor) * 0.1
        second = service.apply_delta(GraphDelta(node_weights={
            donor: service.graph.node_weight(donor) - mass,
            "brand-new": mass,
        }, sequence=1))
        assert "brand-new" in second.graph.items
        self.assert_fresh(service, second)
