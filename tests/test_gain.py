"""Tests for GreedyState: the Gain / AddNode procedures (Algorithms 2-5)."""

import numpy as np
import pytest

from repro.core.cover import cover, coverage_vector
from repro.core.csr import as_csr
from repro.core.gain import GreedyState
from repro.errors import SolverError


class TestGainMatchesCoverDelta:
    """gain(v) must equal C(S + v) - C(S) computed from scratch."""

    def test_on_dense_graph(self, small_graph, variant):
        csr = as_csr(small_graph)
        state = GreedyState(csr, variant)
        rng = np.random.default_rng(0)
        retained = []
        for _ in range(6):
            candidates = [v for v in range(csr.n_items) if v not in retained]
            v = int(rng.choice(candidates))
            before = cover(csr, retained, variant)
            after = cover(csr, retained + [v], variant)
            assert state.gain(v) == pytest.approx(after - before, abs=1e-12)
            state.add_node(v)
            retained.append(v)

    def test_gain_of_retained_is_zero(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        state.add_node(0)
        assert state.gain(0) == 0.0


class TestAddNode:
    def test_cover_tracks_exact(self, small_graph, variant):
        csr = as_csr(small_graph)
        state = GreedyState(csr, variant)
        for v in range(8):
            state.add_node(v)
            exact = cover(csr, list(range(v + 1)), variant)
            assert state.cover == pytest.approx(exact, abs=1e-12)

    def test_coverage_array_tracks_exact(self, small_graph, variant):
        csr = as_csr(small_graph)
        state = GreedyState(csr, variant)
        retained = [2, 7, 11]
        for v in retained:
            state.add_node(v)
        expected = coverage_vector(csr, retained, variant)
        np.testing.assert_allclose(state.coverage, expected, atol=1e-12)

    def test_deficit_invariant(self, small_graph, variant):
        csr = as_csr(small_graph)
        state = GreedyState(csr, variant)
        for v in (1, 4, 9):
            state.add_node(v)
        np.testing.assert_allclose(
            state.deficit, csr.node_weight - state.coverage, atol=1e-12
        )

    def test_add_returns_realized_gain(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        predicted = state.gain(5)
        realized = state.add_node(5)
        assert realized == pytest.approx(predicted, abs=1e-12)

    def test_double_add_rejected(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        state.add_node(3)
        with pytest.raises(SolverError, match="already retained"):
            state.add_node(3)

    def test_order_recorded(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        for v in (5, 1, 8):
            state.add_node(v)
        assert list(state.retained_indices()) == [5, 1, 8]


class TestGainsAll:
    def test_matches_scalar_gain(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant)
        for v in (0, 17, 333):
            state.add_node(v)
        gains = state.gains_all()
        for v in (1, 2, 100, 250, 499):
            assert gains[v] == pytest.approx(state.gain(v), abs=1e-9)

    def test_retained_entries_zero(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        state.add_node(2)
        gains = state.gains_all()
        assert gains[2] == 0.0

    def test_candidates_subset(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        subset = np.array([0, 5, 9])
        np.testing.assert_allclose(
            state.gains_all(subset), state.gains_all()[subset]
        )

    def test_graph_without_edges(self, variant):
        from repro.core.csr import CSRGraph

        csr = CSRGraph.from_arrays(
            np.array([0.6, 0.4]),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        state = GreedyState(csr, variant)
        np.testing.assert_allclose(state.gains_all(), [0.6, 0.4])

    def test_trailing_isolated_nodes(self, variant):
        # Nodes after the last edge destination exercise the reduceat
        # clamping path.
        from repro.core.csr import CSRGraph

        csr = CSRGraph.from_arrays(
            np.array([0.25, 0.25, 0.25, 0.25]),
            np.array([1]),
            np.array([0]),
            np.array([0.5]),
        )
        state = GreedyState(csr, variant)
        gains = state.gains_all()
        assert gains[0] == pytest.approx(0.25 + 0.25 * 0.5)
        assert gains[2] == pytest.approx(0.25)
        assert gains[3] == pytest.approx(0.25)


class TestGainsRange:
    """Gains of a contiguous candidate block ``[lo, hi)`` via
    ``gains_all(candidates)`` equal the full sweep's slice."""

    @staticmethod
    def _block(state, lo, hi):
        return state.gains_all(np.arange(lo, hi))

    def test_matches_full(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        state = GreedyState(csr, variant)
        for v in (3, 77):
            state.add_node(v)
        full = state.gains_all()
        for lo, hi in [(0, 100), (100, 350), (350, 500), (499, 500)]:
            np.testing.assert_allclose(
                self._block(state, lo, hi), full[lo:hi], atol=1e-12
            )

    def test_empty_range(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        assert self._block(state, 5, 5).size == 0

    def test_empty_range_after_partial_solve(self, small_graph, variant):
        state = GreedyState(as_csr(small_graph), variant)
        for v in (0, 3):
            state.add_node(v)
        for lo in (0, 7, state.csr.n_items):
            block = self._block(state, lo, lo)
            assert block.shape == (0,)

    def test_isolated_nodes_block(self, variant):
        # Nodes 2..4 have no in-edges: their gain is exactly their own
        # deficit, and the evaluation must not read neighboring edge
        # slices.
        from repro.core.csr import CSRGraph

        csr = CSRGraph.from_arrays(
            np.array([0.3, 0.3, 0.2, 0.1, 0.1]),
            np.array([1]),
            np.array([0]),
            np.array([0.5]),
        )
        state = GreedyState(csr, variant)
        np.testing.assert_allclose(self._block(state, 2, 5), [0.2, 0.1, 0.1])
        state.add_node(3)
        np.testing.assert_allclose(self._block(state, 2, 5), [0.2, 0.0, 0.1])

    def test_matches_full_after_partial_solve(self, medium_graph, variant):
        from repro.core.greedy import greedy_solve

        csr = as_csr(medium_graph)
        result = greedy_solve(csr, k=12, variant=variant, strategy="naive")
        state = GreedyState(csr, variant)
        for v in result.retained_indices.tolist():
            state.add_node(v)
        full = state.gains_all()
        n = csr.n_items
        for lo, hi in [(0, n), (0, 1), (n - 1, n), (123, 457)]:
            np.testing.assert_allclose(
                self._block(state, lo, hi), full[lo:hi], atol=1e-12
            )
