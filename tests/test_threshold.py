"""Tests for the complementary minimization solver (Figure 4f machinery)."""

import numpy as np
import pytest

from repro.core.csr import as_csr
from repro.core.greedy import greedy_order, greedy_solve
from repro.core.threshold import greedy_threshold_solve
from repro.errors import SolverError
from repro.observability import SolverTrace

class TestThresholdSolve:
    @pytest.mark.parametrize("threshold", [0.25, 0.5, 0.75, 0.9])
    def test_reaches_threshold(self, medium_graph, variant, threshold):
        result = greedy_threshold_solve(medium_graph, threshold, variant)
        assert result.cover >= threshold - 1e-9

    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.85])
    def test_is_shortest_greedy_prefix(self, medium_graph, variant, threshold):
        result = greedy_threshold_solve(medium_graph, threshold, variant)
        full = greedy_order(medium_graph, variant)
        # Same items, same order as the full greedy ordering...
        assert result.retained == full.retained[: result.k]
        # ...and one fewer item would not reach the threshold.
        if result.k > 0:
            assert full.prefix_covers[result.k - 1] < threshold

    def test_zero_threshold_empty(self, medium_graph, variant):
        result = greedy_threshold_solve(medium_graph, 0.0, variant)
        assert result.k == 0
        assert result.retained == []

    def test_threshold_one_takes_whole_support(self, figure1, variant):
        result = greedy_threshold_solve(figure1, 1.0, variant)
        assert result.cover == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, True])
    def test_invalid_threshold(self, figure1, bad):
        with pytest.raises(SolverError, match="threshold"):
            greedy_threshold_solve(figure1, bad, "independent")

    def test_figure1_threshold(self, figure1, variant):
        # 0.8 needs {B, D} (0.873); 0.66 is already reached by B alone.
        result = greedy_threshold_solve(figure1, 0.8, variant)
        assert result.retained == ["B", "D"]
        only_b = greedy_threshold_solve(figure1, 0.66, variant)
        assert only_b.retained == ["B"]

    def test_prefix_covers_recorded(self, medium_graph, variant):
        result = greedy_threshold_solve(medium_graph, 0.7, variant)
        assert len(result.prefix_covers) == result.k + 1
        assert result.prefix_covers[-1] == pytest.approx(result.cover)
        assert np.all(np.diff(result.prefix_covers) >= -1e-12)

    def test_avoids_binary_search_consistency(self, medium_graph, variant):
        # The direct threshold solver must agree with the naive
        # binary-search-over-k approach built on greedy_solve.
        threshold = 0.65
        direct = greedy_threshold_solve(medium_graph, threshold, variant)
        lo, hi = 0, 500
        while lo < hi:
            mid = (lo + hi) // 2
            if greedy_solve(medium_graph, mid, variant).cover >= threshold - 1e-12:
                hi = mid
            else:
                lo = mid + 1
        assert direct.k == lo


class TestEvaluationAccounting:
    """gain_evaluations reflects the work actually performed."""

    def test_serial_counts_one_upfront_sweep(self, medium_graph, variant):
        n = as_csr(medium_graph).n_items
        result = greedy_threshold_solve(medium_graph, 0.6, variant)
        # The accelerated rule pays a single n-candidate sweep up front
        # and patches incrementally afterwards.
        assert result.gain_evaluations == n

    def test_serial_zero_threshold_still_pays_the_sweep(
        self, medium_graph, variant
    ):
        n = as_csr(medium_graph).n_items
        result = greedy_threshold_solve(medium_graph, 0.0, variant)
        assert result.k == 0
        assert result.gain_evaluations == n

    def test_tracer_counter_matches_result(self, medium_graph, variant):
        tracer = SolverTrace()
        result = greedy_threshold_solve(
            medium_graph, 0.55, variant, tracer=tracer
        )
        counted = tracer.metrics.counter("solver.gain_evaluations").value
        assert counted == result.gain_evaluations
