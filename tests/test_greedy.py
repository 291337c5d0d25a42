"""Tests for the greedy solver (Algorithm 1) and its two strategies."""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_solve
from repro.core.cover import cover
from repro.core.csr import as_csr
from repro.core.greedy import STRATEGIES, greedy_order, greedy_solve
from repro.errors import SolverError
from repro.reductions.bounds import greedy_ratio_bound
from repro.workloads.graphs import small_dense_graph

REAL_STRATEGIES = [s for s in STRATEGIES if s != "auto"]


class TestBasics:
    def test_figure1_selection_order(self, figure1, variant):
        result = greedy_solve(figure1, 2, variant)
        # Example 3.2: B first (gain 0.66), then D (gain 0.213).
        assert result.retained == ["B", "D"]
        assert result.cover == pytest.approx(0.873)
        assert result.prefix_covers[1] == pytest.approx(0.66)

    def test_k_zero(self, figure1, variant):
        result = greedy_solve(figure1, 0, variant)
        assert result.retained == []
        assert result.cover == 0.0

    def test_k_equals_n_covers_all(self, figure1, variant):
        result = greedy_solve(figure1, 5, variant)
        assert result.cover == pytest.approx(1.0)
        assert sorted(result.retained) == ["A", "B", "C", "D", "E"]

    @pytest.mark.parametrize("bad_k", [-1, 6])
    def test_k_out_of_range(self, figure1, bad_k):
        with pytest.raises(SolverError, match="out of range"):
            greedy_solve(figure1, bad_k, "independent")

    def test_k_must_be_integer(self, figure1):
        with pytest.raises(SolverError, match="integer"):
            greedy_solve(figure1, 2.5, "independent")

    def test_bool_k_rejected(self, figure1):
        # bool is an int subclass: True would otherwise solve as k=1.
        with pytest.raises(SolverError, match="integer"):
            greedy_solve(figure1, k=True, variant="independent")

    def test_unknown_strategy(self, figure1):
        with pytest.raises(SolverError, match="unknown strategy"):
            greedy_solve(figure1, 2, "independent", strategy="magic")
        # The CELF strategy was removed; its name is unknown now.
        with pytest.raises(SolverError, match="unknown strategy"):
            greedy_solve(figure1, k=2, variant="independent", strategy="lazy")

    def test_numpy_integer_k_accepted(self, figure1):
        result = greedy_solve(figure1, np.int64(2), "independent")
        assert len(result.retained) == 2


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_cover_equals_exact_recomputation(
        self, medium_graph, variant, strategy
    ):
        result = greedy_solve(medium_graph, 40, variant, strategy=strategy)
        exact = cover(medium_graph, result.retained, variant)
        assert result.cover == pytest.approx(exact, abs=1e-9)

    def test_same_solution_across_strategies(self, medium_graph, variant):
        results = {
            s: greedy_solve(medium_graph, 30, variant, strategy=s)
            for s in REAL_STRATEGIES
        }
        covers = {s: r.cover for s, r in results.items()}
        baseline = covers["naive"]
        for s, c in covers.items():
            assert c == pytest.approx(baseline, abs=1e-9), s
        # Continuous random weights: ties have measure zero, so the
        # actual selections agree too.
        sets = {s: r.retained for s, r in results.items()}
        assert sets["accelerated"] == sets["naive"]

    def test_auto_is_accelerated(self, figure1):
        result = greedy_solve(figure1, 2, "independent", strategy="auto")
        assert result.strategy == "greedy-accelerated"


class TestPrefixProperty:
    """Section 3.2: an ordered size-k solution solves every k' < k."""

    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_prefix_matches_smaller_k(self, small_graph, variant, strategy):
        big = greedy_solve(small_graph, 10, variant, strategy=strategy)
        for k_prime in (1, 3, 7):
            small = greedy_solve(
                small_graph, k_prime, variant, strategy=strategy
            )
            assert big.retained[:k_prime] == small.retained
            assert big.prefix_covers[k_prime] == pytest.approx(
                small.cover, abs=1e-9
            )

    def test_prefix_covers_monotone(self, medium_graph, variant):
        result = greedy_solve(medium_graph, 50, variant)
        diffs = np.diff(result.prefix_covers)
        assert np.all(diffs >= -1e-12)

    def test_greedy_order_covers_everything(self, small_graph, variant):
        result = greedy_order(small_graph, variant)
        assert result.k == as_csr(small_graph).n_items
        assert result.cover == pytest.approx(1.0)


class TestApproximationGuarantee:
    """Greedy cover >= worst-case bound * OPT on brute-forceable instances."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_independent_bound(self, seed, k):
        graph = small_dense_graph(10, variant="independent", seed=seed)
        optimal = brute_force_solve(graph, k, "independent").cover
        achieved = greedy_solve(graph, k, "independent").cover
        assert achieved >= (1 - 1 / np.e) * optimal - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_normalized_bound(self, seed, k):
        graph = small_dense_graph(10, variant="normalized", seed=seed)
        optimal = brute_force_solve(graph, k, "normalized").cover
        achieved = greedy_solve(graph, k, "normalized").cover
        bound = greedy_ratio_bound(k, 10)
        assert achieved >= bound * optimal - 1e-9


class TestCallback:
    def test_callback_sees_every_iteration(self, small_graph, variant):
        seen = []

        def record(iteration, node, gain, running_cover):
            seen.append((iteration, node, gain, running_cover))

        result = greedy_solve(
            small_graph, 5, variant, strategy="naive", callback=record
        )
        assert [i for i, *_ in seen] == list(range(5))
        assert [n for _, n, *_ in seen] == list(result.retained_indices)
        # Gains reported must sum to the final cover.
        assert sum(g for *_, g, _ in seen) == pytest.approx(
            result.cover, abs=1e-9
        )
