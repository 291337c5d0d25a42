"""Tests for must_retain / exclude constraints on the greedy solver."""

import pytest

from repro.core.cover import cover
from repro.core.greedy import greedy_solve
from repro.errors import SolverError

STRATEGIES = ("naive", "accelerated")


class TestMustRetain:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_seeds_occupy_prefix(self, medium_graph, variant, strategy):
        result = greedy_solve(
            medium_graph, 20, variant, strategy=strategy,
            must_retain=[42, 7],
        )
        assert result.retained[:2] == [42, 7]
        assert len(result.retained) == 20

    def test_cover_consistent(self, medium_graph, variant):
        result = greedy_solve(
            medium_graph, 15, variant, must_retain=[3, 99, 200]
        )
        assert result.cover == pytest.approx(
            cover(medium_graph, result.retained, variant), abs=1e-9
        )

    def test_unconstrained_when_seeds_already_chosen(
        self, medium_graph, variant
    ):
        free = greedy_solve(medium_graph, 10, variant)
        seeded = greedy_solve(
            medium_graph, 10, variant, must_retain=free.retained[:3]
        )
        assert seeded.retained == free.retained

    def test_seed_cost_vs_free_greedy(self, medium_graph, variant):
        # Forcing arbitrary seeds can only cost coverage vs free greedy
        # at equal k... not a theorem in general, but monotonicity
        # guarantees the seeded run is at least the seeds' own cover.
        seeded = greedy_solve(medium_graph, 10, variant, must_retain=[480])
        assert seeded.cover >= cover(medium_graph, [480], variant) - 1e-12

    def test_too_many_seeds(self, figure1):
        with pytest.raises(SolverError, match="must_retain"):
            greedy_solve(figure1, 1, "normalized", must_retain=["A", "B"])

    def test_seeds_equal_k(self, figure1, variant):
        result = greedy_solve(
            figure1, 2, variant, must_retain=["A", "E"]
        )
        assert sorted(result.retained) == ["A", "E"]

    def test_prefix_covers_include_seeds(self, figure1, variant):
        result = greedy_solve(figure1, 3, variant, must_retain=["D"])
        assert result.prefix_covers[1] == pytest.approx(
            cover(figure1, ["D"], variant)
        )


class TestExclude:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_excluded_never_retained(self, medium_graph, variant, strategy):
        banned = list(range(0, 100))
        result = greedy_solve(
            medium_graph, 30, variant, strategy=strategy, exclude=banned
        )
        assert not set(result.retained_indices.tolist()) & set(banned)

    def test_strategies_agree_under_exclusion(self, medium_graph, variant):
        banned = list(range(50, 150))
        results = [
            greedy_solve(
                medium_graph, 25, variant, strategy=s, exclude=banned
            )
            for s in STRATEGIES
        ]
        assert results[0].retained == results[1].retained

    def test_figure1_excluding_best_pick(self, figure1, variant):
        # With B banned, the greedy must find the next-best pair.
        result = greedy_solve(figure1, 2, variant, exclude=["B"])
        assert "B" not in result.retained
        assert result.cover < 0.873
        # C substitutes for B's role (covers itself and B's demand).
        assert "C" in result.retained

    def test_excluded_items_still_coverable(self, figure1, variant):
        result = greedy_solve(figure1, 2, variant, exclude=["C"])
        csr_index = result.item_ids.index("C")
        # B is retained and covers C completely even though C is banned.
        assert "B" in result.retained
        assert result.coverage[csr_index] == pytest.approx(0.22)

    def test_k_exceeding_free_items(self, figure1):
        with pytest.raises(SolverError, match="non-excluded"):
            greedy_solve(figure1, 4, "normalized",
                         exclude=["A", "B", "C"])

    def test_overlap_with_seeds_rejected(self, figure1):
        with pytest.raises(SolverError, match="overlap"):
            greedy_solve(
                figure1, 2, "normalized",
                must_retain=["A"], exclude=["A"],
            )


class TestCombined:
    def test_seeds_and_exclusions_together(self, medium_graph, variant):
        result = greedy_solve(
            medium_graph, 20, variant,
            must_retain=[400, 401], exclude=list(range(100)),
        )
        indices = result.retained_indices.tolist()
        assert indices[:2] == [400, 401]
        assert not set(indices) & set(range(100))
        assert result.cover == pytest.approx(
            cover(medium_graph, result.retained, variant), abs=1e-9
        )
