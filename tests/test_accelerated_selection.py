"""The accelerated greedy's lazy block-max selection equals ``np.argmax``.

The solver tests wrap :meth:`AcceleratedGains.argmax` so that each
round's pick is checked against a plain ``np.argmax`` over the same gain
values; the patch arithmetic is unchanged, so equal picks at every round
mean the whole run equals the full-scan greedy.  The selector tests
drive :class:`AcceleratedGains` directly.
"""

import threading

import numpy as np
import pytest

from repro.core.csr import CSRGraph
from repro.core.greedy import AcceleratedGains, greedy_solve
from repro.core.threshold import greedy_threshold_solve
from repro.workloads.graphs import random_preference_graph


@pytest.fixture
def checked_rounds(monkeypatch):
    """Wrap the selector; return the list of rounds it checked."""
    rounds = []
    selector = AcceleratedGains.argmax

    def checked(self):
        got = selector(self)
        assert got == int(np.argmax(self.values))
        rounds.append(got)
        return got

    monkeypatch.setattr(AcceleratedGains, "argmax", checked)
    return rounds


def _argmax_within(gains, seconds=10.0):
    """Run ``gains.argmax()`` in a thread; fail instead of hanging."""
    out = []
    worker = threading.Thread(target=lambda: out.append(gains.argmax()),
                              daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "selector did not terminate"
    return out[0]


def _uniform_graph(n):
    """n items of equal weight and no edges: every gain ties."""
    empty = np.empty(0, dtype=np.int64)
    return CSRGraph.from_arrays(
        np.full(n, 1.0 / n), empty, empty, np.empty(0)
    )


class TestSolversAgreeEveryRound:
    @pytest.mark.parametrize("n", [1, 2, 10, 17, 50])
    def test_ties_spanning_blocks_pick_lowest_index(self, checked_rounds, n):
        # For 10, 17 and 50, isqrt(n) does not divide n: the last block is short.
        result = greedy_solve(_uniform_graph(n), k=n, variant="independent")
        assert result.retained_indices.tolist() == list(range(n))
        assert checked_rounds == list(range(n))

    @pytest.mark.parametrize("n", [37, 500])
    def test_greedy(self, checked_rounds, variant, n):
        graph = random_preference_graph(n, variant=variant, seed=n)
        result = greedy_solve(graph, k=n // 2, variant=variant)
        assert len(checked_rounds) == n // 2
        assert checked_rounds == result.retained_indices.tolist()

    def test_must_retain_and_exclude(self, checked_rounds, variant):
        graph = random_preference_graph(300, variant=variant, seed=3)
        result = greedy_solve(
            graph, k=60, variant=variant,
            must_retain=[5, 17, 250], exclude=[0, 1, 2, 99],
        )
        assert result.retained_indices[:3].tolist() == [5, 17, 250]
        assert not {0, 1, 2, 99} & set(result.retained_indices.tolist())
        assert checked_rounds == result.retained_indices[3:].tolist()

    def test_threshold_solver(self, checked_rounds, variant):
        graph = random_preference_graph(400, variant=variant, seed=11)
        result = greedy_threshold_solve(graph, threshold=0.6, variant=variant)
        assert checked_rounds == result.retained_indices.tolist()

    def test_edge_weight_above_one_within_tolerance(self, checked_rounds):
        # Weights of 1 + 5e-7 pass validation but drive deficits below
        # zero, so a patch raises gains; without a rescan the last two
        # picks come out as 7, 5 instead of np.argmax's 5, 7.
        weights = np.array([2, 3, 1, 2, 3, 3, 2, 2, 1], dtype=float)
        heavy = 1.0 + 5e-7
        edges = [
            (0, 4, 0.25), (1, 0, heavy), (1, 8, 0.25), (2, 3, 0.5),
            (3, 8, 0.25), (3, 5, heavy), (5, 1, heavy), (5, 8, 0.5),
            (7, 6, heavy), (8, 2, 0.25), (8, 1, 0.5),
        ]
        src, dst, wgt = (np.array(column) for column in zip(*edges))
        graph = CSRGraph.from_arrays(weights / weights.sum(), src, dst, wgt)
        graph.validate("independent")
        result = greedy_solve(graph, k=9, variant="independent")
        assert result.retained_indices.tolist() == [1, 6, 4, 3, 0, 2, 8, 5, 7]


class TestSelector:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 26, 101])
    def test_random_lowering_matches_argmax(self, n):
        rng = np.random.default_rng(n)
        values = rng.integers(0, 4, n).astype(float)  # many ties
        gains = AcceleratedGains(values)
        for _ in range(3 * n):
            picked = gains.argmax()
            assert picked == int(np.argmax(values))
            values[picked] = -np.inf
            lowered = rng.choice(n, size=min(n, 3), replace=False)
            values[lowered] -= rng.integers(0, 2, lowered.size)

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_all_minus_infinity(self, n):
        gains = AcceleratedGains(np.full(n, -np.inf))
        assert _argmax_within(gains) == int(np.argmax(gains.values)) == 0

    @pytest.mark.parametrize("positions", [[0], [5], [3, 12], [15]])
    def test_nan_is_the_maximum(self, positions):
        values = np.linspace(0.0, 1.0, 16)
        values[positions] = np.nan
        gains = AcceleratedGains(values)
        for position in positions:
            assert _argmax_within(gains) == int(np.argmax(values)) == position
            values[position] = -np.inf
        assert _argmax_within(gains) == int(np.argmax(values))

    def test_empty_raises_like_argmax(self):
        with pytest.raises(ValueError):
            np.argmax(np.empty(0))
        with pytest.raises(ValueError):
            AcceleratedGains(np.empty(0)).argmax()
