"""Property-based tests (hypothesis) of the core invariants.

These generate random preference graphs and retained sets and check the
mathematical properties the paper's results rest on: the cover function's
set-function properties, the incremental bookkeeping identities, the
strategy equivalences, the prefix property, and the reduction
equivalences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cover import cover, coverage_vector
from repro.core.csr import CSRGraph
from repro.core.gain import GreedyState
from repro.core.greedy import greedy_solve
from repro.core.threshold import greedy_threshold_solve
from repro.core.variants import Variant
from repro.reductions.dominating_set import (
    DirectedGraphInstance,
    dominated_count,
    ds_to_ipc,
)
from repro.reductions.vertex_cover import npc_to_vc, vc_cover_weight

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def preference_graphs(draw, max_items=12, variant=None):
    """Random small preference graphs valid for the requested variant."""
    n = draw(st.integers(min_value=2, max_value=max_items))
    if variant is None:
        variant = draw(st.sampled_from(list(Variant)))
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n, max_size=n,
        )
    )
    weights = np.asarray(raw)
    weights = weights / weights.sum()

    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    n_edges = draw(st.integers(min_value=0, max_value=min(len(possible), 3 * n)))
    chosen = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=n_edges, max_size=n_edges, unique=True,
        )
    ) if possible and n_edges else []
    edge_w = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0.05, max_value=1.0),
                min_size=len(chosen), max_size=len(chosen),
            )
        )
    )
    if variant is Variant.NORMALIZED and len(chosen):
        # Scale per-source so out-sums stay below 1.
        sums = np.zeros(n)
        src = np.asarray([u for u, _v in chosen])
        np.add.at(sums, src, edge_w)
        scale = np.ones(n)
        heavy = sums > 0.98
        scale[heavy] = 0.98 / sums[heavy]
        edge_w = edge_w * scale[src]

    if chosen:
        csr = CSRGraph.from_arrays(
            weights,
            np.asarray([u for u, _v in chosen], dtype=np.int64),
            np.asarray([v for _u, v in chosen], dtype=np.int64),
            edge_w,
        )
    else:
        csr = CSRGraph.from_arrays(
            weights,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    csr.validate(variant)
    return csr, variant


@st.composite
def graph_and_sets(draw):
    """A graph plus two nested retained sets S ⊆ T and an extra node."""
    csr, variant = draw(preference_graphs())
    n = csr.n_items
    t_size = draw(st.integers(min_value=0, max_value=n))
    t = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=t_size, max_size=t_size, unique=True,
        )
    )
    s_size = draw(st.integers(min_value=0, max_value=len(t)))
    s = t[:s_size]
    v = draw(st.integers(min_value=0, max_value=n - 1))
    return csr, variant, s, t, v


class TestCoverProperties:
    @SETTINGS
    @given(graph_and_sets())
    def test_monotone(self, data):
        csr, variant, s, t, _v = data
        assert cover(csr, t, variant) >= cover(csr, s, variant) - 1e-12

    @SETTINGS
    @given(graph_and_sets())
    def test_submodular(self, data):
        csr, variant, s, t, v = data
        gain_s = cover(csr, list(s) + [v], variant) - cover(csr, s, variant)
        gain_t = cover(csr, list(t) + [v], variant) - cover(csr, t, variant)
        assert gain_s >= gain_t - 1e-12

    @SETTINGS
    @given(graph_and_sets())
    def test_bounds(self, data):
        csr, variant, s, _t, _v = data
        value = cover(csr, s, variant)
        retained_mass = float(csr.node_weight[list(set(s))].sum())
        assert retained_mass - 1e-12 <= value <= 1.0 + 1e-12

    @SETTINGS
    @given(graph_and_sets())
    def test_coverage_vector_consistency(self, data):
        csr, variant, s, _t, _v = data
        vec = coverage_vector(csr, s, variant)
        assert vec.sum() == pytest.approx(cover(csr, s, variant), abs=1e-12)
        assert np.all(vec >= -1e-15)
        assert np.all(vec <= csr.node_weight + 1e-12)


class TestStateProperties:
    @SETTINGS
    @given(graph_and_sets())
    def test_gain_equals_cover_delta(self, data):
        csr, variant, s, _t, v = data
        state = GreedyState(csr, variant)
        for node in s:
            state.add_node(node)
        expected = (
            cover(csr, list(s) + [v], variant) - cover(csr, s, variant)
        )
        assert state.gain(v) == pytest.approx(expected, abs=1e-10)

    @SETTINGS
    @given(graph_and_sets())
    def test_incremental_cover_identity(self, data):
        csr, variant, s, _t, _v = data
        state = GreedyState(csr, variant)
        for node in s:
            state.add_node(node)
        assert state.cover == pytest.approx(
            cover(csr, s, variant), abs=1e-10
        )
        assert state.cover == pytest.approx(
            float(state.coverage.sum()), abs=1e-10
        )

    @SETTINGS
    @given(graph_and_sets())
    def test_gains_all_matches_scalar(self, data):
        csr, variant, s, _t, _v = data
        state = GreedyState(csr, variant)
        for node in s:
            state.add_node(node)
        gains = state.gains_all()
        for v in range(csr.n_items):
            assert gains[v] == pytest.approx(state.gain(v), abs=1e-10)


class TestGreedyProperties:
    @SETTINGS
    @given(preference_graphs(), st.integers(min_value=0, max_value=12))
    def test_strategies_equal_cover(self, graph_variant, k_raw):
        csr, variant = graph_variant
        k = min(k_raw, csr.n_items)
        covers = {
            s: greedy_solve(csr, k, variant, strategy=s).cover
            for s in ("naive", "accelerated")
        }
        assert covers["accelerated"] == pytest.approx(
            covers["naive"], abs=1e-9
        )

    @SETTINGS
    @given(preference_graphs())
    def test_prefix_property(self, graph_variant):
        csr, variant = graph_variant
        n = csr.n_items
        full = greedy_solve(csr, n, variant)
        for k in (1, n // 2, n):
            partial = greedy_solve(csr, k, variant)
            assert full.retained[:k] == partial.retained

    @SETTINGS
    @given(preference_graphs(), st.floats(min_value=0.0, max_value=0.99))
    def test_threshold_is_shortest_prefix(self, graph_variant, threshold):
        csr, variant = graph_variant
        result = greedy_threshold_solve(csr, threshold, variant)
        assert result.cover >= threshold - 1e-9
        full = greedy_solve(csr, csr.n_items, variant)
        if result.k > 0:
            assert full.prefix_covers[result.k - 1] < threshold


class TestReductionProperties:
    @SETTINGS
    @given(preference_graphs(variant=Variant.NORMALIZED), st.data())
    def test_npc_vc_equivalence(self, graph_variant, data):
        csr, variant = graph_variant
        instance, _items = npc_to_vc(csr)
        n = csr.n_items
        size = data.draw(st.integers(min_value=0, max_value=n))
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        assert vc_cover_weight(instance, subset) == pytest.approx(
            cover(csr, subset, "normalized"), abs=1e-9
        )

    @SETTINGS
    @given(st.data())
    def test_ds_ipc_equivalence(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        m = data.draw(st.integers(min_value=0, max_value=3 * n))
        edges = tuple(
            (
                data.draw(st.integers(min_value=0, max_value=n - 1)),
                data.draw(st.integers(min_value=0, max_value=n - 1)),
            )
            for _ in range(m)
        )
        graph = DirectedGraphInstance(n=n, edges=edges)
        reduced = ds_to_ipc(graph)
        size = data.draw(st.integers(min_value=0, max_value=n))
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        assert dominated_count(graph, subset) == pytest.approx(
            n * cover(reduced, subset, "independent"), abs=1e-9
        )
