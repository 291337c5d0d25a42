"""Tests for the exact cover function (Definitions 2.1 and 2.2)."""

import itertools
import random

import numpy as np
import pytest

from repro.core.cover import cover, coverage_vector, item_coverage, resolve_indices
from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.core.variants import Variant
from repro.errors import UnknownItemError
from repro.evaluation.fuzz import generate_case


def reference_coverage_vector(csr, retained, variant):
    """The per-item definition: one ``np.prod`` / ``np.sum`` per row."""
    variant = Variant.coerce(variant)
    indices = resolve_indices(csr, retained)
    in_set = np.zeros(csr.n_items, dtype=bool)
    in_set[indices] = True
    cover_prob = np.zeros(csr.n_items, dtype=np.float64)
    cover_prob[in_set] = 1.0
    for v in np.flatnonzero(~in_set):
        targets, weights = csr.out_edges(v)
        mask = in_set[targets]
        if not mask.any():
            continue
        retained_weights = weights[mask]
        if variant is Variant.INDEPENDENT:
            cover_prob[v] = 1.0 - np.prod(1.0 - retained_weights)
        else:
            cover_prob[v] = min(1.0, float(retained_weights.sum()))
    return csr.node_weight * cover_prob


def reference_item_coverage(csr, retained, variant):
    """``I[v] / W(v)`` per item; a retained zero-weight item reads 1."""
    vector = reference_coverage_vector(csr, retained, variant)
    retained_mask = np.zeros(csr.n_items, dtype=bool)
    retained_mask[resolve_indices(csr, retained)] = True
    out = np.zeros(csr.n_items, dtype=np.float64)
    for v, weight in enumerate(csr.node_weight):
        if weight > 0:
            out[v] = vector[v] / weight
        elif retained_mask[v]:
            out[v] = 1.0
    return out


class TestBasicProperties:
    def test_empty_set_covers_nothing(self, figure1, variant):
        assert cover(figure1, [], variant) == 0.0

    def test_full_set_covers_everything(self, figure1, variant):
        items = list(figure1.items())
        assert cover(figure1, items, variant) == pytest.approx(1.0)

    def test_retained_mass_is_lower_bound(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        retained = list(range(0, 50))
        got = cover(csr, retained, variant)
        assert got >= float(csr.node_weight[retained].sum()) - 1e-12

    def test_monotone_in_set(self, small_graph, variant):
        small = cover(small_graph, [0, 1], variant)
        bigger = cover(small_graph, [0, 1, 2, 3], variant)
        assert bigger >= small - 1e-12

    def test_cover_bounded_by_one(self, medium_graph, variant):
        got = cover(medium_graph, range(100), variant)
        assert 0.0 <= got <= 1.0 + 1e-12


class TestSemantics:
    def test_independent_noisy_or(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.5, "a": 0.25, "b": 0.25},
            edges=[("v", "a", 0.5), ("v", "b", 0.5)],
        )
        got = cover(g, ["a", "b"], "independent")
        # a + b retained mass 0.5, v covered 1-(0.5*0.5)=0.75 -> 0.375
        assert got == pytest.approx(0.5 + 0.5 * 0.75)

    def test_normalized_sum(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.5, "a": 0.25, "b": 0.25},
            edges=[("v", "a", 0.5), ("v", "b", 0.5)],
        )
        got = cover(g, ["a", "b"], "normalized")
        assert got == pytest.approx(0.5 + 0.5 * 1.0)

    def test_variants_agree_with_single_retained_neighbor(self):
        g = PreferenceGraph.from_weights(
            {"v": 0.6, "a": 0.4},
            edges=[("v", "a", 0.3)],
        )
        indep = cover(g, ["a"], "independent")
        norm = cover(g, ["a"], "normalized")
        assert indep == pytest.approx(norm) == pytest.approx(0.4 + 0.6 * 0.3)

    def test_figure1_quoted_values(self, figure1):
        # Values quoted in Example 1.1 of the paper.
        assert cover(figure1, ["A", "B"], "normalized") == pytest.approx(0.77)
        assert cover(figure1, ["B", "D"], "normalized") == pytest.approx(0.873)


class TestCoverageVector:
    def test_sums_to_cover(self, medium_graph, variant):
        retained = list(range(40))
        vec = coverage_vector(medium_graph, retained, variant)
        assert vec.sum() == pytest.approx(cover(medium_graph, retained, variant))

    def test_retained_fully_covered(self, small_graph, variant):
        csr = as_csr(small_graph)
        vec = coverage_vector(csr, [3, 5], variant)
        assert vec[3] == pytest.approx(float(csr.node_weight[3]))
        assert vec[5] == pytest.approx(float(csr.node_weight[5]))

    def test_entries_bounded_by_node_weight(self, medium_graph, variant):
        csr = as_csr(medium_graph)
        vec = coverage_vector(csr, range(60), variant)
        assert np.all(vec <= csr.node_weight + 1e-12)
        assert np.all(vec >= 0)


class TestItemCoverage:
    def test_conditional_values(self, figure1):
        csr = as_csr(figure1)
        conditional = item_coverage(csr, ["B", "D"], "normalized")
        by_item = {csr.items[i]: conditional[i] for i in range(5)}
        # Figure 2 walkthrough: A 67%, C 100%, E 90%.
        assert by_item["A"] == pytest.approx(2 / 3)
        assert by_item["C"] == pytest.approx(1.0)
        assert by_item["E"] == pytest.approx(0.9)
        assert by_item["B"] == pytest.approx(1.0)
        assert by_item["D"] == pytest.approx(1.0)

    def test_zero_weight_items(self):
        g = PreferenceGraph.from_weights(
            {"a": 1.0, "zero": 0.0},
            edges=[("zero", "a", 0.5)],
        )
        conditional = item_coverage(g, ["a"], "independent")
        csr = as_csr(g)
        assert conditional[csr.index_of("zero")] == 0.0
        conditional_retained = item_coverage(g, ["a", "zero"], "independent")
        assert conditional_retained[csr.index_of("zero")] == 1.0


def _hand_built_graphs():
    """Small graphs, each with one row shape the vectorized pass groups."""
    return {
        "zero_weight_items": PreferenceGraph.from_weights(
            {"a": 0.5, "z1": 0.0, "b": 0.5, "z2": 0.0},
            edges=[("z1", "a", 0.5), ("z2", "b", 0.3), ("z2", "a", 0.6),
                   ("a", "b", 0.4), ("b", "z1", 0.2)],
        ),
        "no_out_edges": PreferenceGraph.from_weights(
            {"s1": 0.3, "v": 0.5, "s2": 0.2},
            edges=[("v", "s1", 0.5)],
        ),
        # The later record of a repeated pair upserts the earlier one.
        "duplicate_edge_records": PreferenceGraph.from_weights(
            {"a": 0.4, "b": 0.3, "c": 0.3},
            edges=[("a", "b", 0.9), ("a", "c", 0.2), ("a", "b", 0.35),
                   ("c", "b", 0.5), ("c", "b", 0.25)],
        ),
        "probability_one_edges": PreferenceGraph.from_weights(
            {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25},
            edges=[("a", "b", 1.0), ("c", "b", 1.0), ("c", "d", 0.5),
                   ("d", "a", 1.0)],
        ),
        # With a, b and c retained, v's row sums 0.27 + 0.1 + 0.05, which
        # np.add.reduceat rounds one ulp away from np.sum.
        "wide_row": PreferenceGraph.from_weights(
            {"v": 0.4, "a": 0.15, "b": 0.15, "c": 0.15, "d": 0.15},
            edges=[("v", "a", 0.27), ("v", "b", 0.1), ("v", "c", 0.05),
                   ("v", "d", 0.5), ("a", "b", 0.3), ("d", "c", 0.7)],
        ),
    }


def _dense_graph(seed):
    """Out-degrees up to 40, so rows reach the pairwise-summation sizes."""
    rng = np.random.default_rng(seed)
    n = 120
    src, dst, weight = [], [], []
    for v in range(n):
        degree = int(rng.integers(0, 41))
        targets = rng.choice(np.delete(np.arange(n), v), degree, replace=False)
        raw = rng.random(degree)
        src.extend([v] * degree)
        dst.extend(targets.tolist())
        weight.extend((raw * rng.uniform(0.3, 0.99) / max(raw.sum(), 1.0)).tolist())
    node_weight = rng.random(n)
    return CSRGraph.from_arrays(
        node_weight / node_weight.sum(), np.array(src), np.array(dst),
        np.array(weight),
    )


def _assert_matches_reference(csr, retained, variant):
    expected = reference_coverage_vector(csr, retained, variant)
    assert coverage_vector(csr, retained, variant).tobytes() == expected.tobytes()
    assert cover(csr, retained, variant) == float(expected.sum())
    conditional = item_coverage(csr, retained, variant)
    assert conditional.tobytes() == reference_item_coverage(
        csr, retained, variant
    ).tobytes()


class TestMatchesPerItemReference:
    """The vectorized pass equals the per-item loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(_hand_built_graphs()))
    def test_hand_built_every_subset(self, name, variant):
        csr = as_csr(_hand_built_graphs()[name])
        for size in range(csr.n_items + 1):
            for retained in itertools.combinations(csr.items, size):
                _assert_matches_reference(csr, list(retained), variant)

    def test_wide_row_is_the_reduceat_shape(self):
        csr = as_csr(_hand_built_graphs()["wide_row"])
        row = np.array([0.27, 0.1, 0.05])
        assert np.add.reduceat(row, [0])[0] != row.sum()
        retained = ["a", "b", "c"]
        expected = min(1.0, float(row.sum())) * 0.4
        vector = coverage_vector(csr, retained, "normalized")
        assert vector[csr.index_of("v")] == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_cases(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            case = generate_case(rng)
            csr = as_csr(case.build_graph())
            for _ in range(4):
                size = rng.randrange(csr.n_items + 1)
                retained = rng.sample(list(csr.items), size)
                _assert_matches_reference(csr, retained, case.variant)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_rows(self, seed, variant):
        csr = _dense_graph(seed)
        rng = np.random.default_rng(seed)
        for size in (0, 1, 10, 60, 110, csr.n_items):
            retained = rng.choice(csr.n_items, size, replace=False).tolist()
            _assert_matches_reference(csr, retained, variant)


class TestResolveIndices:
    def test_accepts_ids_and_indices(self, figure1):
        csr = as_csr(figure1)
        mixed = resolve_indices(csr, ["A", 1, "D"])
        assert list(mixed) == [csr.index_of("A"), 1, csr.index_of("D")]

    def test_deduplicates_preserving_order(self, figure1):
        csr = as_csr(figure1)
        indices = resolve_indices(csr, ["B", "B", "A"])
        assert list(indices) == [csr.index_of("B"), csr.index_of("A")]

    def test_unknown_item_raises(self, figure1):
        csr = as_csr(figure1)
        with pytest.raises(UnknownItemError):
            resolve_indices(csr, ["nope"])

    def test_integer_item_ids_resolve_as_ids_first(self):
        csr = CSRGraph.from_arrays(
            np.array([0.5, 0.5]), np.array([0]), np.array([1]),
            np.array([0.4]), items=[10, 20],
        )
        # 10 is an item id, so it resolves through the item table.
        assert list(resolve_indices(csr, [10])) == [0]
        # 0 and 1 are not ids here; integers in [0, n) fall back to
        # dense-index semantics so positional call sites keep working.
        assert list(resolve_indices(csr, [0, 1])) == [0, 1]

    def test_id_wins_when_id_and_index_collide(self):
        # Regression: item ids are a non-identity permutation of the
        # index range, so the same integer names different nodes under
        # id vs index semantics.  Ids must win — the old index-first
        # rule silently resolved every element positionally.
        csr = CSRGraph.from_arrays(
            np.array([0.2, 0.3, 0.5]), np.array([0]), np.array([1]),
            np.array([0.4]), items=[2, 0, 1],
        )
        assert list(resolve_indices(csr, [2, 0, 1])) == [0, 1, 2]
        # Cover/coverage recomputation follows the same rule: retaining
        # item 1 (index 2) keeps that node's mass, not node 1's.
        vector = coverage_vector(csr, [1], "independent")
        assert vector[2] == pytest.approx(0.5)
        assert vector[1] == 0.0

    def test_unhashable_input_raises_unknown_item(self, figure1):
        csr = as_csr(figure1)
        with pytest.raises(UnknownItemError):
            resolve_indices(csr, [["not", "an", "id"]])
