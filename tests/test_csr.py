"""Tests for repro.core.csr.CSRGraph."""

import numpy as np
import pytest

from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.errors import GraphValidationError, UnknownItemError


@pytest.fixture
def csr() -> CSRGraph:
    graph = PreferenceGraph.from_weights(
        {"A": 0.4, "B": 0.3, "C": 0.2, "D": 0.1},
        edges=[
            ("A", "B", 0.5),
            ("B", "A", 0.2),
            ("B", "C", 0.3),
            ("D", "C", 0.9),
        ],
    )
    return graph.to_csr()


class TestConstruction:
    def test_shape(self, csr):
        assert csr.n_items == 4
        assert csr.n_edges == 4
        assert len(csr) == 4

    def test_from_arrays_defaults_items(self):
        g = CSRGraph.from_arrays(
            np.array([0.5, 0.5]),
            np.array([0]),
            np.array([1]),
            np.array([0.3]),
        )
        assert g.items == [0, 1]

    def test_from_arrays_rejects_length_mismatch(self):
        with pytest.raises(GraphValidationError, match="equal length"):
            CSRGraph.from_arrays(
                np.array([1.0]), np.array([0]), np.array([0, 0]),
                np.array([0.5]),
            )

    def test_from_arrays_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError, match="out of range"):
            CSRGraph.from_arrays(
                np.array([0.5, 0.5]), np.array([0]), np.array([5]),
                np.array([0.5]),
            )

    def test_from_arrays_rejects_self_edges(self):
        with pytest.raises(GraphValidationError, match="self-edges"):
            CSRGraph.from_arrays(
                np.array([0.5, 0.5]), np.array([1]), np.array([1]),
                np.array([0.5]),
            )

    def test_from_arrays_rejects_wrong_item_count(self):
        with pytest.raises(GraphValidationError, match="items length"):
            CSRGraph.from_arrays(
                np.array([0.5, 0.5]), np.array([0]), np.array([1]),
                np.array([0.5]), items=["only-one"],
            )

    @pytest.mark.parametrize(
        "src, dst",
        [
            ([0, 1, 2, 3, 0], [1, 2, 3, 0, 1]),  # far apart in the input
            ([2, 0, 1, 3, 2], [3, 1, 2, 0, 3]),  # first and last positions
            ([1, 1], [0, 0]),  # adjacent
        ],
    )
    def test_from_arrays_rejects_duplicate_edges(self, src, dst):
        with pytest.raises(GraphValidationError, match="duplicate edges"):
            CSRGraph.from_arrays(
                np.full(4, 0.25), np.array(src), np.array(dst),
                np.full(len(src), 0.5),
            )

    def test_from_arrays_accepts_reversed_pairs(self):
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 0, 3, 2])
        g = CSRGraph.from_arrays(np.full(4, 0.25), src, dst, np.full(4, 0.5))
        assert g.n_edges == 4
        assert src.tolist() == [0, 1, 2, 3]  # inputs are not reordered

    def test_arrays_are_readonly(self, csr):
        with pytest.raises(ValueError):
            csr.node_weight[0] = 9.0
        with pytest.raises(ValueError):
            csr.in_weight[0] = 9.0


class TestEdgeAccess:
    def test_in_edges_grouped_by_destination(self, csr):
        c = csr.index_of("C")
        sources, weights = csr.in_edges(c)
        got = {csr.items[s]: w for s, w in zip(sources, weights)}
        assert got == {"B": 0.3, "D": 0.9}

    def test_out_edges_grouped_by_source(self, csr):
        b = csr.index_of("B")
        targets, weights = csr.out_edges(b)
        got = {csr.items[t]: w for t, w in zip(targets, weights)}
        assert got == {"A": 0.2, "C": 0.3}

    def test_empty_slices(self, csr):
        a = csr.index_of("A")
        sources, _ = csr.in_edges(a)
        assert list(csr.items[s] for s in sources) == ["B"]
        d = csr.index_of("D")
        sources, _ = csr.in_edges(d)
        assert sources.size == 0

    def test_degrees(self, csr):
        in_deg = {csr.items[i]: d for i, d in enumerate(csr.in_degrees())}
        out_deg = {csr.items[i]: d for i, d in enumerate(csr.out_degrees())}
        assert in_deg == {"A": 1, "B": 1, "C": 2, "D": 0}
        assert out_deg == {"A": 1, "B": 2, "C": 0, "D": 1}
        assert csr.max_in_degree() == 2

    def test_out_weight_sums(self, csr):
        sums = csr.out_weight_sums()
        assert sums[csr.index_of("B")] == pytest.approx(0.5)
        assert sums[csr.index_of("C")] == 0.0

    def test_index_of_unknown(self, csr):
        with pytest.raises(UnknownItemError):
            csr.index_of("Z")


class TestValidation:
    def test_valid(self, csr):
        csr.validate("independent")
        csr.validate("normalized")

    def test_weight_sum_violation(self):
        g = CSRGraph.from_arrays(
            np.array([0.9, 0.9]), np.array([0]), np.array([1]),
            np.array([0.5]),
        )
        with pytest.raises(GraphValidationError, match="sum to 1"):
            g.validate()

    def test_normalized_out_sum_violation(self):
        g = CSRGraph.from_arrays(
            np.array([0.5, 0.25, 0.25]),
            np.array([0, 0]),
            np.array([1, 2]),
            np.array([0.8, 0.8]),
        )
        g.validate("independent")
        with pytest.raises(GraphValidationError, match="out-weight"):
            g.validate("normalized")

    def test_edge_weight_violation(self):
        g = CSRGraph.from_arrays(
            np.array([0.5, 0.5]), np.array([0]), np.array([1]),
            np.array([1.5]),
        )
        with pytest.raises(GraphValidationError, match=r"\(0, 1\]"):
            g.validate()


class TestConversion:
    def test_roundtrip(self, csr):
        graph = csr.to_preference_graph()
        again = graph.to_csr()
        np.testing.assert_allclose(again.node_weight, csr.node_weight)
        assert again.n_edges == csr.n_edges

    def test_as_csr_idempotent(self, csr):
        assert as_csr(csr) is csr

    def test_as_csr_converts(self):
        g = PreferenceGraph.from_weights({"A": 1.0})
        assert isinstance(as_csr(g), CSRGraph)

    def test_repr(self, csr):
        assert "n_items=4" in repr(csr)


class TestDuplicateEdges:
    def test_from_arrays_rejects_duplicates(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            CSRGraph.from_arrays(
                np.array([0.5, 0.5]),
                np.array([0, 0]),
                np.array([1, 1]),
                np.array([0.3, 0.4]),
            )

    def test_distinct_pairs_accepted(self):
        g = CSRGraph.from_arrays(
            np.array([0.4, 0.3, 0.3]),
            np.array([0, 1]),
            np.array([1, 0]),
            np.array([0.3, 0.4]),
        )
        assert g.n_edges == 2
