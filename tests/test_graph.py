"""Tests for repro.core.graph.PreferenceGraph."""


import pytest

from repro.core.graph import PreferenceGraph
from repro.errors import GraphValidationError, UnknownItemError


@pytest.fixture
def graph() -> PreferenceGraph:
    g = PreferenceGraph()
    g.add_item("A", 0.6)
    g.add_item("B", 0.4)
    g.add_edge("A", "B", 0.5)
    return g


class TestConstruction:
    def test_add_item_and_weight(self, graph):
        assert graph.node_weight("A") == 0.6
        assert graph.n_items == 2

    def test_re_add_overwrites_weight_keeps_edges(self, graph):
        graph.add_item("A", 0.3)
        assert graph.node_weight("A") == 0.3
        assert graph.edge_weight("A", "B") == 0.5

    def test_negative_node_weight_rejected(self):
        g = PreferenceGraph()
        with pytest.raises(GraphValidationError, match="nonnegative"):
            g.add_item("A", -0.1)

    def test_nan_node_weight_rejected(self):
        g = PreferenceGraph()
        with pytest.raises(GraphValidationError):
            g.add_item("A", float("nan"))

    def test_edge_requires_existing_endpoints(self, graph):
        with pytest.raises(UnknownItemError):
            graph.add_edge("A", "Z", 0.5)
        with pytest.raises(UnknownItemError):
            graph.add_edge("Z", "A", 0.5)

    def test_self_edge_rejected(self, graph):
        with pytest.raises(GraphValidationError, match="self-edge"):
            graph.add_edge("A", "A", 0.5)

    def test_nan_self_edge_rejected(self):
        nan = float("nan")  # nan != nan, but it is itself
        graph = PreferenceGraph.from_weights({nan: 0.5, "B": 0.5})
        with pytest.raises(GraphValidationError, match="self-edge"):
            graph.add_edge(nan, nan, 0.5)

    @pytest.mark.parametrize("weight", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_edge_weight_rejected(self, graph, weight):
        with pytest.raises(GraphValidationError):
            graph.add_edge("B", "A", weight)

    def test_edge_weight_one_allowed(self, graph):
        graph.add_edge("B", "A", 1.0)
        assert graph.edge_weight("B", "A") == 1.0

    def test_duplicate_edge_overwrites_not_counts(self, graph):
        graph.add_edge("A", "B", 0.7)
        assert graph.n_edges == 1
        assert graph.edge_weight("A", "B") == 0.7

    def test_from_weights_normalize(self):
        g = PreferenceGraph.from_weights({"A": 3, "B": 1}, normalize=True)
        assert g.node_weight("A") == pytest.approx(0.75)
        assert g.total_node_weight() == pytest.approx(1.0)

    def test_normalize_zero_total_raises(self):
        g = PreferenceGraph.from_weights({"A": 0.0})
        with pytest.raises(GraphValidationError, match="normalize"):
            g.normalize_node_weights()

    def test_remove_edge(self, graph):
        graph.remove_edge("A", "B")
        assert graph.n_edges == 0
        assert not graph.has_edge("A", "B")

    def test_remove_missing_edge_raises(self, graph):
        with pytest.raises(UnknownItemError):
            graph.remove_edge("B", "A")


class TestInspection:
    def test_dunder_protocol(self, graph):
        assert len(graph) == 2
        assert "A" in graph
        assert "Z" not in graph
        assert set(iter(graph)) == {"A", "B"}

    def test_neighbors_returns_copy(self, graph):
        neighbors = graph.neighbors("A")
        assert neighbors == {"B": 0.5}
        neighbors["B"] = 99
        assert graph.edge_weight("A", "B") == 0.5

    def test_in_neighbors(self, graph):
        assert graph.in_neighbors("B") == {"A": 0.5}
        assert graph.in_neighbors("A") == {}

    def test_degrees(self, graph):
        assert graph.out_degree("A") == 1
        assert graph.in_degree("B") == 1
        assert graph.in_degree("A") == 0
        assert graph.max_in_degree() == 1

    def test_out_weight_sum(self, graph):
        assert graph.out_weight_sum("A") == pytest.approx(0.5)
        assert graph.out_weight_sum("B") == 0.0

    def test_unknown_item_errors(self, graph):
        with pytest.raises(UnknownItemError):
            graph.node_weight("Z")
        with pytest.raises(UnknownItemError):
            graph.neighbors("Z")
        with pytest.raises(UnknownItemError):
            graph.edge_weight("A", "Z")

    def test_edges_iteration(self, graph):
        assert list(graph.edges()) == [("A", "B", 0.5)]

    def test_repr(self, graph):
        assert "n_items=2" in repr(graph)


class TestValidation:
    def test_valid_graph_passes(self, graph):
        graph.validate("independent")
        graph.validate("normalized")

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphValidationError, match="no items"):
            PreferenceGraph().validate()

    def test_weights_must_sum_to_one(self):
        g = PreferenceGraph.from_weights({"A": 0.6, "B": 0.6})
        with pytest.raises(GraphValidationError, match="sum to 1"):
            g.validate()

    def test_normalized_out_sum_check(self):
        g = PreferenceGraph.from_weights(
            {"A": 0.5, "B": 0.3, "C": 0.2},
            edges=[("A", "B", 0.7), ("A", "C", 0.6)],
        )
        g.validate("independent")  # fine: no out-sum restriction
        with pytest.raises(GraphValidationError, match="sum to <= 1"):
            g.validate("normalized")

    def test_out_sum_exactly_one_accepted(self):
        g = PreferenceGraph.from_weights(
            {"A": 0.5, "B": 0.3, "C": 0.2},
            edges=[("A", "B", 0.5), ("A", "C", 0.5)],
        )
        g.validate("normalized")


class TestConversions:
    def test_networkx_roundtrip(self, graph):
        nxg = graph.to_networkx()
        back = PreferenceGraph.from_networkx(nxg)
        assert back.node_weight("A") == graph.node_weight("A")
        assert list(back.edges()) == list(graph.edges())

    def test_from_networkx_requires_weights(self):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_node("A")
        with pytest.raises(GraphValidationError, match="weight"):
            PreferenceGraph.from_networkx(nxg)

    def test_from_networkx_requires_edge_weights(self):
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_node("A", weight=0.5)
        nxg.add_node("B", weight=0.5)
        nxg.add_edge("A", "B")
        with pytest.raises(GraphValidationError, match="weight"):
            PreferenceGraph.from_networkx(nxg)

    def test_copy_is_deep(self, graph):
        clone = graph.copy()
        clone.add_item("C", 0.0)
        clone.remove_edge("A", "B")
        assert "C" not in graph
        assert graph.has_edge("A", "B")

    def test_to_csr_preserves_structure(self, graph):
        csr = graph.to_csr()
        assert csr.n_items == 2
        assert csr.n_edges == 1
        back = csr.to_preference_graph()
        assert back.node_weight("A") == graph.node_weight("A")
        assert list(back.edges()) == list(graph.edges())
