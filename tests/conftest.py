"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.clickstream.generator import ConsumerModel, ShopperConfig
from repro.clickstream.models import Clickstream
from repro.core.csr import CSRGraph
from repro.core.graph import PreferenceGraph
from repro.examples_data import figure1_graph, figure3_graph
from repro.workloads.graphs import random_preference_graph, small_dense_graph

VARIANTS = ("independent", "normalized")


@pytest.fixture
def figure1() -> PreferenceGraph:
    """The paper's Figure 1 five-item graph."""
    return figure1_graph()


@pytest.fixture
def figure3() -> PreferenceGraph:
    """The paper's Figure 3b iPhone graph."""
    return figure3_graph()


@pytest.fixture(params=VARIANTS)
def variant(request) -> str:
    """Parametrize a test over both problem variants."""
    return request.param


@pytest.fixture
def small_graph(variant) -> CSRGraph:
    """A dense 14-node instance valid for the current variant."""
    return small_dense_graph(14, variant=variant, seed=42)


@pytest.fixture
def medium_graph(variant) -> CSRGraph:
    """A sparse 500-node instance valid for the current variant."""
    return random_preference_graph(500, variant=variant, seed=7)


@pytest.fixture
def line_graph() -> PreferenceGraph:
    """A -> B -> C chain with distinct weights; easy to reason about."""
    return PreferenceGraph.from_weights(
        {"A": 0.5, "B": 0.3, "C": 0.2},
        edges=[("A", "B", 0.5), ("B", "C", 0.4)],
    )


@pytest.fixture
def consumer_model_independent() -> ConsumerModel:
    """A small independent-behavior shopper population."""
    return ConsumerModel(
        ShopperConfig(n_items=60, behavior="independent", cluster_size=6),
        seed=123,
    )


@pytest.fixture
def consumer_model_normalized() -> ConsumerModel:
    """A small normalized-behavior shopper population."""
    return ConsumerModel(
        ShopperConfig(n_items=60, behavior="normalized", cluster_size=6),
        seed=321,
    )


@pytest.fixture
def encodings(monkeypatch):
    """Records every clickstream encoding built while the test runs."""
    calls = []
    original = Clickstream._encode

    def counting(stream):
        calls.append(1)
        return original(stream)

    monkeypatch.setattr(Clickstream, "_encode", counting)
    return calls
