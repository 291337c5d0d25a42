"""Tests for the Data Adaptation Engine (Section 5.2 construction)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.adaptation.engine import (
    AdaptationConfig,
    DataAdaptationEngine,
    build_preference_graph,
)
from repro.clickstream.models import Clickstream, Session
from repro.core.variants import Variant
from repro.errors import AdaptationError


def stream(*sessions) -> Clickstream:
    return Clickstream(
        Session(f"s{i}", clicks, purchase)
        for i, (clicks, purchase) in enumerate(sessions)
    )


class TestNodeWeights:
    def test_purchase_shares(self):
        s = stream(((), "a"), ((), "a"), ((), "b"), ((), "c"))
        graph = build_preference_graph(s, "independent")
        assert graph.node_weight("a") == pytest.approx(0.5)
        assert graph.node_weight("b") == pytest.approx(0.25)
        assert graph.node_weight("c") == pytest.approx(0.25)
        graph.validate("independent")

    def test_browse_only_sessions_ignored(self):
        s = stream((("x", "y"), None), ((), "a"))
        graph = build_preference_graph(s, "independent")
        assert graph.node_weight("a") == 1.0
        assert "x" not in graph

    def test_no_purchases_raises(self):
        s = stream((("x",), None))
        with pytest.raises(AdaptationError, match="no purchasing"):
            build_preference_graph(s, "independent")

    def test_include_unpurchased(self):
        s = stream((("x",), "a"))
        graph = build_preference_graph(
            s, "independent", include_unpurchased=True
        )
        assert graph.node_weight("x") == 0.0
        assert graph.has_edge("a", "x")

    def test_unpurchased_excluded_by_default(self):
        s = stream((("x",), "a"))
        graph = build_preference_graph(s, "independent")
        assert "x" not in graph
        assert graph.n_edges == 0


class TestEdgeWeights:
    def test_independent_fraction_of_sessions(self):
        # b clicked in 2 of 4 a-purchases -> edge weight 0.5.
        s = stream(
            (("b",), "a"), (("b",), "a"), ((), "a"), ((), "a"), ((), "b"),
        )
        graph = build_preference_graph(s, "independent")
        assert graph.edge_weight("a", "b") == pytest.approx(0.5)

    def test_self_clicks_ignored(self):
        s = stream((("a", "b"), "a"), ((), "b"))
        graph = build_preference_graph(s, "independent")
        assert not graph.has_edge("a", "a")
        assert graph.edge_weight("a", "b") == pytest.approx(1.0)

    def test_normalized_splits_multi_clicks(self):
        # One session clicks b and c: each counts 1/2.
        s = stream((("b", "c"), "a"), ((), "b"), ((), "c"))
        graph = build_preference_graph(s, "normalized")
        assert graph.edge_weight("a", "b") == pytest.approx(0.5)
        assert graph.edge_weight("a", "c") == pytest.approx(0.5)
        graph.validate("normalized")

    def test_independent_keeps_full_clicks(self):
        s = stream((("b", "c"), "a"), ((), "b"), ((), "c"))
        graph = build_preference_graph(s, "independent")
        assert graph.edge_weight("a", "b") == pytest.approx(1.0)
        assert graph.edge_weight("a", "c") == pytest.approx(1.0)

    def test_normalized_out_sums_never_exceed_one(self):
        # Heavily multi-click sessions still satisfy the NPC invariant.
        s = stream(
            (("b", "c", "d"), "a"),
            (("b", "c"), "a"),
            ((), "b"), ((), "c"), ((), "d"),
        )
        graph = build_preference_graph(s, "normalized")
        assert graph.out_weight_sum("a") <= 1.0 + 1e-9
        graph.validate("normalized")

    def test_repeated_clicks_in_one_session_count_once(self):
        s = stream((("b", "b", "b"), "a"), ((), "b"))
        graph = build_preference_graph(s, "independent")
        assert graph.edge_weight("a", "b") == pytest.approx(1.0)

    def test_direction_is_purchase_to_click(self):
        # Paper: edge FROM the purchased (desired) item TO the clicked
        # alternative, not the browsing order.
        s = stream((("alt",), "desired"), ((), "alt"))
        graph = build_preference_graph(s, "independent")
        assert graph.has_edge("desired", "alt")
        assert not graph.has_edge("alt", "desired")


class TestPruning:
    def test_min_edge_sessions(self):
        s = stream(
            (("b",), "a"), ((), "a"), ((), "a"), ((), "b"),
        )
        keep = build_preference_graph(s, "independent", min_edge_sessions=1)
        assert keep.has_edge("a", "b")
        drop = build_preference_graph(s, "independent", min_edge_sessions=2)
        assert not drop.has_edge("a", "b")

    def test_min_edge_weight(self):
        s = stream(
            *([(("b",), "a")] + [((), "a")] * 9 + [((), "b")])
        )
        keep = build_preference_graph(s, "independent", min_edge_weight=0.05)
        assert keep.has_edge("a", "b")  # weight 0.1
        drop = build_preference_graph(s, "independent", min_edge_weight=0.2)
        assert not drop.has_edge("a", "b")


class TestEngineObject:
    def test_default_config(self):
        engine = DataAdaptationEngine()
        assert engine.config.variant is Variant.INDEPENDENT

    def test_config_passthrough(self):
        config = AdaptationConfig(variant=Variant.NORMALIZED)
        engine = DataAdaptationEngine(config)
        s = stream((("b", "c"), "a"), ((), "b"), ((), "c"))
        graph = engine.build_graph(s)
        assert graph.edge_weight("a", "b") == pytest.approx(0.5)


#: A stream whose click-only items outnumber its purchased ones, so the
#: greedy must break ties among zero-weight items by graph order.
_ORDER_SCRIPT = """
import json
import repro
from repro.adaptation.engine import AdaptationConfig, DataAdaptationEngine
from repro.adaptation.online import OnlineAdaptationEngine
from repro.clickstream.models import Clickstream, Session

sessions = [
    Session(i, tuple(f"x{(3 * i + j) % 13}" for j in range(4)), f"p{i % 3}")
    for i in range(12)
]
config = AdaptationConfig(include_unpurchased=True)
batch = DataAdaptationEngine(config).build_graph(Clickstream(sessions))
online = OnlineAdaptationEngine(config)
online.observe_all(sessions)
result = repro.solve(batch, variant="independent", k=5)
print(json.dumps({
    "batch": list(batch.items()),
    "online": list(online.snapshot().items()),
    "retained": list(result.retained),
}))
"""


class TestItemOrder:
    def test_click_only_items_in_first_click_order(self):
        s = stream((("z", "y", "a"), "a"), (("y", "b", "x"), "b"))
        graph = build_preference_graph(
            s, "independent", include_unpurchased=True
        )
        assert list(graph.items()) == ["a", "b", "z", "y", "x"]

    def test_order_independent_of_hash_seed(self):
        source = str(Path(repro.__file__).resolve().parent.parent)
        outputs = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            done = subprocess.run(
                [sys.executable, "-c", _ORDER_SCRIPT], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            )
            outputs.append(json.loads(done.stdout.splitlines()[-1]))
        first = outputs[0]
        assert first["online"] == first["batch"]
        assert first["batch"][:3] == ["p0", "p1", "p2"]
        assert first["batch"][3:] == [f"x{i}" for i in range(13)]
        assert all(output == first for output in outputs[1:])
