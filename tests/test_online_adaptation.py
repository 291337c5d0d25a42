"""Tests for the streaming (online) adaptation engine.

The batch build is a fold into the same engine, so equivalence is
checked against ``reference_build_graph``, the per-session reading of
the construction, which shares no code with the engine.
"""

import pytest

from repro.adaptation.engine import AdaptationConfig, DataAdaptationEngine
from repro.adaptation.online import OnlineAdaptationEngine
from repro.clickstream.generator import ConsumerModel, ShopperConfig
from repro.clickstream.models import Clickstream, Session
from repro.core.variants import Variant
from repro.errors import AdaptationError
from tests.test_fuzz_adaptation import graph_layout, reference_build_graph


def reference_layout(config, sessions):
    return graph_layout(reference_build_graph(config, sessions))


@pytest.fixture
def stream() -> Clickstream:
    model = ConsumerModel(
        ShopperConfig(n_items=40, behavior="independent"), seed=20
    )
    return model.generate(3_000, seed=21)


class TestBatchEquivalence:
    @pytest.mark.parametrize("variant", ["independent", "normalized"])
    def test_snapshot_matches_batch(self, stream, variant):
        config = AdaptationConfig(variant=Variant.coerce(variant))
        online = OnlineAdaptationEngine(config)
        online.observe_all(stream)
        batch = DataAdaptationEngine(config).build_graph(stream)
        expected = reference_layout(config, stream)
        assert graph_layout(online.snapshot()) == expected
        assert graph_layout(batch) == expected

    def test_pruning_options_respected(self, stream):
        config = AdaptationConfig(min_edge_sessions=3, min_edge_weight=0.05)
        online = OnlineAdaptationEngine(config)
        online.observe_all(stream)
        batch = DataAdaptationEngine(config).build_graph(stream)
        expected = reference_layout(config, stream)
        assert graph_layout(online.snapshot()) == expected
        assert graph_layout(batch) == expected

    def test_include_unpurchased(self):
        config = AdaptationConfig(include_unpurchased=True)
        online = OnlineAdaptationEngine(config)
        online.observe(Session("s1", ("alt",), purchase="main"))
        snapshot = online.snapshot()
        assert "alt" in snapshot
        assert snapshot.node_weight("alt") == 0.0


class TestStreamingBehavior:
    def test_incremental_observation(self, stream):
        online = OnlineAdaptationEngine()
        half = len(stream) // 2
        for session in list(stream)[:half]:
            online.observe(session)
        first = online.snapshot()
        for session in list(stream)[half:]:
            online.observe(session)
        second = online.snapshot()
        # More data: same equivalence with the corresponding batches.
        config = AdaptationConfig()
        assert graph_layout(first) == reference_layout(
            config, list(stream)[:half]
        )
        assert graph_layout(second) == reference_layout(config, stream)

    def test_observed_sessions_counter(self):
        online = OnlineAdaptationEngine()
        online.observe(Session("s1", (), purchase=None))
        online.observe(Session("s2", (), purchase="a"))
        assert online.observed_sessions == 2

    def test_empty_snapshot_rejected(self):
        online = OnlineAdaptationEngine()
        with pytest.raises(AdaptationError, match="no purchasing"):
            online.snapshot()
        online.observe(Session("s1", ("x",), purchase=None))
        with pytest.raises(AdaptationError):
            online.snapshot()


class TestDecay:
    def test_decay_validation(self):
        with pytest.raises(AdaptationError, match="decay"):
            OnlineAdaptationEngine(decay=0.0)
        with pytest.raises(AdaptationError, match="decay"):
            OnlineAdaptationEngine(decay=1.2)

    def test_decay_fades_old_behavior(self):
        online = OnlineAdaptationEngine(decay=0.5)
        # Period 1: item "old" dominates.
        for i in range(8):
            online.observe(Session(f"a{i}", (), purchase="old"))
        online.observe(Session("b0", (), purchase="new"))
        online.new_period()
        # Period 2: item "new" dominates.
        for i in range(8):
            online.observe(Session(f"c{i}", (), purchase="new"))
        snapshot = online.snapshot()
        # old: 8 * 0.5 = 4; new: 0.5 + 8 = 8.5.
        assert snapshot.node_weight("new") > snapshot.node_weight("old")
        assert snapshot.node_weight("old") == pytest.approx(4 / 12.5)

    def test_no_decay_new_period_noop(self):
        online = OnlineAdaptationEngine(decay=1.0)
        online.observe(Session("s1", (), purchase="a"))
        online.new_period()
        assert online.snapshot().node_weight("a") == 1.0

    def test_decayed_edges_keep_weights_normalized(self):
        config = AdaptationConfig(variant=Variant.NORMALIZED)
        online = OnlineAdaptationEngine(config, decay=0.7)
        online.observe(Session("s1", ("b", "c"), purchase="a"))
        online.observe(Session("s2", (), purchase="b"))
        online.observe(Session("s3", (), purchase="c"))
        online.new_period()
        online.observe(Session("s4", ("b",), purchase="a"))
        graph = online.snapshot()
        graph.validate("normalized")
        # Edge weight = decayed mass / decayed purchases, still <= 1.
        assert graph.out_weight_sum("a") <= 1.0 + 1e-9
