"""Tests for the §5.2 corrective-factor and Laplace shrinkage knobs."""

import pytest

from repro.adaptation.engine import (
    AdaptationConfig,
    DataAdaptationEngine,
)
from repro.adaptation.online import OnlineAdaptationEngine
from repro.clickstream.models import Clickstream, Session
from repro.core.variants import Variant
from repro.errors import AdaptationError
from tests.test_fuzz_adaptation import reference_build_graph


def stream(*sessions) -> Clickstream:
    return Clickstream(
        Session(f"s{i}", clicks, purchase)
        for i, (clicks, purchase) in enumerate(sessions)
    )


@pytest.fixture
def raw_stream() -> Clickstream:
    # a purchased 4 times (b clicked twice), z purchased once (b clicked).
    return stream(
        (("b",), "a"), (("b",), "a"), ((), "a"), ((), "a"),
        (("b",), "z"), ((), "b"),
    )


class TestCorrectionFactor:
    def test_scales_all_edges(self, raw_stream):
        plain = DataAdaptationEngine().build_graph(raw_stream)
        corrected = DataAdaptationEngine(
            AdaptationConfig(correction_factor=0.5)
        ).build_graph(raw_stream)
        for source, target, weight in plain.edges():
            assert corrected.edge_weight(source, target) == pytest.approx(
                weight * 0.5
            )

    def test_node_weights_untouched(self, raw_stream):
        corrected = DataAdaptationEngine(
            AdaptationConfig(correction_factor=0.3)
        ).build_graph(raw_stream)
        assert corrected.node_weight("a") == pytest.approx(4 / 6)

    def test_validation(self):
        with pytest.raises(AdaptationError, match="correction_factor"):
            AdaptationConfig(correction_factor=0.0)
        with pytest.raises(AdaptationError, match="correction_factor"):
            AdaptationConfig(correction_factor=1.5)

    def test_preserves_normalized_invariant(self, raw_stream):
        graph = DataAdaptationEngine(
            AdaptationConfig(
                variant=Variant.NORMALIZED, correction_factor=0.8
            )
        ).build_graph(raw_stream)
        graph.validate("normalized")


class TestLaplaceShrinkage:
    def test_shrinks_low_support_more(self, raw_stream):
        graph = DataAdaptationEngine(
            AdaptationConfig(laplace_alpha=2.0)
        ).build_graph(raw_stream)
        # a: 2 clicks / (4 + 2) = 1/3 (raw was 1/2).
        assert graph.edge_weight("a", "b") == pytest.approx(1 / 3)
        # z: 1 click / (1 + 2) = 1/3 (raw was 1.0) — shrunk much harder.
        assert graph.edge_weight("z", "b") == pytest.approx(1 / 3)

    def test_zero_alpha_is_raw(self, raw_stream):
        graph = DataAdaptationEngine(
            AdaptationConfig(laplace_alpha=0.0)
        ).build_graph(raw_stream)
        assert graph.edge_weight("z", "b") == pytest.approx(1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(AdaptationError, match="laplace_alpha"):
            AdaptationConfig(laplace_alpha=-1.0)

    def test_large_alpha_can_prune_via_min_weight(self, raw_stream):
        graph = DataAdaptationEngine(
            AdaptationConfig(laplace_alpha=50.0, min_edge_weight=0.03)
        ).build_graph(raw_stream)
        assert not graph.has_edge("z", "b")  # 1/51 < 0.03


class TestOnlineParity:
    @pytest.mark.parametrize("config", [
        AdaptationConfig(correction_factor=0.6),
        AdaptationConfig(laplace_alpha=1.5),
        AdaptationConfig(correction_factor=0.7, laplace_alpha=2.0,
                         variant=Variant.NORMALIZED),
    ])
    def test_online_matches_batch_with_smoothing(self, raw_stream, config):
        # The batch build is a fold into the same engine; the per-session
        # reference is the independent check.
        batch = reference_build_graph(config, raw_stream)
        online = OnlineAdaptationEngine(config)
        online.observe_all(raw_stream)
        snapshot = online.snapshot()
        assert sorted(snapshot.edges()) == sorted(batch.edges())
