"""Tests for the end-to-end InventoryReducer (Figure 2 architecture)."""

import warnings

import pytest

from repro.clickstream.generator import ConsumerModel, ShopperConfig
from repro.clickstream.models import Clickstream
from repro.core.csr import CSRGraph
from repro.core.variants import Variant
from repro.errors import SolverError
from repro.pipeline import InventoryReducer


@pytest.fixture
def independent_stream():
    model = ConsumerModel(
        ShopperConfig(n_items=80, behavior="independent"), seed=10
    )
    return model.generate(12_000, seed=11)


@pytest.fixture
def normalized_stream():
    model = ConsumerModel(
        ShopperConfig(n_items=80, behavior="normalized"), seed=12
    )
    return model.generate(12_000, seed=13)


class TestConstruction:
    def test_requires_exactly_one_objective(self):
        with pytest.raises(SolverError, match="exactly one"):
            InventoryReducer()
        with pytest.raises(SolverError, match="exactly one"):
            InventoryReducer(k=5, threshold=0.5)

    def test_fixed_variant(self):
        reducer = InventoryReducer(k=5, variant="normalized")
        assert reducer.variant is Variant.NORMALIZED
        assert not reducer.auto_variant


class TestRun:
    def test_auto_variant_independent(self, independent_stream):
        reducer = InventoryReducer(k=20)
        report = reducer.run(independent_stream)
        assert report.variant is Variant.INDEPENDENT
        assert report.recommendation is not None
        assert len(report.retained) == 20
        assert 0 < report.cover <= 1

    def test_auto_variant_normalized(self, normalized_stream):
        reducer = InventoryReducer(k=20)
        report = reducer.run(normalized_stream)
        assert report.variant is Variant.NORMALIZED
        assert report.recommendation.fits

    def test_threshold_mode(self, independent_stream):
        reducer = InventoryReducer(threshold=0.7, variant="independent")
        report = reducer.run(independent_stream)
        assert report.cover >= 0.7 - 1e-9
        # It should take far fewer items than the full catalog.
        assert len(report.retained) < report.graph.n_items

    def test_k_clamped_to_catalog(self, independent_stream):
        reducer = InventoryReducer(k=10_000, variant="independent")
        with pytest.warns(RuntimeWarning, match="exceeds the catalog"):
            report = reducer.run(independent_stream)
        assert len(report.retained) == report.graph.n_items
        assert report.cover == pytest.approx(1.0)

    def test_k_clamp_recorded_in_report(self, independent_stream):
        reducer = InventoryReducer(k=10_000, variant="independent")
        with pytest.warns(RuntimeWarning):
            report = reducer.run(independent_stream)
        assert report.k_clamped_from == 10_000
        assert "10000" in report.summary()
        assert "clamped" in report.summary()

    def test_unclamped_k_not_flagged(self, independent_stream):
        reducer = InventoryReducer(k=10, variant="independent")
        report = reducer.run(independent_stream)
        assert report.k_clamped_from is None
        assert "clamped" not in report.summary()

    @pytest.mark.parametrize("k", [10, 10_000])
    def test_one_csr_conversion_per_run(self, independent_stream, monkeypatch, k):
        # The build emits the graph in bulk form: its one CSR comes from
        # the arrays, and no dict graph is converted.
        conversions, built = [], []
        original = CSRGraph.from_preference_graph.__func__
        init = CSRGraph.__init__

        def counting(cls, graph):
            conversions.append(graph)
            return original(cls, graph)

        def recording(csr, *args):
            built.append(csr)
            init(csr, *args)

        monkeypatch.setattr(
            CSRGraph, "from_preference_graph", classmethod(counting)
        )
        monkeypatch.setattr(CSRGraph, "__init__", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # k clamp
            report = InventoryReducer(k=k).run(independent_stream)
        assert conversions == []
        assert len(built) == 1
        assert report.graph.to_csr() is built[0]
        assert report.graph._arrays is not None

    def test_stream_encoded_once_per_run(self, independent_stream, encodings):
        stream = Clickstream(list(independent_stream))
        report = InventoryReducer(k=10).run(stream)
        assert report.recommendation is not None
        assert len(encodings) == 1

    def test_fixed_variant_skips_recommendation(self, independent_stream):
        reducer = InventoryReducer(k=10, variant="independent")
        report = reducer.run(independent_stream)
        assert report.recommendation is None


class TestRunGraph:
    def test_solves_prebuilt_graph(self, figure1):
        reducer = InventoryReducer(k=2, variant="normalized")
        report = reducer.run_graph(figure1, "normalized")
        assert report.retained == ["B", "D"]
        assert report.cover == pytest.approx(0.873)

    def test_invalid_graph_rejected(self):
        from repro.core.graph import PreferenceGraph

        bad = PreferenceGraph.from_weights({"a": 0.4, "b": 0.4})
        reducer = InventoryReducer(k=1, variant="independent")
        from repro.errors import GraphValidationError

        with pytest.raises(GraphValidationError):
            reducer.run_graph(bad, "independent")

    def test_invalid_variant_rejected(self, figure1):
        reducer = InventoryReducer(k=2, variant="normalized")
        with pytest.raises(ValueError, match="unknown Preference Cover"):
            reducer.run_graph(figure1, "bogus")

    def test_threshold_with_constraints_rejected(self):
        with pytest.raises(SolverError, match="fixed-k"):
            InventoryReducer(threshold=0.5, must_retain=["a"])
        with pytest.raises(SolverError, match="fixed-k"):
            InventoryReducer(threshold=0.5, exclude=["b"])

    def test_run_graph_clamp_and_interrupt_surface(self, figure1):
        from repro.resilience import RunGuard

        reducer = InventoryReducer(
            k=100,
            variant="normalized",
            guard=RunGuard(deadline_s=0, on_trigger="partial"),
        )
        with pytest.warns(RuntimeWarning, match="exceeds the catalog"):
            report = reducer.run_graph(figure1, "normalized")
        assert report.k_clamped_from == 100
        assert report.result.interrupted
        assert len(report.retained) == 1  # one round, then the guard trips
        assert "interrupted" in report.summary()
        assert "deadline" in report.summary()


class TestReport:
    def test_item_table(self, figure1):
        reducer = InventoryReducer(k=2, variant="normalized")
        report = reducer.run_graph(figure1, "normalized")
        rows = report.item_table()
        assert len(rows) == 5
        # Sorted by request probability descending: A first.
        assert rows[0].item == "A"
        by_item = {row.item: row for row in rows}
        assert by_item["B"].retained and by_item["D"].retained
        assert by_item["A"].coverage == pytest.approx(2 / 3)
        assert by_item["C"].coverage == pytest.approx(1.0)
        assert not by_item["C"].retained

    def test_summary_mentions_key_facts(self, independent_stream):
        reducer = InventoryReducer(k=15)
        report = reducer.run(independent_stream)
        text = report.summary()
        assert "independent" in text
        assert "15" in text
        assert "variant selection" in text

    def test_summary_without_recommendation(self, figure1):
        reducer = InventoryReducer(k=2, variant="normalized")
        report = reducer.run_graph(figure1, "normalized")
        assert "variant selection" not in report.summary()


class TestPipelineQuality:
    def test_pipeline_beats_top_sellers(self, independent_stream):
        # The headline claim, end to end: greedy over the adapted graph
        # covers more than the naive top-selling baseline.
        from repro.core.baselines import top_k_weight_solve

        reducer = InventoryReducer(k=15, variant="independent")
        report = reducer.run(independent_stream)
        baseline = top_k_weight_solve(report.graph, 15, "independent")
        assert report.cover >= baseline.cover
