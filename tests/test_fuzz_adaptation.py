"""Fuzz tests: arbitrary session structures never break the adapters.

Hypothesis generates unconstrained session shapes (any mix of int and
str ids, repeated clicks, clicks on the purchased item, browse-only
sessions, purchases without alternatives) and asserts that the batch
engine, the online engine and the variant selector either produce a
*valid* preference graph or raise the documented
:class:`~repro.errors.AdaptationError` — never anything else.

The second half pins the array implementations of ``normalized_fit``,
``independence_score`` and ``DataAdaptationEngine.build_graph`` to the
per-session loops below, which are the straightforward reading of the
paper's Section 5.2 construction.  They must agree exactly: the same
floats, the same item and edge order, the same tracer output and the
same errors.  So must the columnar encoding of a ``Clickstream`` and
``PurchaseEncoding.from_sessions``, and ``observe_all`` on a stream and
one ``observe`` per session.
"""

from __future__ import annotations

import random
import tempfile
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptation.engine import AdaptationConfig, DataAdaptationEngine
from repro.adaptation.online import OnlineAdaptationEngine
from repro.adaptation.variant_selection import (
    _pair_nmi,
    independence_score,
    normalized_fit,
    recommend_variant,
)
from repro.clickstream.io import read_jsonl, write_jsonl
from repro.clickstream.models import Clickstream, PurchaseEncoding, Session
from repro.core.graph import PreferenceGraph
from repro.core.variants import Variant
from repro.errors import AdaptationError
from repro.observability import SolverTrace
from repro.workloads.datasets import build_dataset

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: int and str ids; no bools, which would compare equal to 0 and 1.
ITEM_IDS = st.one_of(
    st.integers(min_value=0, max_value=7),
    st.sampled_from([f"item{i}" for i in range(8)]),
)


#: Ids that compare equal without being the same value: 1, 1.0 and
#: True share a dict key, as do 0, 0.0 and False.
ALIASED_IDS = st.sampled_from(
    [0, 1, 2, 3, "a", "b", "c", 1.0, True, False, 0.0, 2.5]
)


@st.composite
def sessions(draw, session_id=0, ids=ITEM_IDS):
    clicks = draw(st.lists(ids, min_size=0, max_size=12))
    choices = [st.none(), ids]
    if clicks:
        choices.append(st.sampled_from(clicks))  # clicked its own purchase
    purchase = draw(st.one_of(*choices))
    return Session(session_id=session_id, clicks=tuple(clicks), purchase=purchase)


@st.composite
def session_lists(draw, max_size=30, ids=ITEM_IDS):
    n = draw(st.integers(min_value=0, max_value=max_size))
    return [draw(sessions(session_id=i, ids=ids)) for i in range(n)]


def clickstreams(max_size=30):
    return session_lists(max_size=max_size).map(Clickstream)


# ----------------------------------------------------------------------
# Reference implementations: one pass over the sessions, dicts keyed by
# item id.  Click-only items are kept in first-click order.
# ----------------------------------------------------------------------
def reference_normalized_fit(clickstream):
    total = 0
    at_most_one = 0
    for session in clickstream:
        if session.purchase is None:
            continue
        total += 1
        if len(session.alternatives()) <= 1:
            at_most_one += 1
    if total == 0:
        raise AdaptationError("clickstream contains no purchasing sessions")
    return at_most_one / total


def reference_independence_score(
    clickstream, *, min_purchases=5, max_pairs_per_item=50
):
    per_item_sessions = defaultdict(list)
    purchase_counts = Counter()
    for session in clickstream:
        if session.purchase is None:
            continue
        purchase_counts[session.purchase] += 1
        per_item_sessions[session.purchase].append(
            frozenset(session.alternatives())
        )

    weighted_sum = 0.0
    weight_total = 0.0
    for item, session_sets in per_item_sessions.items():
        if purchase_counts[item] < min_purchases:
            continue
        alternatives = sorted(
            {alt for clicked in session_sets for alt in clicked}, key=repr
        )
        if len(alternatives) < 2:
            continue
        pair_values = []
        for b, c in combinations(alternatives, 2):
            n11 = n10 = n01 = n00 = 0
            for clicked in session_sets:
                b_in = b in clicked
                c_in = c in clicked
                if b_in and c_in:
                    n11 += 1
                elif b_in:
                    n10 += 1
                elif c_in:
                    n01 += 1
                else:
                    n00 += 1
            pair_values.append(_pair_nmi(n11, n10, n01, n00))
            if len(pair_values) >= max_pairs_per_item:
                break
        if not pair_values:
            continue
        item_score = sum(pair_values) / len(pair_values)
        weighted_sum += purchase_counts[item] * item_score
        weight_total += purchase_counts[item]

    if weight_total == 0.0:
        return None
    return weighted_sum / weight_total


def reference_build_graph(config, clickstream, tracer=None):
    purchase_counts = Counter()
    click_mass = defaultdict(float)
    session_support = Counter()
    click_only_items = {}
    n_sessions = 0

    for session in clickstream:
        n_sessions += 1
        if session.purchase is None:
            continue
        desired = session.purchase
        purchase_counts[desired] += 1
        alternatives = session.alternatives()
        if not alternatives:
            continue
        if config.variant is Variant.NORMALIZED:
            weight = 1.0 / len(alternatives)
        else:
            weight = 1.0
        for clicked in alternatives:
            click_mass[(desired, clicked)] += weight
            session_support[(desired, clicked)] += 1
            click_only_items[clicked] = None

    total_purchases = sum(purchase_counts.values())
    if total_purchases == 0:
        raise AdaptationError(
            "clickstream contains no purchasing sessions; cannot "
            "estimate item popularity"
        )

    graph = PreferenceGraph()
    for item, count in purchase_counts.items():
        graph.add_item(item, count / total_purchases)
    if config.include_unpurchased:
        for item in click_only_items:
            if item not in graph:
                graph.add_item(item, 0.0)

    edges_kept = 0
    for (desired, clicked), mass in click_mass.items():
        if clicked not in graph or desired not in graph:
            continue
        if session_support[(desired, clicked)] < config.min_edge_sessions:
            continue
        weight = config.correction_factor * mass / (
            purchase_counts[desired] + config.laplace_alpha
        )
        if weight <= config.min_edge_weight:
            continue
        graph.add_edge(desired, clicked, min(weight, 1.0))
        edges_kept += 1
    if tracer is not None:
        tracer.incr("adaptation.sessions", n_sessions)
        tracer.incr("adaptation.purchasing_sessions", total_purchases)
        tracer.incr("adaptation.candidate_edges", len(click_mass))
        tracer.incr("adaptation.edges_kept", edges_kept)
        tracer.incr("adaptation.items", graph.n_items)
        tracer.event(
            "adaptation.graph_built", items=graph.n_items,
            edges=edges_kept, sessions=n_sessions,
            purchasing_sessions=total_purchases,
        )
    return graph


# ----------------------------------------------------------------------
# Exact-agreement helpers
# ----------------------------------------------------------------------
def graph_layout(graph):
    """Item order, node weights and edge order on both adjacency sides."""
    return (
        [(item, graph.node_weight(item)) for item in graph.items()],
        [(item, list(graph._out[item].items())) for item in graph.items()],
        [(item, list(graph._in[item].items())) for item in graph.items()],
        graph.n_edges,
    )


def tracer_output(tracer):
    return (
        [(event.kind, event.data) for event in tracer.events],
        tracer.metrics.snapshot()["counters"],
    )


def outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except AdaptationError as exc:
        return ("error", type(exc), str(exc))


def assert_build_matches(config, stream):
    reference_tracer, tracer = SolverTrace(), SolverTrace()
    expected = outcome(reference_build_graph, config, stream, reference_tracer)
    got = outcome(
        DataAdaptationEngine(config).build_graph, stream, tracer=tracer
    )
    if expected[0] == "ok":
        assert got[0] == "ok"
        assert graph_layout(got[1]) == graph_layout(expected[1])
    else:
        assert got == expected
    assert tracer_output(tracer) == tracer_output(reference_tracer)


def assert_fitness_matches(stream, **kwargs):
    assert outcome(normalized_fit, stream) == outcome(
        reference_normalized_fit, stream
    )
    assert independence_score(stream, **kwargs) == (
        reference_independence_score(stream, **kwargs)
    )


CONFIGS = (
    {},
    {"include_unpurchased": True},
    {"min_edge_sessions": 2},
    {"min_edge_weight": 0.3},
    {"correction_factor": 0.7},
    {"laplace_alpha": 1.5},
    {"include_unpurchased": True, "min_edge_sessions": 2,
     "min_edge_weight": 0.05, "correction_factor": 0.9,
     "laplace_alpha": 0.5},
)


class TestFuzzBatchEngine:
    @SETTINGS
    @given(clickstreams(), st.sampled_from(list(Variant)))
    def test_output_always_valid_or_documented_error(self, stream, variant):
        engine = DataAdaptationEngine(AdaptationConfig(variant=variant))
        try:
            graph = engine.build_graph(stream)
        except AdaptationError:
            assert stream.n_purchases == 0
            return
        graph.validate(variant)

    @SETTINGS
    @given(clickstreams())
    def test_node_weights_are_purchase_shares(self, stream):
        try:
            graph = DataAdaptationEngine().build_graph(stream)
        except AdaptationError:
            return
        counts = stream.purchase_counts()
        total = sum(counts.values())
        for item in graph.items():
            assert graph.node_weight(item) == pytest.approx(
                counts[item] / total
            )


class TestFuzzOnlineEngine:
    @SETTINGS
    @given(
        clickstreams(),
        st.sampled_from(list(Variant)),
        st.sampled_from(CONFIGS),
    )
    def test_online_equals_batch(self, stream, variant, options):
        config = AdaptationConfig(variant=variant, **options)
        online = OnlineAdaptationEngine(config)
        online.observe_all(stream)
        batch_error = online_error = None
        try:
            batch = DataAdaptationEngine(config).build_graph(stream)
        except AdaptationError as exc:
            batch_error = exc
        try:
            snapshot = online.snapshot()
        except AdaptationError as exc:
            online_error = exc
        assert (batch_error is None) == (online_error is None)
        if batch_error is None:
            assert list(snapshot.items()) == list(batch.items())
            assert list(snapshot.edges()) == list(batch.edges())


class TestFuzzVariantSelection:
    @SETTINGS
    @given(clickstreams())
    def test_recommendation_never_crashes(self, stream):
        try:
            recommendation = recommend_variant(stream)
        except AdaptationError:
            assert stream.n_purchases == 0
            return
        assert recommendation.variant in (
            Variant.INDEPENDENT, Variant.NORMALIZED
        )
        assert 0.0 <= recommendation.normalized_fit <= 1.0
        if recommendation.independence_score is not None:
            assert 0.0 <= recommendation.independence_score <= 1.0


# ----------------------------------------------------------------------
# The array implementations agree exactly with the references
# ----------------------------------------------------------------------
def wide_stream(seed, *, n_sessions=60, n_alternatives=16):
    """Streams whose hub items have more than 11 alternatives.

    Twelve alternatives already give 66 pairs, so the default cap of 50
    pairs per item binds.  Alternatives are clicked before some are
    first purchased, so code order and purchase order differ.
    """
    rng = random.Random(seed)
    pool = [f"alt{i}" for i in range(n_alternatives)] + list(range(6))
    hubs = ["hub", 7, "alt3"]
    sessions = []
    for i in range(n_sessions):
        purchase = rng.choice(hubs + [None])
        clicks = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
        if purchase is not None and rng.random() < 0.2:
            clicks.append(purchase)
        sessions.append(Session(i, tuple(clicks), purchase))
    return Clickstream(sessions)


class TestArrayImplementationsMatchReference:
    @SETTINGS
    @given(
        clickstreams(max_size=60),
        st.sampled_from([1, 2, 5]),
        st.sampled_from([1, 3, 50]),
    )
    def test_fitness_tests(self, stream, min_purchases, max_pairs):
        assert_fitness_matches(
            stream, min_purchases=min_purchases,
            max_pairs_per_item=max_pairs,
        )

    @SETTINGS
    @given(
        clickstreams(max_size=60),
        st.sampled_from(list(Variant)),
        st.sampled_from(CONFIGS),
    )
    def test_build_graph(self, stream, variant, options):
        assert_build_matches(AdaptationConfig(variant=variant, **options), stream)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_pairs", [0, 1, 3, 50])
    def test_wide_items_hit_the_pair_cap(self, seed, max_pairs):
        stream = wide_stream(seed)
        alternatives = {
            alt for session in stream if session.purchase == "hub"
            for alt in session.alternatives()
        }
        assert len(alternatives) * (len(alternatives) - 1) // 2 > 50
        for min_purchases in (1, 5):
            assert_fitness_matches(
                stream, min_purchases=min_purchases,
                max_pairs_per_item=max_pairs,
            )

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("options", CONFIGS)
    def test_wide_build_graph(self, variant, options):
        for seed in range(3):
            assert_build_matches(
                AdaptationConfig(variant=variant, **options), wide_stream(seed)
            )

    def test_no_purchases(self):
        stream = Clickstream([Session(0, ("a", "b")), Session(1, ())])
        assert_fitness_matches(stream)
        for variant in Variant:
            assert_build_matches(AdaptationConfig(variant=variant), stream)
        assert_build_matches(AdaptationConfig(), Clickstream([]))


@pytest.fixture(scope="module", params=["PE", "YC"])
def dataset_stream(request):
    stream, _model = build_dataset(request.param, scale=0.005, seed=3)
    return stream


class TestDatasetsMatchReference:
    def test_fitness_tests(self, dataset_stream):
        assert_fitness_matches(dataset_stream)
        assert_fitness_matches(dataset_stream, max_pairs_per_item=3)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("options", CONFIGS)
    def test_build_graph(self, dataset_stream, variant, options):
        assert_build_matches(
            AdaptationConfig(variant=variant, **options), dataset_stream
        )

    def test_recommendation_uses_both_fitness_tests(self, dataset_stream):
        recommendation = recommend_variant(dataset_stream)
        assert recommendation.normalized_fit == reference_normalized_fit(
            dataset_stream
        )
        assert recommendation.independence_score == (
            reference_independence_score(dataset_stream)
        )


# ----------------------------------------------------------------------
# The columnar clickstream agrees with the per-session references
# ----------------------------------------------------------------------
def typed(value):
    """``value`` with its type, so ``1``, ``1.0`` and ``True`` differ."""
    if isinstance(value, tuple):
        return tuple(typed(part) for part in value)
    return (type(value), value)


def encoding_layout(encoding):
    return (
        typed(encoding.items),
        [
            (name, array.dtype, array.tolist()) for name, array in (
                ("purchase", encoding.purchase),
                ("offsets", encoding.offsets),
                ("alternatives", encoding.alternatives),
            )
        ],
    )


def session_layout(sessions):
    return [
        (typed(s.session_id), typed(s.clicks), typed(s.purchase))
        for s in sessions
    ]


def round_trip(sessions):
    """``sessions`` written by ``write_jsonl`` and read back."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "stream.jsonl"
        write_jsonl(Clickstream(sessions), path)
        return read_jsonl(path)


class TestColumnarEncodingMatchesReference:
    @SETTINGS
    @given(st.one_of(
        session_lists(max_size=40),
        session_lists(max_size=40, ids=ALIASED_IDS),
    ))
    def test_from_sessions_and_from_jsonl(self, sessions):
        expected = encoding_layout(PurchaseEncoding.from_sessions(sessions))
        for stream in (Clickstream(sessions), round_trip(sessions)):
            assert session_layout(stream) == session_layout(sessions)
            assert [stream[i] for i in range(len(stream))] == sessions
            assert encoding_layout(stream.encoding()) == expected

    def test_dataset(self, dataset_stream):
        sessions = list(dataset_stream)
        assert encoding_layout(dataset_stream.encoding()) == encoding_layout(
            PurchaseEncoding.from_sessions(sessions)
        )

    def test_equal_ids_from_jsonl(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"session_id": "b1", "clicks": [1.0, "x"], "purchase": null}\n'
            '{"session_id": "p1", "clicks": [true, "y", 1], "purchase": "x"}\n'
            '{"session_id": "p2", "clicks": ["x", 1.0], "purchase": 1}\n'
            '{"session_id": "b2", "clicks": [0.0, true]}\n'
            '{"session_id": "p3", "clicks": [], "purchase": 1.0}\n'
            '{"session_id": "p4", "clicks": [false, 0, 0.0, "y", 1], '
            '"purchase": true}\n'
        )
        stream = read_jsonl(path)
        # The first of each equal group in (purchase, alternatives) order
        # names the code; read order would pick 1.0 and 0.0 instead.
        assert encoding_layout(stream.encoding()) == (
            typed(("x", True, "y", False)),
            [
                ("purchase", np.dtype(np.int32), [0, 1, 1, 1]),
                ("offsets", np.dtype(np.int64), [0, 2, 3, 3, 5]),
                ("alternatives", np.dtype(np.int32), [1, 2, 0, 3, 2]),
            ],
        )
        assert typed(tuple(stream.items())) == typed((1.0, "x", "y", 0.0))
        counts = stream.purchase_counts()
        assert typed(tuple(counts)) == typed(("x", 1))
        assert list(counts.values()) == [1, 3]
        assert session_layout(stream)[5] == typed(
            ("p4", (False, 0, 0.0, "y", 1), True)
        )
        assert encoding_layout(stream.encoding()) == encoding_layout(
            PurchaseEncoding.from_sessions(list(stream))
        )


def engine_state(engine):
    """Every statistic of an online engine: keys with types, bitwise values."""
    return (
        [(typed(k), v.hex()) for k, v in engine._purchases.items()],
        [(typed(k), v.hex()) for k, v in engine._click_mass.items()],
        [(typed(k), v.hex()) for k, v in engine._session_support.items()],
        [typed(k) for k in engine._click_only],
        engine.observed_sessions,
    )


def snapshot_layout(engine):
    try:
        graph = engine.snapshot()
    except AdaptationError as exc:
        return ("error", str(exc))
    return (
        [(typed(item), graph.node_weight(item).hex()) for item in graph.items()],
        [(typed(s), typed(t), w.hex()) for s, t, w in graph.edges()],
    )


def assert_fold_matches(config, decay, periods):
    """observe_all per period == observe per session, with decay between."""
    folded = OnlineAdaptationEngine(config, decay=decay)
    stepped = OnlineAdaptationEngine(config, decay=decay)
    for period in periods:
        folded.new_period()
        stepped.new_period()
        folded.observe_all(Clickstream(period))
        for session in period:
            stepped.observe(session)
    assert engine_state(folded) == engine_state(stepped)
    assert snapshot_layout(folded) == snapshot_layout(stepped)


class TestObserveAllMatchesObserve:
    @SETTINGS
    @given(
        st.lists(
            st.one_of(
                session_lists(max_size=20),
                session_lists(max_size=20, ids=ALIASED_IDS),
            ),
            min_size=1, max_size=4,
        ),
        st.sampled_from(list(Variant)),
        st.sampled_from([1.0, 0.5, 0.3]),
        st.sampled_from(CONFIGS),
    )
    def test_fold(self, periods, variant, decay, options):
        assert_fold_matches(
            AdaptationConfig(variant=variant, **options), decay, periods
        )

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("decay", [1.0, 0.5, 0.3])
    def test_dataset_in_periods(self, dataset_stream, variant, decay):
        sessions = list(dataset_stream)
        cuts = [0, len(sessions) // 2, 3 * len(sessions) // 4, len(sessions)]
        periods = [sessions[a:b] for a, b in zip(cuts, cuts[1:])]
        assert_fold_matches(AdaptationConfig(variant=variant), decay, periods)

    def test_folds_without_sessions(self, dataset_stream, monkeypatch):
        def no_sessions(*args, **kwargs):
            raise AssertionError("observe_all built a Session")

        stream = Clickstream(list(dataset_stream))
        monkeypatch.setattr(Session, "__init__", no_sessions)
        engine = OnlineAdaptationEngine()
        engine.observe_all(stream)
        assert engine.observed_sessions == len(stream)

