"""Fuzz tests: arbitrary session structures never break the adapters.

Hypothesis generates unconstrained session shapes (any mix of int and
str ids, repeated clicks, clicks on the purchased item, browse-only
sessions, purchases without alternatives) and asserts that the batch
engine, the online engine and the variant selector either produce a
*valid* preference graph or raise the documented
:class:`~repro.errors.AdaptationError` — never anything else.

The second half pins the array implementations of ``normalized_fit``,
``independence_score``, ``DataAdaptationEngine.build_graph`` and the
online engine to the per-session loops and the dict engine
(``ReferenceOnlineEngine``) below, which are the straightforward
reading of the paper's Section 5.2 construction.  They must agree
exactly: the same floats, the same item names, item and edge order,
the same tracer output and the same errors.  So must the columnar
encoding of a ``Clickstream`` and ``reference_encoding``, and
``observe_all`` on a stream and one ``observe`` per session.
"""

from __future__ import annotations

import random
import tempfile
from collections import Counter, defaultdict
from itertools import chain, combinations, repeat
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
from repro.clickstream.models import (
    Clickstream,
    PurchaseEncoding,
    Session,
    _code_dtype,
)
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


def clickstreams(max_size=30, ids=ITEM_IDS):
    return session_lists(max_size=max_size, ids=ids).map(Clickstream)


def any_clickstreams(max_size=30):
    """Streams of int and str ids, or of ids that alias one another."""
    return st.one_of(
        clickstreams(max_size), clickstreams(max_size, ids=ALIASED_IDS)
    )


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


def reference_encoding(sessions):
    """The ``PurchaseEncoding`` of ``sessions``, calling
    ``Session.alternatives`` once each: what ``Clickstream.encoding``
    computes from its columns."""
    sequence = []  # purchase, then alternatives, per row
    lengths = []
    for session in sessions:
        purchase = session.purchase
        if purchase is None:
            continue
        alternatives = session.alternatives()
        sequence.append(purchase)
        sequence.extend(alternatives)
        lengths.append(len(alternatives))
    index = dict.fromkeys(sequence)
    for code, item in enumerate(index):
        index[item] = code
    codes = np.fromiter(
        map(index.__getitem__, sequence), dtype=_code_dtype(len(index)),
        count=len(sequence),
    )
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.array(lengths, dtype=np.int64), out=offsets[1:])
    is_alternative = np.ones(codes.size, dtype=bool)
    rows = offsets[:-1] + np.arange(len(lengths))  # purchase positions
    is_alternative[rows] = False
    return PurchaseEncoding(
        tuple(index), codes[rows], offsets, codes[is_alternative]
    )


def _plus_ones(value, n):
    """``value`` after ``n`` running ``+= 1.0`` steps (exact while integer)."""
    if value.is_integer() and value + n <= float(2 ** 53):
        return value + n
    for _ in range(n):
        value += 1.0
    return value


class ReferenceOnlineEngine:
    """The online engine on dict statistics keyed by item id.

    ``observe`` adds to the dicts one session at a time; ``observe_all``
    folds a stream from its encoding, one step per item and per pair;
    ``snapshot`` maps the pair keys through an ``{item: index}`` dict.
    """

    def __init__(self, config=None, *, decay=1.0):
        if not (0.0 < decay <= 1.0):
            raise AdaptationError(f"decay must be in (0, 1], got {decay}")
        self.config = config or AdaptationConfig()
        self.decay = decay
        self._purchases = defaultdict(float)
        self._click_mass = defaultdict(float)
        self._session_support = defaultdict(float)
        self._click_only = {}  # every clicked item, in first-click order
        self.observed_sessions = 0

    def observe(self, session):
        self.observed_sessions += 1
        if session.purchase is None:
            return
        desired = session.purchase
        self._purchases[desired] += 1.0
        alternatives = session.alternatives()
        if not alternatives:
            return
        if self.config.variant is Variant.NORMALIZED:
            weight = 1.0 / len(alternatives)
        else:
            weight = 1.0
        for clicked in alternatives:
            self._click_mass[(desired, clicked)] += weight
            self._session_support[(desired, clicked)] += 1.0
            self._click_only[clicked] = None

    def observe_all(self, sessions):
        if isinstance(sessions, Clickstream) and not sessions.aliased:
            self._fold(sessions)
            return
        for session in sessions:
            self.observe(session)

    def _fold(self, stream):
        encoding = stream.encoding()
        self.observed_sessions += len(stream)
        items = encoding.items
        counts = encoding.purchase_counts().tolist()
        purchases = self._purchases
        for code in encoding.first_purchase_order().tolist():
            item = items[code]
            purchases[item] = _plus_ones(
                purchases.get(item, 0.0), counts[code]
            )
        pairs = encoding.pairs()
        keys = [
            (items[source], items[target]) for source, target in zip(
                pairs.source.tolist(), pairs.target.tolist()
            )
        ]
        supports = pairs.support.tolist()
        mass, support = self._click_mass, self._session_support
        normalized = self.config.variant is Variant.NORMALIZED
        for j in np.argsort(pairs.first).tolist():  # first-occurrence order
            key = keys[j]
            support[key] = _plus_ones(support.get(key, 0.0), supports[j])
            if not normalized:
                mass[key] = _plus_ones(mass.get(key, 0.0), supports[j])
        if normalized:
            lengths = encoding.lengths()
            lengths = lengths[lengths > 0]
            shares = np.repeat(1.0 / lengths, lengths).tolist()
            for j, share in zip(pairs.entry_pair.tolist(), shares):
                key = keys[j]
                mass[key] = mass.get(key, 0.0) + share
        codes, first = np.unique(encoding.alternatives, return_index=True)
        codes = codes[np.argsort(first)].tolist()
        self._click_only.update(dict.fromkeys(map(items.__getitem__, codes)))

    def new_period(self):
        if self.decay >= 1.0:
            return
        for key in list(self._purchases):
            self._purchases[key] *= self.decay
        for key in list(self._click_mass):
            self._click_mass[key] *= self.decay
            self._session_support[key] *= self.decay

    def snapshot(self):
        config = self.config
        total = sum(self._purchases.values())
        if total <= 0:
            raise AdaptationError(
                "no purchasing sessions observed yet; cannot snapshot"
            )
        items = list(self._purchases)
        counts = np.fromiter(self._purchases.values(), np.float64, len(items))
        node_weight = counts / total
        if config.include_unpurchased:
            items += [
                item for item in self._click_only
                if item not in self._purchases
            ]
            node_weight = np.concatenate(
                (node_weight, np.zeros(len(items) - counts.size))
            )
        index = dict(zip(items, range(len(items))))
        pairs = self._click_mass
        m = len(pairs)
        ends = np.fromiter(
            map(index.get, chain.from_iterable(pairs), repeat(-1)),
            np.int64, 2 * m,
        )
        src, dst = ends[0::2], ends[1::2]
        mass = np.fromiter(pairs.values(), np.float64, m)
        support = np.fromiter(self._session_support.values(), np.float64, m)
        kept = (src >= 0) & (dst >= 0) & ~(support < config.min_edge_sessions)
        src, dst = src[kept], dst[kept]
        weight = config.correction_factor * mass[kept] / (
            counts[src] + config.laplace_alpha
        )
        kept = ~(weight <= config.min_edge_weight)
        return PreferenceGraph._from_arrays(
            items, node_weight, src[kept], dst[kept],
            np.minimum(weight[kept], 1.0), index,
        )


# ----------------------------------------------------------------------
# Exact-agreement helpers
# ----------------------------------------------------------------------
def graph_layout(graph):
    """Typed item order, node weights and edge order on both adjacency
    sides, bitwise.  An edge's far end is named by its item: a dict
    graph may key it by an equal alias (``1.0`` for the item ``1``).
    """
    items = list(graph.items())
    name = dict(zip(items, items))

    def side(adjacency, item):
        return [(typed(name[other]), weight.hex())
                for other, weight in adjacency[item].items()]

    return (
        [(typed(item), graph.node_weight(item).hex()) for item in items],
        [(typed(item), side(graph._out, item)) for item in items],
        [(typed(item), side(graph._in, item)) for item in items],
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
        any_clickstreams(),
        st.sampled_from(list(Variant)),
        st.sampled_from(CONFIGS),
    )
    def test_online_equals_batch(self, stream, variant, options):
        # The batch build is a fold into the same engine: compare with
        # the per-session reference instead.
        config = AdaptationConfig(variant=variant, **options)
        online = OnlineAdaptationEngine(config)
        online.observe_all(stream)
        batch = outcome(reference_build_graph, config, stream)
        snapshot = outcome(online.snapshot)
        assert batch[0] == snapshot[0]
        if batch[0] == "ok":
            assert graph_layout(snapshot[1]) == graph_layout(batch[1])


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
        any_clickstreams(max_size=60),
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

    def test_alias_is_named_as_first_purchased(self):
        # 1.0 is seen first, as a click; 1 is the first purchase.
        stream = Clickstream([
            Session("s1", ("a", 1.0), "a"), Session("s2", ("b",), 1),
            Session("s3", ("a",), True),
        ])
        graph = DataAdaptationEngine().build_graph(stream)
        assert typed(tuple(graph.items())) == typed(("a", 1))
        assert_build_matches(AdaptationConfig(), stream)


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
        expected = encoding_layout(reference_encoding(sessions))
        for stream in (Clickstream(sessions), round_trip(sessions)):
            assert session_layout(stream) == session_layout(sessions)
            assert [stream[i] for i in range(len(stream))] == sessions
            assert encoding_layout(stream.encoding()) == expected

    def test_dataset(self, dataset_stream):
        sessions = list(dataset_stream)
        assert encoding_layout(dataset_stream.encoding()) == encoding_layout(
            reference_encoding(sessions)
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
            reference_encoding(list(stream))
        )


def engine_state(engine):
    """Every statistic of an online engine, as the reference keeps them:
    purchased and click-only items with their types, pairs (equal ids
    are one pair) and bitwise values, all in order."""
    if isinstance(engine, ReferenceOnlineEngine):
        bought = engine._purchases
        counts = list(bought.values())
        support = engine._session_support
        pairs = [(key, mass, support[key])
                 for key, mass in engine._click_mass.items()]
        clicked = engine._click_only
    else:
        bought = engine._purchased
        counts = engine._counts[engine._bought].tolist()
        ids = list(engine._code)  # by code: the id first seen
        pairs = [
            ((ids[key >> 32], ids[key & 0xFFFFFFFF]), mass, support)
            for key, mass, support in zip(
                engine._keys.tolist(), engine._mass.tolist(),
                engine._support.tolist(),
            )
        ]
        clicked = engine._clicked_as
    return (
        [(typed(item), count.hex()) for item, count in zip(bought, counts)],
        [(pair, mass.hex(), support.hex()) for pair, mass, support in pairs],
        [typed(item) for item in clicked if item not in bought],
        engine.observed_sessions,
    )


def snapshot_layout(engine):
    """The engine's snapshot as a typed layout, or its error."""
    try:
        graph = engine.snapshot()
    except AdaptationError as exc:
        return ("error", str(exc))
    return graph_layout(graph)


def assert_engines_match(engine, reference):
    assert engine_state(engine) == engine_state(reference)
    assert snapshot_layout(engine) == snapshot_layout(reference)


#: How a fold reaches an engine: one stream, a list of sessions, or one
#: ``observe`` per session.
FEEDS = ("stream", "list", "sessions")


def feed(engine, sessions, how):
    if how == "stream":
        engine.observe_all(Clickstream(sessions))
    elif how == "list":
        engine.observe_all(sessions)
    else:
        for session in sessions:
            engine.observe(session)


def assert_fold_matches(config, decay, periods, how="sessions"):
    """observe_all per period == the same sessions fed ``how`` == the
    reference observing one session at a time, with decay between
    periods."""
    folded = OnlineAdaptationEngine(config, decay=decay)
    stepped = OnlineAdaptationEngine(config, decay=decay)
    reference = ReferenceOnlineEngine(config, decay=decay)
    for period in periods:
        for engine in (folded, stepped, reference):
            engine.new_period()
        folded.observe_all(Clickstream(period))
        feed(stepped, period, how)
        feed(reference, period, "sessions")
    assert_engines_match(folded, reference)
    assert_engines_match(stepped, reference)


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
        # The array engine gets each period as a list: one observe() per
        # session would fold ~50k one-session streams, each copying
        # every statistic.  The reference still steps session by session.
        assert_fold_matches(
            AdaptationConfig(variant=variant), decay, periods, how="list"
        )

    def test_folds_without_sessions(self, dataset_stream, monkeypatch):
        def no_sessions(*args, **kwargs):
            raise AssertionError("observe_all built a Session")

        stream = Clickstream(list(dataset_stream))
        monkeypatch.setattr(Session, "__init__", no_sessions)
        engine = OnlineAdaptationEngine()
        engine.observe_all(stream)
        assert engine.observed_sessions == len(stream)


@pytest.fixture(scope="module", params=[3, 8])
def pe_folds(request):
    """The PE stand-in cut as ``serve_pe`` cuts it: half, then 20 parts."""
    stream, _ = build_dataset("PE", scale=0.01, seed=request.param)
    sessions = list(stream)
    half = len(sessions) // 2
    cuts = np.linspace(half, len(sessions), 21).astype(int).tolist()
    return [Clickstream(sessions[:half])] + [
        Clickstream(sessions[a:b]) for a, b in zip(cuts, cuts[1:])
    ]


class TestArrayEngineMatchesReference:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    session_lists(max_size=20),
                    session_lists(max_size=20, ids=ALIASED_IDS),
                ),
                st.sampled_from(FEEDS),
            ),
            min_size=1, max_size=4,
        ),
        st.sampled_from(list(Variant)),
        st.sampled_from([1.0, 0.5, 0.3]),
        st.sampled_from(CONFIGS),
    )
    def test_every_fold(self, folds, variant, decay, options):
        config = AdaptationConfig(variant=variant, **options)
        engine = OnlineAdaptationEngine(config, decay=decay)
        reference = ReferenceOnlineEngine(config, decay=decay)
        for index, (sessions, how) in enumerate(folds):
            if index:
                engine.new_period()
                reference.new_period()
            feed(engine, sessions, how)
            feed(reference, sessions, how)
            assert_engines_match(engine, reference)

    @pytest.mark.parametrize("how", FEEDS)
    def test_alias_is_named_as_first_purchased_across_folds(self, how):
        # 1 is first clicked, then purchased as 1.0 in a later fold.
        engine, reference = OnlineAdaptationEngine(), ReferenceOnlineEngine()
        for fold in ([Session("s1", ("a", 1), "a")],
                     [Session("s2", ("b",), 1.0)]):
            feed(engine, fold, how)
            feed(reference, fold, how)
        assert typed(tuple(engine.snapshot().items())) == typed(("a", 1.0))
        assert_engines_match(engine, reference)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("decay", [1.0, 0.5])
    def test_pe_scale_folds(self, pe_folds, variant, decay):
        config = AdaptationConfig(variant=variant)
        engine = OnlineAdaptationEngine(config, decay=decay)
        reference = ReferenceOnlineEngine(config, decay=decay)
        for part in pe_folds:
            engine.new_period()
            reference.new_period()
            engine.observe_all(part)
            reference.observe_all(part)
            got, want = engine.snapshot()._arrays, reference.snapshot()._arrays
            assert typed(tuple(got.items)) == typed(tuple(want.items))
            for name in ("node_weight", "src", "dst", "weight"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
