"""The refresh path's bulk form agrees exactly with the dict path.

A :class:`PreferenceGraph` held in bulk form (items, a node-weight array
and the edges in insertion order) answers the refresh path without
building its dicts: the online engine's snapshot, the numpy
``graph_delta``, ``GraphDelta.apply_to`` merging into the arrays, and
``validate``/``to_csr``.  Each is pinned here to the dict path it
replaced, kept below (or reached by building the dicts first) as the
reference:

* the CSR of every bulk producer is bitwise equal to
  ``CSRGraph.from_preference_graph`` of the same graph built with
  ``add_item``/``add_edge``, and its dicts, once built, equal that
  graph's, ``_in`` order included;
* ``graph_delta`` gives the reference diff entry for entry and in order,
  including the error for a removed item;
* ``apply_to`` on a bulk graph equals ``apply_to`` on a dict-built copy,
  raises the same error for a bad entry, and leaves either graph as it
  was after one;
* a ``serve_pe``-shaped run serves the same answers as the same run
  with every graph's dicts built first, and a refresh period converts
  no dict graph to CSR and builds no dicts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adaptation.engine import AdaptationConfig
from repro.adaptation.online import OnlineAdaptationEngine
from repro.clickstream.drift import GraphDelta, graph_delta, random_delta
from repro.clickstream.models import Clickstream, Session
from repro.core import graph as graph_module
from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.core.variants import Variant
from repro.errors import AdaptationError, ClickstreamFormatError, ReproError
from repro.serving import AssortmentService, ServingRuntime
from repro.workloads.datasets import build_dataset

from tests.test_fuzz_adaptation import (
    ALIASED_IDS,
    CONFIGS,
    SETTINGS,
    ReferenceOnlineEngine,
    graph_layout,
    session_lists,
    typed,
)

CSR_ARRAYS = (
    "node_weight", "in_ptr", "in_src", "in_weight",
    "out_ptr", "out_dst", "out_weight",
)

#: Mixed int and str ids; no bools or floats, which alias ints.
POOL = list(range(8)) + [f"i{n}" for n in range(8)]


# ----------------------------------------------------------------------
# References: the dict paths the bulk form replaced
# ----------------------------------------------------------------------
def reference_graph_delta(old, new, *, sequence=0):
    """The per-item, per-edge diff over the dicts."""
    node_weights = {}
    for item in new.items():
        weight = new.node_weight(item)
        if item not in old or old.node_weight(item) != weight:
            node_weights[item] = weight
    for item in old.items():
        if item not in new:
            raise ClickstreamFormatError(
                f"delta feed cannot express removal of item {item!r}"
            )
    edge_updates = []
    edge_removals = []
    for source, target, weight in new.edges():
        if not old.has_edge(source, target) \
                or old.edge_weight(source, target) != weight:
            edge_updates.append((source, target, weight))
    for source, target, _ in old.edges():
        if not new.has_edge(source, target):
            edge_removals.append((source, target))
    return GraphDelta(
        node_weights=node_weights,
        edge_updates=tuple(edge_updates),
        edge_removals=tuple(edge_removals),
        sequence=sequence,
    )


def reference_snapshot(engine):
    """A ``ReferenceOnlineEngine``'s snapshot through add_item/add_edge."""
    config = engine.config
    total = sum(engine._purchases.values())
    if total <= 0:
        raise AdaptationError(
            "no purchasing sessions observed yet; cannot snapshot"
        )
    graph = PreferenceGraph()
    for item, count in engine._purchases.items():
        graph.add_item(item, count / total)
    if config.include_unpurchased:
        for item in engine._click_only:
            if item not in graph:
                graph.add_item(item, 0.0)
    for (desired, clicked), mass in engine._click_mass.items():
        if desired not in graph or clicked not in graph:
            continue
        support = engine._session_support[(desired, clicked)]
        if support < config.min_edge_sessions:
            continue
        weight = config.correction_factor * mass / (
            engine._purchases[desired] + config.laplace_alpha
        )
        if weight <= config.min_edge_weight:
            continue
        graph.add_edge(desired, clicked, min(weight, 1.0))
    return graph


def reference_to_preference_graph(csr):
    """``CSRGraph.to_preference_graph`` through add_item/add_edge."""
    graph = PreferenceGraph()
    for i, item in enumerate(csr.items):
        graph.add_item(item, float(csr.node_weight[i]))
    for v in range(csr.n_items):
        dsts, weights = csr.out_edges(v)
        for u, w in zip(dsts.tolist(), weights.tolist()):
            graph.add_edge(csr.items[v], csr.items[u], float(w))
    return graph


def dict_built(graph):
    """``graph`` rebuilt with add_item/add_edge in its insertion order."""
    arrays = graph._arrays
    if arrays is None:
        return graph.copy()
    rebuilt = PreferenceGraph()
    for item, weight in zip(arrays.items, arrays.node_weight.tolist()):
        rebuilt.add_item(item, weight)
    for source, target, weight in zip(
        arrays.src.tolist(), arrays.dst.tolist(), arrays.weight.tolist()
    ):
        rebuilt.add_edge(arrays.items[source], arrays.items[target], weight)
    return rebuilt


def with_dicts(graph):
    """``graph`` with its dicts built (a no-op on a dict-backed graph)."""
    graph._out  # noqa: B018 - reading the attribute builds the dicts
    assert graph._arrays is None
    return graph


def bulk(items, node_weights, edges):
    """A graph in bulk form over these entries, in this order."""
    index = {item: i for i, item in enumerate(items)}
    return PreferenceGraph._from_arrays(
        list(items),
        np.asarray(node_weights, dtype=np.float64),
        np.asarray([index[s] for s, _, _ in edges], dtype=np.int64),
        np.asarray([index[t] for _, t, _ in edges], dtype=np.int64),
        np.asarray([w for _, _, w in edges], dtype=np.float64),
        index,
    )


def assert_same_csr(got, want):
    for name in CSR_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == (
            np.float64 if "weight" in name else np.int64
        ), name
        assert a.tobytes() == b.tobytes(), name
    assert typed(tuple(got.items)) == typed(tuple(want.items))
    assert got.content_digest() == want.content_digest()


def assert_matches_dict_build(graph, reference):
    """``graph`` (any form) equals ``reference``, built with dicts."""
    assert_same_csr(as_csr(graph), CSRGraph.from_preference_graph(reference))
    assert graph_layout(with_dicts(graph.copy())) == graph_layout(reference)


def delta_layout(delta):
    return (
        [(typed(item), weight.hex())
         for item, weight in delta.node_weights.items()],
        [(typed(s), typed(t), w.hex()) for s, t, w in delta.edge_updates],
        [(typed(s), typed(t)) for s, t in delta.edge_removals],
        delta.sequence,
    )


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exact type and message are compared
        return ("error", type(exc), str(exc))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def graph_entries(draw, min_items=1, max_items=7):
    """Distinct items, node weights and edges in insertion order."""
    items = draw(st.lists(st.sampled_from(POOL), min_size=min_items,
                          max_size=max_items, unique=True))
    weights = draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.25, 0.3, 1 / 3, 0.5]),
        min_size=len(items), max_size=len(items),
    ))
    pairs = [(s, t) for s in items for t in items if s != t]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if pairs else []
    edges = [
        (s, t, draw(st.sampled_from([0.05, 0.2, 0.5, 0.7, 1.0])))
        for s, t in chosen
    ]
    return items, weights, edges


@st.composite
def deltas(draw, items, edges):
    """A delta over a graph with these items and edges: new items, new
    edges into new items, updates, removals, an update plus a removal
    of one edge, zero weights and, now and then, a bad entry."""
    fresh = [item for item in POOL if item not in items]
    added = draw(st.lists(st.sampled_from(fresh), unique=True, max_size=2)) \
        if fresh else []
    known = list(items) + added
    node_weights = {}
    for item in draw(st.lists(st.sampled_from(known), unique=True,
                              max_size=len(known))) + added:
        node_weights[item] = draw(st.sampled_from([0.0, 0.2, 0.45, 1.0]))
    pairs = [(s, t) for s in known for t in known if s != t]
    updates = [
        (s, t, draw(st.sampled_from([0.1, 0.3, 0.9, 1.0])))
        for s, t in (draw(st.lists(st.sampled_from(pairs), max_size=4))
                     if pairs else [])
    ]
    present = {(s, t) for s, t, _ in edges} | {(s, t) for s, t, _ in updates}
    removals = draw(st.lists(st.sampled_from(sorted(present, key=repr)),
                             unique=True, max_size=3)) if present else []
    bad = draw(st.sampled_from([
        None, None, None, "node_weight", "nan_weight", "unknown_source",
        "unknown_target", "self_edge", "edge_weight", "absent_removal",
        "removed_twice", "short_entry",
    ]))
    if bad == "node_weight":
        node_weights[draw(st.sampled_from(known))] = -0.5
    elif bad == "nan_weight":
        node_weights[draw(st.sampled_from(known))] = math.nan
    elif bad == "unknown_source":
        updates.insert(draw(st.integers(0, len(updates))),
                       ("ghost", known[0], 0.5))
    elif bad == "unknown_target":
        updates.append((known[0], "ghost", 0.5))
    elif bad == "self_edge":
        updates.append((known[0], known[0], 0.5))
    elif bad == "edge_weight":
        if len(known) > 1:
            updates.append((known[0], known[1],
                            draw(st.sampled_from([0.0, 1.5, math.nan]))))
    elif bad == "absent_removal":
        absent = [p for p in pairs if p not in present]
        if absent:
            removals.append(draw(st.sampled_from(absent)))
    elif bad == "removed_twice":
        if removals:
            removals.append(removals[0])
    elif bad == "short_entry":
        updates.append((known[0],))
    return GraphDelta(
        node_weights=node_weights,
        edge_updates=tuple(updates),
        edge_removals=tuple(removals),
    )


# ----------------------------------------------------------------------
# Bulk producers
# ----------------------------------------------------------------------
class TestBulkForm:
    @SETTINGS
    @given(graph_entries(min_items=0))
    def test_dicts_and_csr_equal_a_dict_build(self, entries):
        items, weights, edges = entries
        graph = bulk(items, weights, edges)
        assert graph._arrays is not None
        reference = PreferenceGraph()
        for item, weight in zip(items, weights):
            reference.add_item(item, weight)
        for source, target, weight in edges:
            reference.add_edge(source, target, weight)
        assert (graph.n_items, graph.n_edges, len(graph)) == (
            reference.n_items, reference.n_edges, len(reference)
        )
        assert list(graph.items()) == list(reference.items())
        assert as_csr(graph) is as_csr(graph)  # one cached CSR
        assert graph._arrays is not None  # and still no dicts
        assert_matches_dict_build(graph, reference)

    @SETTINGS
    @given(graph_entries())
    def test_copy_of_a_dict_graph_keeps_its_layout(self, entries):
        # Edges are drawn in any order, so an item's in-row is not in
        # source order.
        graph = dict_built(bulk(*entries))
        assert graph._arrays is None
        assert graph_layout(graph.copy()) == graph_layout(graph)

    @pytest.mark.parametrize("bad", [
        ("node", -1.0), ("node", math.nan), ("edge", 0.0), ("edge", 1.5),
        ("edge", math.nan), ("self", 0.5), ("repeat", 0.5),
    ])
    def test_bad_or_repeated_entries_take_the_dict_path(self, bad):
        kind, value = bad
        items, weights = ["a", 1, "c"], [0.5, 0.3, 0.2]
        edges = [("a", 1, 0.5), (1, "c", 0.4)]
        if kind == "node":
            weights[1] = value
        elif kind == "edge":
            edges.append(("c", "a", value))
        elif kind == "self":
            edges.append(("c", "c", value))
        else:
            edges.append(("a", 1, value))  # add_edge overwrites in place

        def build_dicts():
            graph = PreferenceGraph()
            for item, weight in zip(items, weights):
                graph.add_item(item, weight)
            for source, target, weight in edges:
                graph.add_edge(source, target, weight)
            return graph

        expected = outcome(build_dicts)
        got = outcome(bulk, items, weights, edges)
        if expected[0] == "error":
            assert got == expected
        else:
            assert graph_layout(got[1]) == graph_layout(expected[1])

    @SETTINGS
    @given(st.integers(min_value=1, max_value=9), st.randoms(),
           st.booleans())
    def test_to_preference_graph_from_shuffled_coo(self, n, rnd, str_ids):
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        rnd.shuffle(pairs)
        pairs = pairs[:rnd.randint(0, len(pairs))]
        weights = np.asarray([rnd.uniform(0.1, 1.0) for _ in range(n)])
        csr = CSRGraph.from_arrays(
            weights / weights.sum(),
            np.asarray([s for s, _ in pairs], dtype=np.int64),
            np.asarray([t for _, t in pairs], dtype=np.int64),
            np.asarray([rnd.uniform(0.01, 1.0) for _ in pairs]),
            items=[f"v{i}" for i in range(n)] if str_ids else None,
        )
        graph = csr.to_preference_graph()
        assert graph._arrays is not None
        assert as_csr(graph) is not csr
        assert_matches_dict_build(graph, reference_to_preference_graph(csr))

    def test_to_preference_graph_with_aliased_items(self):
        csr = CSRGraph.from_arrays(
            np.asarray([0.5, 0.25, 0.25]),
            np.asarray([0, 2]), np.asarray([1, 1]), np.asarray([0.5, 0.7]),
            items=[1, "a", 1.0],  # 1 and 1.0 are one dict key
        )
        graph = csr.to_preference_graph()
        reference = reference_to_preference_graph(csr)
        assert graph._arrays is None  # built through add_item/add_edge
        assert graph_layout(graph) == graph_layout(reference)

    @SETTINGS
    @given(
        st.lists(
            st.one_of(session_lists(max_size=20),
                      session_lists(max_size=20, ids=ALIASED_IDS)),
            min_size=1, max_size=3,
        ),
        st.sampled_from(list(Variant)),
        st.sampled_from([1.0, 0.5, 0.3]),
        st.sampled_from(CONFIGS),
    )
    def test_online_snapshot(self, periods, variant, decay, options):
        config = AdaptationConfig(variant=variant, **options)
        engine = OnlineAdaptationEngine(config, decay=decay)
        dicts = ReferenceOnlineEngine(config, decay=decay)
        for period in periods:
            for each in (engine, dicts):
                each.new_period()
                each.observe_all(Clickstream(period))
            expected = outcome(reference_snapshot, dicts)
            got = outcome(engine.snapshot)
            assert got[0] == expected[0]
            if got[0] == "error":
                assert got == expected
                continue
            snapshot, reference = got[1], expected[1]
            assert snapshot._arrays is not None
            assert_same_csr(
                as_csr(snapshot), CSRGraph.from_preference_graph(reference)
            )
            assert graph_layout(with_dicts(snapshot)) == \
                graph_layout(reference)

    @pytest.mark.parametrize("options, edges", [
        ({}, [("a", "b"), ("a", "c")]),
        ({"min_edge_weight": 0.5}, [("a", "c")]),  # b's weight is 2/4
        ({"min_edge_sessions": 3}, [("a", "c")]),  # c has exactly 3
        ({"min_edge_sessions": 1, "include_unpurchased": True},
         [("a", "b"), ("a", "c"), ("c", "d")]),
    ])
    def test_online_snapshot_at_the_pruning_thresholds(self, options, edges):
        rows = [(("b",), "a"), (("b", "c"), "a"), (("c",), "a"),
                (("c",), "a"), ((), "b"), (("d",), "c")]
        stream = Clickstream([
            Session(i, clicks, purchase)
            for i, (clicks, purchase) in enumerate(rows)
        ])
        engine = OnlineAdaptationEngine(AdaptationConfig(**options))
        dicts = ReferenceOnlineEngine(AdaptationConfig(**options))
        engine.observe_all(stream)
        dicts.observe_all(stream)
        snapshot = engine.snapshot()
        reference = reference_snapshot(dicts)
        assert [(s, t) for s, t, _ in reference.edges()] == edges
        assert_matches_dict_build(snapshot, reference)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("decay", [1.0, 0.5, 0.3])
    def test_online_snapshot_on_a_dataset(self, variant, decay):
        stream, _ = build_dataset("PE", scale=0.002, seed=5)
        sessions = list(stream)
        config = AdaptationConfig(variant=variant, include_unpurchased=True)
        engine = OnlineAdaptationEngine(config, decay=decay)
        reference = ReferenceOnlineEngine(config, decay=decay)
        for cut in range(3):
            for each in (engine, reference):
                each.new_period()
                each.observe_all(Clickstream(sessions[cut::3]))
            snapshot = engine.snapshot()
            assert snapshot._arrays is not None
            assert_matches_dict_build(snapshot, reference_snapshot(reference))

    @SETTINGS
    @given(graph_entries(min_items=0), st.sampled_from(list(Variant)),
           st.sampled_from([1e-6, 1e-3, 0.0]), st.booleans())
    def test_validate(self, entries, variant, tolerance, normalize):
        items, weights, edges = entries
        if normalize and sum(weights) > 0:
            weights = [w / sum(weights) for w in weights]
        graph = bulk(items, weights, edges)
        reference = dict_built(graph)
        expected = outcome(
            lambda: reference.validate(variant, tolerance=tolerance)
        )
        got = outcome(lambda: graph.validate(variant, tolerance=tolerance))
        assert got == expected
        assert graph.is_validated(variant) == reference.is_validated(variant)
        if got[0] == "ok":
            assert graph._arrays is not None  # no dicts on success


# ----------------------------------------------------------------------
# graph_delta
# ----------------------------------------------------------------------
class TestGraphDelta:
    @SETTINGS
    @given(graph_entries(), st.data())
    def test_matches_reference(self, old_entries, data):
        old_items, old_weights, old_edges = old_entries
        items = list(old_items)
        if data.draw(st.booleans()):
            data.draw(st.randoms()).shuffle(items)
        if data.draw(st.integers(0, 9)) == 0:
            items.remove(data.draw(st.sampled_from(items)))  # an error
        items += [
            item for item in data.draw(st.lists(st.sampled_from(POOL)))
            if item not in items
        ]
        old_weight = dict(zip(old_items, old_weights))
        weights = [
            old_weight[item] if item in old_weight
            and data.draw(st.booleans()) else data.draw(
                st.sampled_from([0.0, 0.15, 0.3, 0.5])
            )
            for item in items
        ]
        old_edge = {(s, t): w for s, t, w in old_edges}
        pairs = [(s, t) for s in items for t in items if s != t]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) \
            if pairs else []
        edges = [
            (s, t, old_edge[(s, t)] if (s, t) in old_edge
             and data.draw(st.booleans())
             else data.draw(st.sampled_from([0.05, 0.5, 1.0])))
            for s, t in chosen
        ]
        old = bulk(old_items, old_weights, old_edges)
        new = bulk(items, weights, edges)
        if data.draw(st.booleans()):
            old = with_dicts(old)
        if data.draw(st.booleans()):
            new = with_dicts(new)
        expected = outcome(
            reference_graph_delta, dict_built(old), dict_built(new)
        )
        got = outcome(graph_delta, old, new)
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert delta_layout(got[1]) == delta_layout(expected[1])
        else:
            assert got == expected

    def test_aliased_ids_are_one_item(self):
        old = bulk([1, "a"], [0.5, 0.5], [(1, "a", 0.5)])
        new = bulk([1.0, "a", 2], [0.4, 0.5, 0.1],
                   [(1.0, "a", 0.5), ("a", 2, 0.3)])
        assert delta_layout(graph_delta(old, new, sequence=4)) == \
            delta_layout(reference_graph_delta(
                dict_built(old), dict_built(new), sequence=4
            ))


# ----------------------------------------------------------------------
# GraphDelta.apply_to: merge versus the dict path
# ----------------------------------------------------------------------
class TestApplyTo:
    @SETTINGS
    @given(graph_entries(), st.data())
    def test_merge_matches_dict_path(self, entries, data):
        items, weights, edges = entries
        graph = bulk(items, weights, edges)
        reference = dict_built(graph)
        for _ in range(data.draw(st.integers(1, 3))):
            delta = data.draw(deltas(
                list(reference.items()), list(reference.edges())
            ))
            before = graph_layout(reference)
            expected = outcome(delta.apply_to, reference)
            got = outcome(delta.apply_to, graph)
            assert graph._arrays is not None  # merged without dicts
            if expected[0] == "error":
                assert got == expected
                assert graph_layout(reference) == before
            else:
                assert got[0] == "ok" and got[1] is graph
            assert_matches_dict_build(graph, reference)

    def test_update_plus_removal_then_re_add(self):
        graph = bulk(["a", "b", "c"], [0.5, 0.3, 0.2],
                     [("a", "b", 0.5), ("b", "c", 0.4), ("a", "c", 0.1)])
        reference = dict_built(graph)
        steps = (
            GraphDelta(edge_updates=(("a", "b", 0.6),),
                       edge_removals=(("a", "b"),)),
            GraphDelta(edge_updates=(("a", "b", 0.7), ("c", "b", 0.2))),
        )
        for delta in steps:
            delta.apply_to(graph)
            delta.apply_to(reference)
            assert_matches_dict_build(graph, reference)
        assert [(s, t) for s, t, _ in reference.edges()] == [
            ("a", "c"), ("a", "b"), ("b", "c"), ("c", "b")
        ]
        assert list(reference.in_neighbors("b")) == ["a", "c"]

    def test_node_weight_only_delta_after_a_cached_csr(self):
        graph = bulk(["a", 1, "c"], [0.5, 0.3, 0.2],
                     [("a", 1, 0.5), (1, "c", 0.4), ("c", "a", 0.1)])
        as_csr(graph)
        reference = dict_built(graph)
        delta = GraphDelta(node_weights={"a": 0.4, "new": 0.1, 7: 0.0})
        delta.apply_to(graph)
        delta.apply_to(reference)
        assert_matches_dict_build(graph, reference)

    def test_delta_merged_during_a_dict_build_is_kept(self, monkeypatch):
        # Another thread's merge lands while the dicts are being built
        # from the arrays it replaces.
        graph = bulk(["a", 1, "c"], [0.5, 0.3, 0.2],
                     [("a", 1, 0.5), (1, "c", 0.4)])
        reference = dict_built(graph)
        delta = GraphDelta(node_weights={"a": 0.4, "c": 0.3},
                           edge_updates=(("c", "a", 0.2),))
        build = graph_module._Arrays.dicts
        merges = []

        def racing(arrays):
            state = build(arrays)
            if not merges:
                merges.append(delta)
                delta.apply_to(graph)
            return state

        monkeypatch.setattr(graph_module._Arrays, "dicts", racing)
        assert graph.node_weight("a") == 0.4
        delta.apply_to(reference)
        assert graph._arrays is None
        assert graph_layout(graph) == graph_layout(reference)
        assert_matches_dict_build(graph, reference)

    def test_dicts_built_during_a_merge_take_the_delta(self, monkeypatch):
        # Another thread builds the dicts while a merge is computed from
        # the arrays they replace; the delta then goes down the dict path.
        graph = bulk(["a", 1, "c"], [0.5, 0.3, 0.2],
                     [("a", 1, 0.5), (1, "c", 0.4)])
        reference = dict_built(graph)
        delta = GraphDelta(node_weights={"a": 0.4, "c": 0.3},
                           edge_updates=(("c", "a", 0.2),),
                           edge_removals=(("a", 1),))
        merge = graph_module._Arrays.merged

        def racing(arrays, *entries):
            merged = merge(arrays, *entries)
            with_dicts(graph)
            return merged

        monkeypatch.setattr(graph_module._Arrays, "merged", racing)
        delta.apply_to(graph)
        delta.apply_to(reference)
        assert graph._arrays is None
        assert graph_layout(graph) == graph_layout(reference)
        assert_matches_dict_build(graph, reference)

    def test_random_delta_merges_without_dicts(self):
        stream, _ = build_dataset("PE", scale=0.002, seed=2)
        engine = OnlineAdaptationEngine()
        engine.observe_all(stream)
        graph = engine.snapshot()
        reference = dict_built(graph)
        delta = random_delta(graph, sigma=0.3, edge_churn=0.2, seed=4)
        assert delta_layout(delta) == delta_layout(random_delta(
            reference, sigma=0.3, edge_churn=0.2, seed=4
        ))
        delta.apply_to(graph)
        delta.apply_to(reference)
        assert graph._arrays is not None
        assert_matches_dict_build(graph, reference)


# ----------------------------------------------------------------------
# A serve_pe-shaped run, against the same run down the dict path
# ----------------------------------------------------------------------
def stream_parts(seed, periods=3):
    stream, _ = build_dataset("PE", scale=0.001, seed=seed)
    sessions = list(stream)
    half = len(sessions) // 2
    cuts = np.linspace(half, len(sessions), periods + 1).astype(int).tolist()
    return [Clickstream(sessions[:half])] + [
        Clickstream(sessions[a:b]) for a, b in zip(cuts[:-1], cuts[1:])
    ]


def serve_run(parts, *, dicts, variant="independent", k=20):
    """Each period's delta and served answers, and the final graph."""
    engine = OnlineAdaptationEngine(AdaptationConfig(variant=variant))
    engine.observe_all(parts[0])
    previous = engine.snapshot()
    if dicts:
        with_dicts(previous)
    runtime = ServingRuntime(
        AssortmentService(previous, variant=variant, k=k)
    )
    first = runtime.ensure()
    record = [(list(first.retained), first.cover, first.key)]
    for index, part in enumerate(parts[1:]):
        engine.observe_all(part)
        graph = engine.snapshot()
        if dicts:
            with_dicts(graph)
            with_dicts(runtime.service.graph)
            delta = reference_graph_delta(previous, graph,
                                          sequence=index + 1)
        else:
            delta = graph_delta(previous, graph, sequence=index + 1)
        snapshot = runtime.apply_delta(delta)
        assert snapshot.sequence == index + 1
        record.append((
            delta_layout(delta), list(snapshot.retained),
            snapshot.cover.hex(), snapshot.conditional.tobytes(),
            snapshot.key,
        ))
        previous = graph
    return record, graph_layout(runtime.service.graph)


class TestRefreshPath:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_serve_run_equals_dict_path(self, seed):
        parts = stream_parts(seed)
        assert serve_run(parts, dicts=False) == serve_run(parts, dicts=True)

    def test_refresh_period_builds_no_dicts(self, monkeypatch):
        parts = stream_parts(3, periods=1)
        engine = OnlineAdaptationEngine()
        engine.observe_all(parts[0])
        previous = engine.snapshot()
        runtime = ServingRuntime(
            AssortmentService(previous, variant="independent", k=20)
        )
        runtime.ensure()
        calls = []
        original = CSRGraph.__dict__["from_preference_graph"].__func__
        dicts = graph_module._Arrays.dicts

        def counting(cls, graph):
            calls.append("from_preference_graph")
            return original(cls, graph)

        def counting_dicts(arrays):
            calls.append("dicts")
            return dicts(arrays)

        monkeypatch.setattr(
            CSRGraph, "from_preference_graph", classmethod(counting)
        )
        monkeypatch.setattr(graph_module._Arrays, "dicts", counting_dicts)
        engine.observe_all(parts[1])
        graph = engine.snapshot()
        delta = graph_delta(previous, graph, sequence=1)
        snapshot = runtime.apply_delta(delta)
        assert snapshot.sequence == 1 and not delta.is_empty
        assert calls == []
        assert graph._arrays is not None
        assert runtime.service.graph._arrays is not None


def test_rehearsal_leaves_a_dict_graph_unchanged():
    graph = PreferenceGraph.from_weights(
        {"a": 0.5, "b": 0.3, "c": 0.2}, [("a", "b", 0.5), ("b", "c", 0.4)]
    )
    before = graph_layout(graph)
    delta = GraphDelta(
        node_weights={"a": 0.1, "d": 0.2},
        edge_updates=(("d", "c", 0.3), ("a", "c", 0.9)),
        edge_removals=(("b", "c"), ("b", "c")),  # the second one is bad
    )
    with pytest.raises(ReproError) as caught:
        delta.apply_to(graph)
    assert str(caught.value) == str(("b", "c"))
    assert graph_layout(graph) == before
    with pytest.raises(ClickstreamFormatError, match="unhashable"):
        GraphDelta(edge_updates=((["a"], "b", 0.5),)).apply_to(graph)
    assert graph_layout(graph) == before
