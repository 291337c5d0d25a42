"""Tests for repro.core.csr.CSRGraph."""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clickstream.drift import GraphDelta
from repro.core.csr import CSRGraph, as_csr
from repro.core.graph import PreferenceGraph
from repro.errors import GraphValidationError, UnknownItemError
from repro.workloads.graphs import random_preference_graph

CSR_ARRAYS = (
    "node_weight", "in_ptr", "in_src", "in_weight",
    "out_ptr", "out_dst", "out_weight",
)


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
        assert g.items == range(2)

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


# ----------------------------------------------------------------------
# Grouping: bitwise the stable-argsort build it replaced
# ----------------------------------------------------------------------
def reference_arrays(node_weight, src, dst, wgt):
    """The seven arrays as ``_from_coo`` built them with a stable
    argsort per direction and ``np.add.at`` row counts."""
    n = node_weight.shape[0]

    def group(keys, companions):
        order = np.argsort(keys, kind="stable")
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(ptr, keys + 1, 1)
        np.cumsum(ptr, out=ptr)
        return ptr, tuple(c[order] for c in companions)

    in_ptr, (in_src, in_weight) = group(dst, (src, wgt))
    out_ptr, (out_dst, out_weight) = group(src, (dst, wgt))
    return dict(
        node_weight=node_weight, in_ptr=in_ptr, in_src=in_src,
        in_weight=in_weight, out_ptr=out_ptr, out_dst=out_dst,
        out_weight=out_weight,
    )


def assert_bitwise(csr, expected):
    for name in CSR_ARRAYS:
        got, want = getattr(csr, name), expected[name]
        assert got.dtype == want.dtype == (
            np.float64 if "weight" in name else np.int64
        ), name
        assert got.tobytes() == want.tobytes(), name


def bulk_reference(graph):
    """The reference arrays of a bulk graph's edges, stably by source."""
    arrays = graph._arrays
    order = np.argsort(arrays.src, kind="stable")
    return reference_arrays(
        arrays.node_weight, arrays.src[order], arrays.dst[order],
        arrays.weight[order],
    )


@st.composite
def coo_graphs(draw):
    """``n`` items (``n = 1`` and isolated items included) and distinct
    non-loop edges, shuffled, source-sorted or destination-sorted."""
    n = draw(st.integers(1, 9))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    order = draw(st.sampled_from(["shuffled", "source", "destination"]))
    if order == "shuffled":
        edges = draw(st.permutations(edges))
    else:
        edges = sorted(edges, key=lambda e: e[0 if order == "source" else 1])
    weights = draw(st.lists(st.sampled_from([0.05, 0.2, 0.5, 1.0]),
                            min_size=len(edges), max_size=len(edges)))
    node_weight = np.asarray(
        draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1 / 3]),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([t for _, t in edges], dtype=np.int64)
    return node_weight, src, dst, np.asarray(weights, dtype=np.float64)


class TestGrouping:
    @given(coo_graphs())
    def test_from_arrays(self, coo):
        expected = reference_arrays(*(a.copy() for a in coo))
        assert_bitwise(CSRGraph.from_arrays(*coo), expected)

    @given(coo_graphs())
    def test_from_preference_graph(self, coo):
        node_weight, src, dst, wgt = coo
        items = [f"i{v}" for v in range(node_weight.size)]
        graph = PreferenceGraph()
        for item, weight in zip(items, node_weight.tolist()):
            graph.add_item(item, weight)
        for s, t, w in zip(src.tolist(), dst.tolist(), wgt.tolist()):
            graph.add_edge(items[s], items[t], w)
        index = {item: v for v, item in enumerate(items)}
        edges = list(graph.edges())  # the dicts' order, as read
        expected = reference_arrays(
            node_weight,
            np.array([index[s] for s, _, _ in edges], dtype=np.int64),
            np.array([index[t] for _, t, _ in edges], dtype=np.int64),
            np.array([w for _, _, w in edges], dtype=np.float64),
        )
        assert_bitwise(CSRGraph.from_preference_graph(graph), expected)

    @given(coo_graphs(), st.data())
    def test_bulk_and_merged_graphs(self, coo, data):
        node_weight, src, dst, wgt = coo
        n = node_weight.size
        items = [f"i{v}" for v in range(n)]
        graph = PreferenceGraph._from_arrays(
            items, node_weight, src, dst, wgt,
            {item: v for v, item in enumerate(items)},
        )
        assert graph._arrays is not None
        assert_bitwise(graph.to_csr(), bulk_reference(graph))
        # A merge with new items, new edges into them and removals.
        added = [f"new{j}" for j in range(data.draw(st.integers(0, 2)))]
        known = items + added
        updates = data.draw(st.lists(
            st.tuples(st.sampled_from(known), st.sampled_from(known),
                      st.sampled_from([0.3, 1.0])).filter(
                lambda e: e[0] != e[1]),
            max_size=4, unique_by=lambda e: e[:2],
        )) if len(known) > 1 else []
        existing = [(items[s], items[t]) for s, t in
                    zip(src.tolist(), dst.tolist())]
        removals = data.draw(st.lists(
            st.sampled_from(existing), unique=True, max_size=2,
        )) if existing else []
        GraphDelta(
            node_weights={item: 0.0 for item in added},
            edge_updates=tuple(updates), edge_removals=tuple(removals),
        ).apply_to(graph)
        assert graph._arrays is not None  # merged, not built into dicts
        assert_bitwise(graph.to_csr(), bulk_reference(graph))

    def test_non_source_sorted_rows_keep_input_order(self):
        # In-rows follow input order within a destination, as a stable
        # sort would leave them, even where sources are not ascending.
        csr = CSRGraph.from_arrays(
            np.full(4, 0.25), np.array([3, 1, 2, 0]), np.array([0, 0, 0, 1]),
            np.array([0.1, 0.2, 0.3, 0.4]),
        )
        assert csr.in_src[:3].tolist() == [3, 1, 2]
        assert csr.in_weight[:3].tolist() == [0.1, 0.2, 0.3]

    def test_sort_key_overflow_raises(self):
        # n * m = 2**63 does not fit the int64 keys; zero-stride views
        # stand in for the arrays, which are never allocated.
        n, m = 2**39, 2**24
        with pytest.raises(GraphValidationError, match="overflows"):
            CSRGraph._from_coo(
                np.broadcast_to(np.float64(0.0), (n,)),
                np.broadcast_to(np.int64(0), (m,)),
                np.broadcast_to(np.int64(1), (m,)),
                np.broadcast_to(np.float64(0.5), (m,)),
                range(n),
            )


# ----------------------------------------------------------------------
# Default ids: range(n) with an arithmetic index_of
# ----------------------------------------------------------------------
#: Large enough that ``hash(math.inf)`` (314159) is a position.
RANGE_N = 314_160

RANGE_PROBES = [
    0, 3, RANGE_N - 1, True, False, 3.0, 3.5, np.int64(3), np.float64(3.0),
    Decimal(3), Decimal("3.5"), Fraction(3), Fraction(7, 2),
    complex(3, 0), complex(3, 1), math.nan, math.inf, -math.inf, -1, -2,
    RANGE_N, 2**61 - 1, 2**61, 2**61 + 1, 2**61 + 3, "3", (3,), None,
    [3], np.array([3]),
]


def lookup(find, item):
    try:
        found = find(item)
    except (KeyError, UnknownItemError):
        return ("missing",)
    except TypeError:
        return ("unhashable",)
    return ("found", type(found), found)


@pytest.fixture(scope="module")
def range_pair():
    """A default-id CSR and the ``{i: i}`` dict its lookups must match."""
    csr = CSRGraph.from_arrays(
        np.full(RANGE_N, 1.0 / RANGE_N), np.array([0]), np.array([1]),
        np.array([0.5]),
    )
    return csr, {i: i for i in range(RANGE_N)}


class TestRangeIds:
    @pytest.mark.parametrize("probe", RANGE_PROBES, ids=repr)
    def test_index_of_matches_a_dict(self, range_pair, probe):
        csr, table = range_pair
        assert lookup(csr.index_of, probe) == lookup(table.__getitem__, probe)
        index = csr._index_of
        assert lookup(index.__getitem__, probe) == lookup(
            table.__getitem__, probe)
        assert lookup(lambda x: index.get(x, -1), probe) == lookup(
            lambda x: table.get(x, -1), probe)

    def test_items_are_a_range_and_the_mapping_is_the_dict(self):
        csr = CSRGraph.from_arrays(
            np.full(5, 0.2), np.array([0, 4]), np.array([1, 2]),
            np.array([0.5, 0.5]),
        )
        assert csr.items == range(5)
        assert dict(csr._index_of) == {i: i for i in range(5)}
        assert len(csr._index_of) == 5 and 4 in csr._index_of
        assert 5 not in csr._index_of

    def test_to_preference_graph_and_merge(self):
        csr = random_preference_graph(30, seed=4)
        graph = csr.to_preference_graph()
        assert graph._arrays.index is csr._index_of
        GraphDelta(node_weights={30: 0.0}).apply_to(graph)
        assert graph._arrays.index == {i: i for i in range(31)}
        assert len(csr._index_of) == 30  # copied, not written through
        assert graph.to_csr().index_of(30) == 30


# ----------------------------------------------------------------------
# Bulk graphs share their own index
# ----------------------------------------------------------------------
class TestBulkIndex:
    def test_csr_shares_the_graph_index_and_answers_as_a_fresh_dict(self):
        items = ["a", 1, "b", 2.5, (1, 2)]
        index = {item: v for v, item in enumerate(items)}
        graph = PreferenceGraph._from_arrays(
            list(items), np.full(5, 0.2), np.array([0, 1, 3]),
            np.array([1, 2, 4]), np.array([0.5, 0.5, 0.5]), index,
        )
        csr = graph.to_csr()
        assert csr._index_of is graph._arrays.index  # no second table
        fresh = {item: v for v, item in enumerate(csr.items)}
        for probe in items + [True, 1.0, 2.5, "c", 0, (1, 2), [1]]:
            assert lookup(csr.index_of, probe) == lookup(
                fresh.__getitem__, probe)

    def test_a_merge_adding_items_leaves_the_old_index(self):
        items = ["a", "b"]
        graph = PreferenceGraph._from_arrays(
            items, np.array([0.5, 0.5]), np.array([0]), np.array([1]),
            np.array([0.5]), {"a": 0, "b": 1},
        )
        before = graph.to_csr()
        GraphDelta(node_weights={"c": 0.0},
                   edge_updates=(("c", "a", 0.5),)).apply_to(graph)
        after = graph.to_csr()
        assert before._index_of == {"a": 0, "b": 1}
        assert after._index_of == {"a": 0, "b": 1, "c": 2}
        with pytest.raises(UnknownItemError):
            before.index_of("c")


def test_from_arrays_holds_only_its_arrays():
    """Default ids add no per-item table: what a build keeps is the bytes
    of the arrays it allocated (the inputs are already int64/float64)."""
    source = random_preference_graph(200_000, seed=11)
    node_weight = source.node_weight.copy()
    src = np.repeat(np.arange(source.n_items, dtype=np.int64),
                    source.out_degrees())
    dst, weight = source.out_dst.copy(), source.out_weight.copy()
    del source
    tracemalloc.start()
    try:
        csr = CSRGraph.from_arrays(node_weight, src, dst, weight)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csr.node_weight is node_weight  # taken as is, not copied
    allocated = sum(getattr(csr, name).nbytes for name in CSR_ARRAYS[1:])
    assert abs(held - allocated) <= 1 << 20, (held, allocated)
