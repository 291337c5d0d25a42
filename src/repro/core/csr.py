"""Immutable array-backed preference graph for large instances.

The paper's application operates on graphs with millions of nodes, where
per-node Python dictionaries are too slow and too large.  :class:`CSRGraph`
stores the graph twice in compressed-sparse-row form:

* grouped by **destination** (``in_ptr``/``in_src``/``in_weight``) — the
  incoming edges of each node, which is what the ``Gain``/``AddNode``
  procedures of Algorithms 2–5 iterate over ("each ``u`` with an edge into
  ``v``");
* grouped by **source** (``out_ptr``/``out_dst``/``out_weight``) — the
  outgoing edges, which the accelerated greedy needs to propagate deficit
  updates.

Items are mapped to dense integer indices ``0..n-1``; the original ids are
kept in :attr:`items` for reporting.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphValidationError, UnknownItemError
from .variants import Variant


class CSRGraph:
    """Read-only CSR view of a preference graph.

    Construct with :meth:`from_preference_graph` or :meth:`from_arrays`;
    all arrays are made non-writable so a graph can be shared across
    solver invocations (and across processes via fork) without copies.
    """

    __slots__ = (
        "node_weight",
        "in_ptr",
        "in_src",
        "in_weight",
        "out_ptr",
        "out_dst",
        "out_weight",
        "items",
        "_index_of",
        "_validated",
        "_digest",
    )

    def __init__(
        self,
        node_weight: np.ndarray,
        in_ptr: np.ndarray,
        in_src: np.ndarray,
        in_weight: np.ndarray,
        out_ptr: np.ndarray,
        out_dst: np.ndarray,
        out_weight: np.ndarray,
        items: List[Hashable],
    ) -> None:
        self.node_weight = node_weight
        self.in_ptr = in_ptr
        self.in_src = in_src
        self.in_weight = in_weight
        self.out_ptr = out_ptr
        self.out_dst = out_dst
        self.out_weight = out_weight
        self.items = items
        self._index_of = {item: i for i, item in enumerate(items)}
        # Validation outcomes (per variant, at the default tolerance) and
        # the content digest are cached: the arrays below are frozen, so
        # both are immutable properties of the instance.
        self._validated = set()
        self._digest = None
        for array in (
            node_weight, in_ptr, in_src, in_weight,
            out_ptr, out_dst, out_weight,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_preference_graph(cls, graph) -> "CSRGraph":
        """Build from a :class:`repro.core.graph.PreferenceGraph`."""
        items = list(graph.items())
        index_of = {item: i for i, item in enumerate(items)}
        n = len(items)
        node_weight = np.fromiter(
            (graph.node_weight(item) for item in items),
            dtype=np.float64,
            count=n,
        )
        sources: List[int] = []
        targets: List[int] = []
        weights: List[float] = []
        for source, target, weight in graph.edges():
            sources.append(index_of[source])
            targets.append(index_of[target])
            weights.append(weight)
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        wgt = np.asarray(weights, dtype=np.float64)
        return cls._from_coo(node_weight, src, dst, wgt, items)

    @classmethod
    def from_arrays(
        cls,
        node_weight: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weight: np.ndarray,
        items: Optional[Sequence[Hashable]] = None,
    ) -> "CSRGraph":
        """Build directly from COO edge arrays.

        This is the fast path used by the synthetic dataset generators,
        which produce numpy arrays without ever materializing a
        dictionary-backed graph.  ``items`` defaults to ``range(n)``.
        """
        node_weight = np.ascontiguousarray(node_weight, dtype=np.float64)
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        edge_weight = np.ascontiguousarray(edge_weight, dtype=np.float64)
        n = node_weight.shape[0]
        if not (edge_src.shape == edge_dst.shape == edge_weight.shape):
            raise GraphValidationError("edge arrays must have equal length")
        if edge_src.size and (
            edge_src.min() < 0 or edge_src.max() >= n
            or edge_dst.min() < 0 or edge_dst.max() >= n
        ):
            raise GraphValidationError("edge endpoint index out of range")
        if np.any(edge_src == edge_dst):
            raise GraphValidationError("self-edges are not allowed")
        if edge_src.size:
            keys = edge_src * np.int64(n) + edge_dst
            # Sort and compare neighbours: np.unique may take a hash
            # path that is far slower and larger on millions of keys.
            keys.sort()
            if np.any(keys[1:] == keys[:-1]):
                raise GraphValidationError(
                    "duplicate edges: the model has one probability per "
                    "ordered item pair"
                )
        item_list = list(items) if items is not None else list(range(n))
        if len(item_list) != n:
            raise GraphValidationError(
                f"items length {len(item_list)} != node count {n}"
            )
        return cls._from_coo(node_weight, edge_src, edge_dst, edge_weight,
                             item_list)

    @classmethod
    def _from_coo(
        cls,
        node_weight: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        wgt: np.ndarray,
        items: List[Hashable],
    ) -> "CSRGraph":
        n = node_weight.shape[0]

        def group(keys: np.ndarray, companions: Tuple[np.ndarray, ...]):
            order = np.argsort(keys, kind="stable")
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.add.at(ptr, keys + 1, 1)
            np.cumsum(ptr, out=ptr)
            return ptr, tuple(c[order] for c in companions)

        in_ptr, (in_src, in_weight) = group(dst, (src, wgt))
        out_ptr, (out_dst, out_weight) = group(src, (dst, wgt))
        return cls(
            node_weight,
            in_ptr, in_src, in_weight,
            out_ptr, out_dst, out_weight,
            items,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of items (nodes)."""
        return self.node_weight.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of directed preference edges."""
        return self.in_src.shape[0]

    def __len__(self) -> int:
        return self.n_items

    def index_of(self, item: Hashable) -> int:
        """Dense index of an original item id."""
        try:
            return self._index_of[item]
        except KeyError as exc:
            raise UnknownItemError(item) from exc

    def in_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, weights)`` of edges pointing *into* ``node``."""
        lo, hi = self.in_ptr[node], self.in_ptr[node + 1]
        return self.in_src[lo:hi], self.in_weight[lo:hi]

    def out_edges(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(targets, weights)`` of edges leaving ``node``."""
        lo, hi = self.out_ptr[node], self.out_ptr[node + 1]
        return self.out_dst[lo:hi], self.out_weight[lo:hi]

    def in_degrees(self) -> np.ndarray:
        """Vector of incoming degrees."""
        return np.diff(self.in_ptr)

    def out_degrees(self) -> np.ndarray:
        """Vector of outgoing degrees."""
        return np.diff(self.out_ptr)

    def max_in_degree(self) -> int:
        """The paper's ``D``."""
        degrees = self.in_degrees()
        return int(degrees.max()) if degrees.size else 0

    def out_weight_sums(self) -> np.ndarray:
        """Per-node sums of outgoing edge weights."""
        sums = np.zeros(self.n_items, dtype=np.float64)
        np.add.at(sums, self._out_sources(), self.out_weight)
        return sums

    def _out_sources(self) -> np.ndarray:
        """Source index of every entry of the out-CSR value arrays."""
        return np.repeat(
            np.arange(self.n_items, dtype=np.int64), self.out_degrees()
        )

    def is_validated(self, variant: "Variant | str") -> bool:
        """Whether :meth:`validate` already succeeded for ``variant``.

        Because the arrays are frozen at construction, a successful
        validation holds for the lifetime of the instance; solvers use
        this to skip the O(m) invariant sweep on repeat solves.
        """
        return Variant.coerce(variant) in self._validated

    def validate(
        self,
        variant: "Variant | str" = Variant.INDEPENDENT,
        *,
        tolerance: float = 1e-6,
    ) -> None:
        """Array-level equivalent of ``PreferenceGraph.validate``.

        Successful runs at the default tolerance are memoized (the
        instance is immutable), making repeat validation O(1) — the
        fast path the serving refresh loop and :func:`repro.solve`
        rely on.
        """
        variant = Variant.coerce(variant)
        if tolerance == 1e-6 and variant in self._validated:
            return
        if self.n_items == 0:
            raise GraphValidationError("graph has no items")
        if np.any(self.node_weight < 0):
            raise GraphValidationError("negative node weight")
        total = float(self.node_weight.sum())
        if abs(total - 1.0) > tolerance:
            raise GraphValidationError(
                f"node weights must sum to 1, got {total:.9f}"
            )
        if self.in_weight.size:
            if self.in_weight.min() <= 0 or self.in_weight.max() > 1 + tolerance:
                raise GraphValidationError("edge weight out of (0, 1]")
        if variant is Variant.NORMALIZED:
            sums = self.out_weight_sums()
            worst = float(sums.max()) if sums.size else 0.0
            if worst > 1.0 + tolerance:
                raise GraphValidationError(
                    f"Normalized variant requires out-weight sums <= 1, "
                    f"max is {worst:.9f}"
                )
        if tolerance == 1e-6:
            self._validated.add(variant)

    def content_digest(self) -> str:
        """Hex fingerprint of the graph's structure and weights.

        Covers the incoming CSR arrays and the node weights — everything
        that determines solver behavior.  Computed once and cached (the
        arrays are frozen); the serving layer keys solution snapshots on
        it so a snapshot can never be served for a different graph.
        """
        if self._digest is None:
            import struct
            import zlib

            digest = zlib.crc32(
                struct.pack("<qq", self.n_items, self.n_edges)
            )
            for array in (
                self.in_ptr, self.in_src, self.in_weight, self.node_weight,
            ):
                digest = zlib.crc32(
                    np.ascontiguousarray(array).tobytes(), digest
                )
            self._digest = f"{digest & 0xFFFFFFFF:08x}"
        return self._digest

    def to_preference_graph(self):
        """Convert back to the mutable :class:`PreferenceGraph`.

        The graph is the one ``add_item`` over :attr:`items` and then
        ``add_edge`` over the out-rows would build, held in bulk form
        (no dicts until a method needs them).  Its own :meth:`to_csr`
        is built afresh, with in-rows by ascending source index, rather
        than reusing this instance.
        """
        from .graph import PreferenceGraph

        return PreferenceGraph._from_arrays(
            list(self.items), self.node_weight, self._out_sources(),
            self.out_dst, self.out_weight, self._index_of,
        )

    def __repr__(self) -> str:
        return f"CSRGraph(n_items={self.n_items}, n_edges={self.n_edges})"


def key_positions(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Position of each of ``wanted`` in the distinct int64 ``keys``, or -1.

    Edge ``(i, j)`` of an ``n``-item graph has key ``i * n + j``.
    """
    if not keys.size:
        return np.full(wanted.shape, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")  # fastest on near-sorted keys
    slot = order[np.minimum(np.searchsorted(keys[order], wanted),
                            keys.size - 1)]
    return np.where(keys[slot] == wanted, slot, -1)


def as_csr(graph) -> CSRGraph:
    """Coerce a ``PreferenceGraph`` or ``CSRGraph`` to :class:`CSRGraph`.

    A ``PreferenceGraph`` answers with its cached
    :meth:`~repro.core.graph.PreferenceGraph.to_csr`: one conversion per
    graph state, however many callers ask.
    """
    if isinstance(graph, CSRGraph):
        return graph
    return graph.to_csr()
