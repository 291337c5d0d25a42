"""The preference graph model (paper Section 2).

A :class:`PreferenceGraph` is a directed graph whose nodes are items and
whose weights encode consumer preferences:

* ``W(v)`` — node weight — the probability that item ``v`` is the one a
  consumer requests (node weights sum to one over the catalog);
* ``W(v, u)`` — edge weight — the probability that, with ``v`` missing,
  the consumer accepts ``u`` as an alternative (edge weights lie in
  ``(0, 1]``).

This class is the mutable, dictionary-backed representation used for
construction, validation and small/medium instances.  For large instances
the solvers convert it once into the immutable array-backed
:class:`repro.core.csr.CSRGraph` via :meth:`PreferenceGraph.to_csr`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

from ..errors import GraphValidationError, UnknownItemError
from .variants import Variant

#: Item identifiers may be any hashable value (strings in practice).
Item = Hashable

#: Tolerance used when checking probability invariants.
WEIGHT_TOLERANCE = 1e-9


class PreferenceGraph:
    """Weighted directed graph of items and substitution preferences.

    Instances are built incrementally with :meth:`add_item` and
    :meth:`add_edge`, or in one shot with :meth:`from_weights`.  Node
    weights may be supplied unnormalized and scaled afterwards with
    :meth:`normalize_node_weights`.
    """

    def __init__(self) -> None:
        self._node_weight: Dict[Item, float] = {}
        self._out: Dict[Item, Dict[Item, float]] = {}
        self._in: Dict[Item, Dict[Item, float]] = {}
        self._edge_count = 0
        # Variants validated at the default tolerance since the last
        # mutation; any structural or weight change clears it.
        self._validated: set = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_item(self, item: Item, weight: float) -> None:
        """Add ``item`` with request probability ``weight``.

        Re-adding an existing item overwrites its weight but keeps its
        edges.  Negative weights are rejected immediately; the sum-to-one
        invariant is only enforced by :meth:`validate`, so weights can be
        accumulated freely during construction.
        """
        weight = float(weight)
        if weight < 0.0 or math.isnan(weight):
            raise GraphValidationError(
                f"node weight for {item!r} must be nonnegative, got {weight}"
            )
        if item not in self._node_weight:
            self._out[item] = {}
            self._in[item] = {}
        self._node_weight[item] = weight
        self._validated.clear()

    def add_edge(self, source: Item, target: Item, weight: float) -> None:
        """Add the preference edge ``source -> target``.

        The edge means: a consumer requesting ``source`` accepts ``target``
        as an alternative with probability ``weight``.  Both endpoints must
        already exist; self-loops are rejected (a retained item always
        covers itself, so a self-edge carries no information in this
        model — the VC_k *reduction* introduces self-edges, but on its own
        instance type).
        """
        if source not in self._node_weight:
            raise UnknownItemError(source)
        if target not in self._node_weight:
            raise UnknownItemError(target)
        if source is target or source == target:  # `is` catches a NaN
            raise GraphValidationError(
                f"self-edge on {source!r}: an item trivially covers itself"
            )
        weight = float(weight)
        if not (0.0 < weight <= 1.0) or math.isnan(weight):
            raise GraphValidationError(
                f"edge weight for {source!r}->{target!r} must be in (0, 1], "
                f"got {weight}"
            )
        if target not in self._out[source]:
            self._edge_count += 1
        self._out[source][target] = weight
        self._in[target][source] = weight
        self._validated.clear()

    def remove_edge(self, source: Item, target: Item) -> None:
        """Remove the edge ``source -> target`` (KeyError if absent)."""
        try:
            del self._out[source][target]
            del self._in[target][source]
        except KeyError as exc:
            raise UnknownItemError((source, target)) from exc
        self._edge_count -= 1
        self._validated.clear()

    @classmethod
    def from_weights(
        cls,
        node_weights: Mapping[Item, float],
        edges: Iterable[Tuple[Item, Item, float]] = (),
        *,
        normalize: bool = False,
    ) -> "PreferenceGraph":
        """Build a graph from a node-weight mapping and an edge iterable.

        With ``normalize=True`` node weights are rescaled to sum to one,
        which is convenient when passing raw purchase counts.
        """
        graph = cls()
        for item, weight in node_weights.items():
            graph.add_item(item, weight)
        for source, target, weight in edges:
            graph.add_edge(source, target, weight)
        if normalize:
            graph.normalize_node_weights()
        return graph

    def normalize_node_weights(self) -> None:
        """Rescale node weights in place so they sum to one."""
        total = sum(self._node_weight.values())
        if total <= 0.0:
            raise GraphValidationError(
                "cannot normalize: node weights sum to zero"
            )
        for item in self._node_weight:
            self._node_weight[item] /= total
        self._validated.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of items (nodes)."""
        return len(self._node_weight)

    @property
    def n_edges(self) -> int:
        """Number of directed preference edges."""
        return self._edge_count

    def __len__(self) -> int:
        return len(self._node_weight)

    def __contains__(self, item: Item) -> bool:
        return item in self._node_weight

    def __iter__(self) -> Iterator[Item]:
        return iter(self._node_weight)

    def items(self) -> Iterator[Item]:
        """Iterate over item ids in insertion order."""
        return iter(self._node_weight)

    def node_weight(self, item: Item) -> float:
        """Return ``W(item)``, the request probability of ``item``."""
        try:
            return self._node_weight[item]
        except KeyError as exc:
            raise UnknownItemError(item) from exc

    def edge_weight(self, source: Item, target: Item) -> float:
        """Return ``W(source, target)`` (UnknownItemError if absent)."""
        try:
            return self._out[source][target]
        except KeyError as exc:
            raise UnknownItemError((source, target)) from exc

    def has_edge(self, source: Item, target: Item) -> bool:
        """True if the preference edge ``source -> target`` exists."""
        return source in self._out and target in self._out[source]

    def neighbors(self, item: Item) -> Dict[Item, float]:
        """Alternatives for ``item``: mapping neighbor -> edge weight.

        These are the items a consumer requesting ``item`` may accept
        instead (the paper's outgoing edges).  The returned dict is a copy.
        """
        try:
            return dict(self._out[item])
        except KeyError as exc:
            raise UnknownItemError(item) from exc

    def in_neighbors(self, item: Item) -> Dict[Item, float]:
        """Items for which ``item`` serves as an alternative (a copy)."""
        try:
            return dict(self._in[item])
        except KeyError as exc:
            raise UnknownItemError(item) from exc

    def out_degree(self, item: Item) -> int:
        """Number of alternatives of ``item``."""
        return len(self._out[item]) if item in self._out else 0

    def in_degree(self, item: Item) -> int:
        """Number of items that accept ``item`` as an alternative."""
        return len(self._in[item]) if item in self._in else 0

    def out_weight_sum(self, item: Item) -> float:
        """Sum of outgoing edge weights of ``item``.

        Under the Normalized variant this must not exceed one.
        """
        return sum(self._out[item].values()) if item in self._out else 0.0

    def max_in_degree(self) -> int:
        """The paper's ``D``: the maximum incoming degree over all nodes."""
        if not self._in:
            return 0
        return max(len(sources) for sources in self._in.values())

    def edges(self) -> Iterator[Tuple[Item, Item, float]]:
        """Iterate over ``(source, target, weight)`` triples."""
        for source, targets in self._out.items():
            for target, weight in targets.items():
                yield source, target, weight

    def total_node_weight(self) -> float:
        """Sum of all node weights (should be 1 after validation)."""
        return sum(self._node_weight.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        variant: "Variant | str" = Variant.INDEPENDENT,
        *,
        tolerance: float = 1e-6,
    ) -> None:
        """Check all model invariants, raising GraphValidationError on failure.

        Checks (Section 2 of the paper):

        * at least one item exists;
        * node weights are nonnegative and sum to one (within ``tolerance``);
        * edge weights lie in ``(0, 1]`` (enforced at insertion, re-checked
          here for graphs built through other paths);
        * under the Normalized variant, each node's outgoing edge weights
          sum to at most ``1 + tolerance``.
        """
        variant = Variant.coerce(variant)
        if tolerance == 1e-6 and variant in self._validated:
            return
        if not self._node_weight:
            raise GraphValidationError("graph has no items")
        total = self.total_node_weight()
        if abs(total - 1.0) > tolerance:
            raise GraphValidationError(
                f"node weights must sum to 1, got {total:.9f} "
                f"(call normalize_node_weights() to rescale)"
            )
        for source, targets in self._out.items():
            out_sum = 0.0
            for target, weight in targets.items():
                if not (0.0 < weight <= 1.0 + tolerance):
                    raise GraphValidationError(
                        f"edge weight {source!r}->{target!r} out of (0, 1]: "
                        f"{weight}"
                    )
                out_sum += weight
            if variant is Variant.NORMALIZED and out_sum > 1.0 + tolerance:
                raise GraphValidationError(
                    f"Normalized variant requires out-weights of {source!r} "
                    f"to sum to <= 1, got {out_sum:.9f}"
                )
        if tolerance == 1e-6:
            self._validated.add(variant)

    def is_validated(self, variant: "Variant | str") -> bool:
        """Whether :meth:`validate` succeeded since the last mutation."""
        return Variant.coerce(variant) in self._validated

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> "CSRGraph":
        """Convert to the immutable array-backed representation."""
        from .csr import CSRGraph

        return CSRGraph.from_preference_graph(self)

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph`.

        Node weights are stored under the ``weight`` node attribute and
        edge weights under the ``weight`` edge attribute, so standard
        networkx algorithms and serializers apply directly.
        """
        import networkx as nx

        nxg = nx.DiGraph()
        for item, weight in self._node_weight.items():
            nxg.add_node(item, weight=weight)
        for source, target, weight in self.edges():
            nxg.add_edge(source, target, weight=weight)
        return nxg

    @classmethod
    def from_networkx(cls, nxg) -> "PreferenceGraph":
        """Build from a networkx DiGraph with ``weight`` attributes."""
        graph = cls()
        for node, data in nxg.nodes(data=True):
            if "weight" not in data:
                raise GraphValidationError(
                    f"networkx node {node!r} lacks a 'weight' attribute"
                )
            graph.add_item(node, data["weight"])
        for source, target, data in nxg.edges(data=True):
            if "weight" not in data:
                raise GraphValidationError(
                    f"networkx edge {source!r}->{target!r} lacks a "
                    f"'weight' attribute"
                )
            graph.add_edge(source, target, data["weight"])
        return graph

    def copy(self) -> "PreferenceGraph":
        """Deep copy of the graph."""
        clone = PreferenceGraph()
        for item, weight in self._node_weight.items():
            clone.add_item(item, weight)
        for source, target, weight in self.edges():
            clone.add_edge(source, target, weight)
        return clone

    def __repr__(self) -> str:
        return (
            f"PreferenceGraph(n_items={self.n_items}, "
            f"n_edges={self.n_edges})"
        )
