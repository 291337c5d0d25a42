"""The preference graph model (paper Section 2).

A :class:`PreferenceGraph` is a directed graph whose nodes are items and
whose weights encode consumer preferences:

* ``W(v)`` — node weight — the probability that item ``v`` is the one a
  consumer requests (node weights sum to one over the catalog);
* ``W(v, u)`` — edge weight — the probability that, with ``v`` missing,
  the consumer accepts ``u`` as an alternative (edge weights lie in
  ``(0, 1]``).

This class is the mutable, dictionary-backed representation used for
construction, validation and small/medium instances.  The solvers read
it as the immutable array-backed :class:`repro.core.csr.CSRGraph` from
:meth:`PreferenceGraph.to_csr`, which is built once and kept until the
graph changes.

A graph can also be held in *bulk form*: the items, a node-weight array
and the edges as index arrays in insertion order, with no per-item
dicts.  The online adaptation engine's snapshots and
:meth:`CSRGraph.to_preference_graph` produce this form, and
:meth:`repro.clickstream.drift.GraphDelta.apply_to` merges a delta into
its arrays.  The refresh path (``n_items``, ``n_edges``, ``len()``,
``items()``, ``validate``, ``to_csr`` and delta merges) runs on the
arrays; any other method first builds the dicts, exactly as
``add_item``/``add_edge`` in insertion order would have, and the graph
stays dict-backed from then on.
"""

from __future__ import annotations

import math
import threading
from itertools import repeat
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Tuple

import numpy as np

from ..errors import GraphValidationError, UnknownItemError
from .csr import CSRGraph, key_positions
from .variants import Variant

#: Item identifiers may be any hashable value (strings in practice).
Item = Hashable

#: Tolerance used when checking probability invariants.
WEIGHT_TOLERANCE = 1e-9

#: The dict state of a graph, absent while it is held in bulk form.
_DICT_STATE = ("_node_weight", "_out", "_in", "_edge_count")

#: Held while a graph's bulk form is replaced (by its built dicts or by
#: merged arrays), so that neither replacement overwrites the other.
_SWAP_LOCK = threading.Lock()


class _Arrays:
    """A graph in bulk form: items, node weights, edges in insertion order.

    ``src`` and ``dst`` index ``items``, and ``index`` maps each item to
    its position; every item is distinct and every edge is a distinct
    ordered pair.  An instance is never changed (a merge makes a new
    one), so its CSR, built on first use, stays valid for as long as the
    instance lives.
    """

    __slots__ = ("items", "index", "node_weight", "src", "dst", "weight",
                 "_csr")

    def __init__(self, items, index, node_weight, src, dst, weight) -> None:
        self.items = items
        self.index = index
        self.node_weight = node_weight
        self.src = src
        self.dst = dst
        self.weight = weight
        self._csr = None

    def fits(self) -> bool:
        """Whether ``add_item`` then ``add_edge`` over these entries, in
        order, would accept each one and add it as new."""
        n = len(self.items)
        if len(self.index) != n:  # a repeated item
            return False
        if not np.all(self.node_weight >= 0.0):  # also false for NaN
            return False
        src, dst, weight = self.src, self.dst, self.weight
        if np.any(src == dst) or not np.all((weight > 0.0) & (weight <= 1.0)):
            return False
        keys = np.sort(src * n + dst)
        return not np.any(keys[1:] == keys[:-1])

    def csr(self) -> CSRGraph:
        """The CSR form, bitwise equal to ``from_preference_graph``'s.

        Stably sorting the edges by source gives out-rows in insertion
        order and in-rows by ascending source index, the layout
        ``from_preference_graph`` reads off the dicts.
        """
        if self._csr is None:
            order = np.argsort(self.src, kind="stable")
            self._csr = CSRGraph._from_coo(
                self.node_weight, self.src[order], self.dst[order],
                self.weight[order], list(self.items),
            )
        return self._csr

    def valid(self, variant: Variant, tolerance: float) -> bool:
        """``validate``'s checks, with the dict path's arithmetic."""
        if not self.items:
            return False
        # Builtin sum over the weights in item order, as the dicts add
        # them (numpy's pairwise sum can differ in the last bits).
        total = sum(self.node_weight.tolist())
        if abs(total - 1.0) > tolerance:
            return False
        weight = self.weight
        if not np.all((weight > 0.0) & (weight <= 1.0 + tolerance)):
            return False
        if variant is Variant.NORMALIZED and weight.size:
            # np.add.at adds each source's weights in out-row order, the
            # order the dict path sums them in.
            if self.csr().out_weight_sums().max() > 1.0 + tolerance:
                return False
        return True

    def dicts(self) -> dict:
        """The dict state ``add_item``/``add_edge`` in order would give."""
        items = self.items
        out = {item: {} for item in items}
        into = {item: {} for item in items}
        for source, target, weight in zip(
            map(items.__getitem__, self.src.tolist()),
            map(items.__getitem__, self.dst.tolist()),
            self.weight.tolist(),
        ):
            out[source][target] = weight
            into[target][source] = weight
        return {
            "_node_weight": dict(zip(items, self.node_weight.tolist())),
            "_out": out,
            "_in": into,
            "_edge_count": len(self.weight),
            "_csr": self._csr,
        }

    def merged(self, node_weights, edge_updates, edge_removals):
        """The arrays after ``add_item`` over ``node_weights``, then
        ``add_edge`` over ``edge_updates``, then ``remove_edge`` over
        ``edge_removals``, one entry at a time.

        An updated edge keeps its position, a new item or edge goes to
        the end, and a removed edge leaves the order.  Returns ``None``
        when an entry is not a plain, valid one (the caller then replays
        the entries to find the error); otherwise the new arrays, or
        these ones when there are no entries.
        """
        if not (node_weights or edge_updates or edge_removals):
            return self
        index = self.index
        items = self.items
        n = len(items)
        try:
            keys = list(node_weights)
            values = np.fromiter(
                map(float, node_weights.values()), np.float64, len(keys)
            )
            at = np.fromiter(map(index.get, keys, repeat(-1)), np.int64,
                             len(keys))
            if any(len(entry) != 3 for entry in edge_updates) or any(
                len(entry) != 2 for entry in edge_removals
            ):
                return None
            sources, targets, weights = (
                zip(*edge_updates) if edge_updates else ((), (), ())
            )
            weights = np.fromiter(map(float, weights), np.float64,
                                  len(edge_updates))
        except (TypeError, ValueError):
            return None
        if not np.all(values >= 0.0):
            return None

        fresh = at < 0
        added = [keys[j] for j in np.flatnonzero(fresh).tolist()]
        size = n + len(added)
        node_weight = np.empty(size, dtype=np.float64)
        node_weight[:n] = self.node_weight
        node_weight[at[~fresh]] = values[~fresh]
        node_weight[n:] = values[fresh]
        if added:
            index = dict(index)
            index.update(zip(added, range(n, size)))

        def positions(ids) -> np.ndarray:
            return np.fromiter(map(index.get, ids, repeat(-1)), np.int64,
                               len(ids))

        try:
            usrc, udst = positions(sources), positions(targets)
            removals = tuple(zip(*edge_removals)) or ((), ())
            rsrc, rdst = positions(removals[0]), positions(removals[1])
        except TypeError:  # an unhashable id
            return None
        if (
            np.any(usrc < 0) or np.any(udst < 0) or np.any(usrc == udst)
            or not np.all((weights > 0.0) & (weights <= 1.0))
            or np.any(rsrc < 0) or np.any(rdst < 0)
        ):
            return None

        src, dst, weight = self.src, self.dst, self.weight
        key = src * size + dst
        if len(weights):
            # One entry per updated pair: its last weight, and its first
            # position for a pair that is new.
            ukey = usrc * size + udst
            order = np.argsort(ukey, kind="stable")
            sorted_keys = ukey[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
            )
            ends = np.r_[starts[1:], len(ukey)] - 1
            first, ukey = order[starts], sorted_keys[starts]
            uweight = weights[order[ends]]
            slot = key_positions(key, ukey)
            found = slot >= 0
            weight = weight.copy()
            weight[slot[found]] = uweight[found]
            new = np.flatnonzero(~found)
            new = new[np.argsort(first[new], kind="stable")]
            key = np.concatenate((key, ukey[new]))
            src = np.concatenate((src, ukey[new] // size))
            dst = np.concatenate((dst, ukey[new] % size))
            weight = np.concatenate((weight, uweight[new]))
        if len(rsrc):
            slot = key_positions(key, rsrc * size + rdst)
            if np.any(slot < 0) or np.unique(slot).size != slot.size:
                return None  # an absent edge, or one removed twice
            keep = np.ones(len(key), dtype=bool)
            keep[slot] = False
            src, dst, weight = src[keep], dst[keep], weight[keep]
        return _Arrays(items + added, index, node_weight, src, dst, weight)


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
        # The CSR form, built on first use; any mutation drops it.
        self._csr = None
        # The bulk form; set only while the dicts above are not built.
        self._arrays = None

    @classmethod
    def _of(cls, arrays: _Arrays) -> "PreferenceGraph":
        """A graph held in bulk form by ``arrays``, with no dicts."""
        graph = cls.__new__(cls)
        graph.__dict__.update(_validated=set(), _csr=None, _arrays=arrays)
        return graph

    @classmethod
    def _from_arrays(cls, items, node_weight, src, dst, weight, index):
        """The graph ``add_item`` over ``items``, then ``add_edge`` over
        the edges, in order, would build, in bulk form.

        ``src``/``dst`` (int64) index ``items``; ``node_weight`` and
        ``weight`` are float64; ``index`` is
        ``dict(zip(items, range(len(items))))``, kept unchanged from
        then on.  When an entry would be rejected, or merged into an
        earlier one (a repeated item or edge), the graph is built
        through those methods instead, so the same first entry raises
        the same error.
        """
        arrays = _Arrays(items, index, node_weight, src, dst, weight)
        if arrays.fits():
            return cls._of(arrays)
        graph = cls()
        for item, value in zip(items, node_weight.tolist()):
            graph.add_item(item, value)
        for source, target, value in zip(
            src.tolist(), dst.tolist(), weight.tolist()
        ):
            graph.add_edge(items[source], items[target], value)
        return graph

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the dicts of a graph in
        # bulk form, built on first use.  They are installed only if the
        # arrays they were built from are still the graph's (a delta
        # merged meanwhile means building again), in one dict update
        # that drops the arrays, so another thread sees either form
        # whole.
        if name in _DICT_STATE:
            while True:
                arrays = self.__dict__.get("_arrays")
                if arrays is None:  # dict-backed, or built meanwhile
                    if name in self.__dict__:
                        return self.__dict__[name]
                    break
                state = arrays.dicts()
                if self._swap(arrays, **state, _arrays=None):
                    return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _swap(self, arrays: _Arrays, **state) -> bool:
        """Update the attributes to ``state`` in one step, provided the
        graph is still held in bulk form by ``arrays``."""
        with _SWAP_LOCK:
            if self.__dict__.get("_arrays") is not arrays:
                return False
            self.__dict__.update(state)
            return True

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
        self._csr = None

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
        self._csr = None

    def remove_edge(self, source: Item, target: Item) -> None:
        """Remove the edge ``source -> target`` (KeyError if absent)."""
        try:
            del self._out[source][target]
            del self._in[target][source]
        except KeyError as exc:
            raise UnknownItemError((source, target)) from exc
        self._edge_count -= 1
        self._validated.clear()
        self._csr = None

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
        self._csr = None

    def _apply_updates(self, node_weights, edge_updates, edge_removals):
        """:meth:`add_item` over ``node_weights``, :meth:`add_edge` over
        ``edge_updates``, then :meth:`remove_edge` over ``edge_removals``
        — all or nothing.

        A graph in bulk form gets the entries merged into new arrays,
        swapped in at once.  Otherwise (and for entries the merge does
        not take) the entries are first replayed on a scratch graph, so
        a bad one raises its error before anything has changed, and
        then applied one by one.
        """
        entries = (node_weights, tuple(edge_updates), tuple(edge_removals))
        while True:
            arrays = self._arrays
            if arrays is None:
                self._rehearse(*entries)
                break
            merged = arrays.merged(*entries)
            if merged is None:
                # Rehearse on a copy sharing the arrays, leaving ours
                # intact.
                PreferenceGraph._of(arrays)._rehearse(*entries)
                break
            if merged is arrays or self._swap(
                arrays, _arrays=merged, _validated=set()
            ):
                return
            # The dicts were built from ``arrays`` meanwhile: go again.
        node_weights, edge_updates, edge_removals = entries
        for item, weight in node_weights.items():
            self.add_item(item, weight)
        for source, target, weight in edge_updates:
            self.add_edge(source, target, weight)
        for source, target in edge_removals:
            self.remove_edge(source, target)

    def _rehearse(self, node_weights, edge_updates, edge_removals) -> None:
        """Raise what applying the entries one by one would raise.

        Replays them on a scratch graph that copies in each item and
        edge of this graph as the entries first touch it; this graph is
        not changed.
        """
        scratch = PreferenceGraph()

        def mirror(*items) -> None:
            for item in items:
                if item not in scratch and item in self:
                    scratch.add_item(item, 0.0)

        for item, weight in node_weights.items():
            scratch.add_item(item, weight)
        for source, target, weight in edge_updates:
            mirror(source, target)
            scratch.add_edge(source, target, weight)
        mirrored = set()
        for source, target in edge_removals:
            if (source, target) not in mirrored \
                    and self.has_edge(source, target):
                mirrored.add((source, target))
                mirror(source, target)
                if not scratch.has_edge(source, target):
                    scratch.add_edge(source, target, 1.0)
            scratch.remove_edge(source, target)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of items (nodes)."""
        arrays = self._arrays
        if arrays is not None:
            return len(arrays.items)
        return len(self._node_weight)

    @property
    def n_edges(self) -> int:
        """Number of directed preference edges."""
        arrays = self._arrays
        if arrays is not None:
            return len(arrays.weight)
        return self._edge_count

    def __len__(self) -> int:
        return self.n_items

    def __contains__(self, item: Item) -> bool:
        return item in self._node_weight

    def __iter__(self) -> Iterator[Item]:
        return self.items()

    def items(self) -> Iterator[Item]:
        """Iterate over item ids in insertion order."""
        arrays = self._arrays
        if arrays is not None:
            return iter(arrays.items)
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
        arrays = self._arrays
        if arrays is None or not arrays.valid(variant, tolerance):
            # The dict path: the reference, and the one that names the
            # first failing entry (a bulk graph builds its dicts here).
            self._validate_dicts(variant, tolerance)
        if tolerance == 1e-6:
            self._validated.add(variant)

    def _validate_dicts(self, variant: Variant, tolerance: float) -> None:
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

    def is_validated(self, variant: "Variant | str") -> bool:
        """Whether :meth:`validate` succeeded since the last mutation."""
        return Variant.coerce(variant) in self._validated

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """The immutable array-backed representation.

        Built on first use and returned again until the graph changes;
        a graph in bulk form builds it from its arrays.
        """
        arrays = self._arrays
        if arrays is not None:
            return arrays.csr()
        csr = self._csr
        if csr is None:
            csr = self._csr = CSRGraph.from_preference_graph(self)
        return csr

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
        arrays = self._arrays
        if arrays is not None:
            return PreferenceGraph._of(arrays)  # arrays are never changed
        clone = PreferenceGraph()
        # Copied as they are: re-adding edges would reorder ``_in``.
        clone._node_weight = dict(self._node_weight)
        clone._out = {item: dict(row) for item, row in self._out.items()}
        clone._in = {item: dict(row) for item, row in self._in.items()}
        clone._edge_count = self._edge_count
        return clone

    def __repr__(self) -> str:
        return (
            f"PreferenceGraph(n_items={self.n_items}, "
            f"n_edges={self.n_edges})"
        )
