"""Immutable solve snapshots and the LRU+TTL store that caches them.

A :class:`SolutionSnapshot` freezes everything the serving layer needs
to answer assortment queries without re-solving: the solved graph (CSR),
the :class:`~repro.core.result.SolveResult`, the retained-set membership
mask and the *conditional* per-item coverage vector (``I[v] / W(v)``,
computed by :func:`repro.core.cover.item_coverage` — the same function
the offline differential check recomputes with, which is what makes the
served answers bitwise-identical to an offline recomputation).

:class:`SolutionStore` keeps recent snapshots keyed by their full
context digest ``(graph, variant, stopping rule, params)`` with LRU
eviction and optional TTL expiry.  Lookups and inserts take a lock only
around the dict bookkeeping; the snapshots themselves are immutable, so
a reference obtained from the store stays valid forever — eviction only
drops the store's reference, never invalidates the caller's.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.cover import item_coverage
from ..core.csr import CSRGraph
from ..core.result import SolveResult
from ..core.variants import Variant


@dataclass(frozen=True)
class SolutionSnapshot:
    """One immutable solved assortment, ready to answer queries.

    Attributes:
        key: the solve's full context digest (see
            :func:`repro.core.context.solve_context_digest`); equal keys
            mean the same question about the same graph.
        graph: the immutable CSR graph the solve ran on.
        variant: the Preference Cover variant solved.
        result: the solver output (stable ``selected`` / ``coverage`` /
            ``telemetry`` / ``context_digest`` contract).
        conditional: per-item conditional coverage ``I[v] / W(v)`` —
            the probability a request for item ``v`` is matched by the
            retained set (1.0 for retained items).
        retained_mask: boolean membership vector over dense indices.
        sequence: delta-feed position this snapshot incorporates.
        created_at: store-clock timestamp at construction (monotonic
            seconds by default; only differences are meaningful).
    """

    key: str
    graph: CSRGraph
    variant: Variant
    result: SolveResult
    conditional: np.ndarray
    retained_mask: np.ndarray
    sequence: int = 0
    created_at: float = 0.0

    @classmethod
    def build(
        cls,
        key: str,
        graph: CSRGraph,
        variant: Variant,
        result: SolveResult,
        *,
        sequence: int = 0,
        created_at: float = 0.0,
    ) -> "SolutionSnapshot":
        """Derive the query-time vectors from a fresh solve result.

        The conditional coverage is recomputed from the retained set by
        :func:`~repro.core.cover.item_coverage` rather than taken from
        ``result.coverage``, so snapshots built from *any* solver path
        (greedy, threshold, interrupted prefix) satisfy the serving
        layer's differential guarantee by construction.
        """
        conditional = item_coverage(graph, result.retained, variant)
        conditional.setflags(write=False)
        retained_mask = np.zeros(graph.n_items, dtype=bool)
        retained_mask[result.retained_indices] = True
        retained_mask.setflags(write=False)
        return cls(
            key=key,
            graph=graph,
            variant=variant,
            result=result,
            conditional=conditional,
            retained_mask=retained_mask,
            sequence=sequence,
            created_at=created_at,
        )

    # ------------------------------------------------------------------
    @property
    def retained(self) -> List[Hashable]:
        """Retained item ids in selection order."""
        return self.result.selected

    @property
    def cover(self) -> float:
        """The snapshot's achieved cover ``C(S)``."""
        return self.result.cover

    def index_of(self, item: Hashable) -> int:
        """Dense index of ``item`` (UnknownItemError when absent)."""
        return self.graph.index_of(item)

    def covered_probability(self, item: Hashable) -> float:
        """Probability a request for ``item`` is matched by the assortment."""
        return float(self.conditional[self.graph.index_of(item)])

    def covered_probability_many(self, items) -> np.ndarray:
        """Vectorized :meth:`covered_probability` over an item batch."""
        indices = np.fromiter(
            (self.graph.index_of(item) for item in items),
            dtype=np.int64,
        )
        return self.conditional[indices]

    def is_retained(self, item: Hashable) -> bool:
        """Whether ``item`` is in the retained set."""
        return bool(self.retained_mask[self.graph.index_of(item)])

    def top_alternatives(
        self, item: Hashable, limit: int = 5
    ) -> List[Tuple[Hashable, float]]:
        """Retained substitutes for ``item``, best acceptance first.

        O(out-degree of ``item``): scans the precomputed out-CSR row,
        keeps the retained targets and sorts that (tiny) slice by edge
        weight descending.  Retained items return an empty list — the
        request is served by the item itself.
        """
        index = self.graph.index_of(item)
        if self.retained_mask[index]:
            return []
        targets, weights = self.graph.out_edges(index)
        mask = self.retained_mask[targets]
        targets, weights = targets[mask], weights[mask]
        order = np.argsort(-weights, kind="stable")[:limit]
        return [
            (self.graph.items[int(t)], float(w))
            for t, w in zip(targets[order], weights[order])
        ]


class SolutionStore:
    """LRU+TTL cache of :class:`SolutionSnapshot`, keyed by context digest.

    Thread-safe; the lock guards only dict bookkeeping, so a ``get`` is
    O(1) regardless of snapshot sizes.  ``clock`` is injectable (it
    defaults to :func:`time.monotonic`) so tests drive TTL expiry
    deterministically instead of sleeping.
    """

    def __init__(
        self,
        capacity: int = 8,
        *,
        ttl_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.clock = clock
        self.metrics = metrics
        self._lock = threading.Lock()
        self._snapshots: "OrderedDict[str, SolutionSnapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    def _incr(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.incr(name)

    def now(self) -> float:
        """Current store-clock reading."""
        return self.clock()

    def get(
        self, key: str, *, record: bool = True
    ) -> Optional[SolutionSnapshot]:
        """The live snapshot under ``key``, or ``None`` (miss/expired).

        ``record=False`` skips the hit/miss tally — used for the second
        probe of a double-checked solve so one cold lookup counts one
        miss, not two.
        """
        with self._lock:
            snapshot = self._snapshots.get(key)
            if snapshot is not None and self.ttl_s is not None \
                    and self.clock() - snapshot.created_at > self.ttl_s:
                del self._snapshots[key]
                self.expirations += 1
                self._incr("serving.store.expirations")
                snapshot = None
            if snapshot is None:
                if record:
                    self.misses += 1
                    self._incr("serving.store.misses")
                return None
            self._snapshots.move_to_end(key)
            if record:
                self.hits += 1
                self._incr("serving.store.hits")
            return snapshot

    def put(self, snapshot: SolutionSnapshot) -> SolutionSnapshot:
        """Insert (or replace) a snapshot, evicting LRU beyond capacity."""
        with self._lock:
            self._snapshots[snapshot.key] = snapshot
            self._snapshots.move_to_end(snapshot.key)
            while len(self._snapshots) > self.capacity:
                self._snapshots.popitem(last=False)
                self.evictions += 1
                self._incr("serving.store.evictions")
        return snapshot

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` if present; True when something was removed."""
        with self._lock:
            return self._snapshots.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every snapshot (counters are kept)."""
        with self._lock:
            self._snapshots.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._snapshots

    def keys(self) -> List[str]:
        """Cached keys, least- to most-recently used."""
        with self._lock:
            return list(self._snapshots)

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0 when never queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict:
        """Plain-python counter snapshot (JSON-serializable)."""
        with self._lock:
            size = len(self._snapshots)
        return {
            "size": size,
            "capacity": self.capacity,
            "ttl_s": self.ttl_s,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }

    def __repr__(self) -> str:
        return (
            f"SolutionStore(size={len(self)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
