"""Temporal drift: evolving consumer populations over periods.

The paper's conclusion names "incremental maintenance in response to
changes over time" as ongoing work.  To exercise that direction end to
end, this module evolves a :class:`~repro.clickstream.generator.ConsumerModel`
across discrete periods (think weeks):

* item popularity follows a multiplicative log-normal random walk
  (renormalized each period) — sales ranks churn gradually;
* optionally, a small fraction of acceptance probabilities is
  re-drawn — substitution preferences drift too.

Each period yields a fresh clickstream and the corresponding
ground-truth preference graph.  :func:`graph_delta` turns two graphs
into a :class:`GraphDelta`, which an
:class:`~repro.serving.AssortmentService` merges into its graph before
one cold re-solve of the merged CSR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Hashable, Iterator, Mapping, Optional, Tuple

import numpy as np

from .._rng import SeedLike, resolve_rng, spawn_rng
from ..core.csr import as_csr, key_positions
from ..core.graph import PreferenceGraph
from ..errors import ClickstreamFormatError
from .generator import ConsumerModel, ShopperConfig
from .models import Clickstream


@dataclass(frozen=True)
class DriftConfig:
    """How fast the market moves per period.

    Attributes:
        popularity_sigma: standard deviation of the log-normal
            multiplicative shock applied to each item's popularity per
            period (0.1 = gentle churn, 0.5 = volatile market).
        acceptance_churn: fraction of items whose alternative-acceptance
            probabilities are re-drawn each period.
    """

    popularity_sigma: float = 0.15
    acceptance_churn: float = 0.02

    def __post_init__(self) -> None:
        if self.popularity_sigma < 0:
            raise ClickstreamFormatError("popularity_sigma must be >= 0")
        if not (0.0 <= self.acceptance_churn <= 1.0):
            raise ClickstreamFormatError(
                "acceptance_churn must be in [0, 1]"
            )


@dataclass(frozen=True)
class GraphDelta:
    """A batch of point updates turning one preference graph into another.

    This is the serving layer's invalidation currency: a delta feed
    (consecutive periods of a :class:`DriftingMarket`, a diff of two
    observed graphs, or a synthetic :func:`random_delta`) tells the
    :class:`~repro.serving.AssortmentService` that its active snapshot
    no longer describes the market, triggering a cold re-solve of the
    updated graph.

    Attributes:
        node_weights: items whose request probability changed, mapped to
            the new weight (items unknown to the target graph are
            inserted).
        edge_updates: ``(source, target, weight)`` triples to upsert.
        edge_removals: ``(source, target)`` pairs to delete.
        sequence: monotonically increasing feed position; consumers use
            it to discard stale or duplicated deltas.
    """

    node_weights: Mapping[Hashable, float] = field(default_factory=dict)
    edge_updates: Tuple[Tuple[Hashable, Hashable, float], ...] = ()
    edge_removals: Tuple[Tuple[Hashable, Hashable], ...] = ()
    sequence: int = 0

    @property
    def is_empty(self) -> bool:
        """True when applying the delta would change nothing."""
        return not (
            self.node_weights or self.edge_updates or self.edge_removals
        )

    @property
    def n_changes(self) -> int:
        """Total number of point updates carried by the delta."""
        return (
            len(self.node_weights)
            + len(self.edge_updates)
            + len(self.edge_removals)
        )

    def apply_to(self, graph: PreferenceGraph) -> PreferenceGraph:
        """Apply every update to ``graph`` in place and return it.

        Node weights go first (new items are appended in delta order),
        then edge upserts (an existing edge keeps its position, a new
        one is appended), and removals run last, so an update+removal
        pair in one delta nets to the removal (matching how
        :func:`graph_delta` emits diffs).

        All or nothing: the whole delta is checked before the graph
        changes, so a bad entry raises the error ``add_item``,
        ``add_edge`` or ``remove_edge`` would raise for it and leaves
        ``graph`` as it was.  A malformed entry (a wrong arity, a
        weight ``float()`` rejects, an unhashable id) raises
        :class:`~repro.errors.ClickstreamFormatError` naming it, as
        :meth:`from_dict` does for a wire delta.  A graph in bulk form
        has the delta merged into new arrays and builds no dicts.
        """
        try:
            graph._apply_updates(
                self.node_weights, self.edge_updates, self.edge_removals
            )
        except (TypeError, ValueError):
            # Only a refused entry gets here: name it if it is malformed.
            self._reject_malformed()
            raise
        return graph

    def _reject_malformed(self) -> None:
        """Raise ClickstreamFormatError for the first malformed entry."""
        for name, entries, arity in (
            ("node_weights", self.node_weights.items(), 2),
            ("edge_updates", self.edge_updates, 3),
            ("edge_removals", self.edge_removals, 2),
        ):
            weighted = name != "edge_removals"
            for position, entry in enumerate(entries):
                try:
                    fields = tuple(entry)
                    if len(fields) != arity:
                        raise ValueError(f"{len(fields)} fields, not {arity}")
                    hash(fields[:arity - weighted])
                    if weighted:
                        float(fields[-1])
                except (TypeError, ValueError) as exc:
                    raise ClickstreamFormatError(
                        f"malformed GraphDelta entry {name}[{position}] "
                        f"= {entry!r}: {exc}"
                    ) from exc

    # -- wire form (the delta-feed transport) ---------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload; node weights as pairs to keep item types."""
        return {
            "sequence": self.sequence,
            "node_weights": [
                [item, weight] for item, weight in self.node_weights.items()
            ],
            "edge_updates": [list(edge) for edge in self.edge_updates],
            "edge_removals": [list(edge) for edge in self.edge_removals],
        }

    def to_json(self) -> str:
        """One feed line: the :meth:`to_dict` payload as compact JSON."""
        import json

        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphDelta":
        """Parse a :meth:`to_dict` payload, validating shapes strictly."""
        try:
            node_weights = {
                item: float(weight)
                for item, weight in payload.get("node_weights", [])
            }
            edge_updates = tuple(
                (source, target, float(weight))
                for source, target, weight in payload.get("edge_updates", [])
            )
            edge_removals = tuple(
                (source, target)
                for source, target in payload.get("edge_removals", [])
            )
            sequence = int(payload.get("sequence", 0))
        except (TypeError, ValueError) as exc:
            raise ClickstreamFormatError(
                f"malformed GraphDelta payload: {exc}"
            ) from exc
        return cls(
            node_weights=node_weights,
            edge_updates=edge_updates,
            edge_removals=edge_removals,
            sequence=sequence,
        )

    @classmethod
    def from_json(cls, line: str) -> "GraphDelta":
        """Parse one feed line (raises ClickstreamFormatError when corrupt)."""
        import json

        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ClickstreamFormatError(
                f"delta feed line is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ClickstreamFormatError(
                f"delta feed line must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        return cls.from_dict(payload)


def graph_delta(
    old: PreferenceGraph, new: PreferenceGraph, *, sequence: int = 0
) -> GraphDelta:
    """Diff two preference graphs into the delta turning ``old`` into ``new``.

    Node removals are not modeled (the catalog only grows in this
    system); an item present in ``old`` but absent from ``new`` raises
    :class:`~repro.errors.ClickstreamFormatError` to surface corrupt
    feeds early.

    The diff runs on the two graphs' cached CSR forms.  Node weights
    come in ``new``'s item order, edge updates in ``new``'s out-row
    order and removals in ``old``'s, with Python floats; items are
    matched by dict lookup (so ``1`` and ``1.0`` are one item).
    """
    old_csr, new_csr = as_csr(old), as_csr(new)
    items, old_items = new_csr.items, old_csr.items
    n = len(items)
    to_new = np.fromiter(
        map(new_csr._index_of.get, old_items, repeat(-1)), np.int64,
        len(old_items),
    )
    missing = np.flatnonzero(to_new < 0)
    if missing.size:
        raise ClickstreamFormatError(
            f"delta feed cannot express removal of item "
            f"{old_items[missing[0]]!r}"
        )
    before = np.full(n, np.nan)  # NaN differs from every weight
    before[to_new] = old_csr.node_weight
    changed = np.flatnonzero(before != new_csr.node_weight)
    node_weights = dict(zip(
        map(items.__getitem__, changed.tolist()),
        new_csr.node_weight[changed].tolist(),
    ))

    # Both graphs' edges as keys in new's index space, in out-row order.
    src, dst, weight = new_csr._out_sources(), new_csr.out_dst, \
        new_csr.out_weight
    old_src, old_dst = old_csr._out_sources(), old_csr.out_dst
    key = src * n + dst
    old_key = to_new[old_src] * n + to_new[old_dst]
    slot = key_positions(old_key, key)
    same = slot >= 0
    same[same] = old_csr.out_weight[slot[same]] == weight[same]
    updates = np.flatnonzero(~same)
    removals = np.flatnonzero(key_positions(key, old_key) < 0)
    return GraphDelta(
        node_weights=node_weights,
        edge_updates=tuple(zip(
            map(items.__getitem__, src[updates].tolist()),
            map(items.__getitem__, dst[updates].tolist()),
            weight[updates].tolist(),
        )),
        edge_removals=tuple(zip(
            map(old_items.__getitem__, old_src[removals].tolist()),
            map(old_items.__getitem__, old_dst[removals].tolist()),
        )),
        sequence=sequence,
    )


def random_delta(
    graph: PreferenceGraph,
    *,
    sigma: float = 0.1,
    edge_churn: float = 0.0,
    seed: SeedLike = None,
    sequence: int = 0,
) -> GraphDelta:
    """A synthetic drift step over ``graph``: log-normal popularity shocks
    plus optional edge-weight churn.

    Node weights are renormalized to sum to one after the shock, so the
    emitted delta always produces a graph that still validates.  Used by
    the serving tests and the ``repro serve`` synthetic workload.
    """
    if sigma < 0:
        raise ClickstreamFormatError("sigma must be >= 0")
    if not (0.0 <= edge_churn <= 1.0):
        raise ClickstreamFormatError("edge_churn must be in [0, 1]")
    rng = resolve_rng(seed)
    csr = as_csr(graph)
    items = csr.items
    weights = csr.node_weight
    shocked = weights * rng.lognormal(0.0, sigma, size=weights.shape) \
        if sigma > 0 else weights.copy()
    shocked /= shocked.sum()
    changed = np.flatnonzero(shocked != weights)
    node_weights = dict(zip(
        map(items.__getitem__, changed.tolist()), shocked[changed].tolist()
    ))
    edge_updates = []
    if edge_churn > 0:
        # Churned edges are only ever scaled *down*, which preserves the
        # (0, 1] range and the Normalized out-weight budget unconditionally.
        for source, target, weight in zip(
            map(items.__getitem__, csr._out_sources().tolist()),
            map(items.__getitem__, csr.out_dst.tolist()),
            csr.out_weight.tolist(),
        ):
            if rng.random() < edge_churn:
                edge_updates.append(
                    (source, target, float(weight * rng.uniform(0.5, 1.0)))
                )
    return GraphDelta(
        node_weights=node_weights,
        edge_updates=tuple(edge_updates),
        sequence=sequence,
    )


class DriftingMarket:
    """A consumer population whose preferences evolve period by period.

    Usage::

        market = DriftingMarket(ShopperConfig(n_items=500), seed=0)
        for period in range(8):
            stream = market.generate(20_000)
            truth = market.true_graph()
            ...                       # adapt / re-solve
            market.advance()          # next period
    """

    def __init__(
        self,
        shopper_config: ShopperConfig,
        drift: Optional[DriftConfig] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        self._rng = resolve_rng(seed)
        self.drift = drift or DriftConfig()
        self.model = ConsumerModel(shopper_config, seed=spawn_rng(self._rng))
        self.period = 0

    # ------------------------------------------------------------------
    def generate(self, n_sessions: int) -> Clickstream:
        """Clickstream of the current period."""
        return self.model.generate(
            n_sessions,
            seed=spawn_rng(self._rng),
            session_prefix=f"p{self.period}-s",
        )

    def true_graph(self) -> PreferenceGraph:
        """Ground-truth preference graph of the current period."""
        return self.model.true_graph()

    def advance(self) -> None:
        """Move to the next period, mutating the population in place."""
        drift = self.drift
        model = self.model
        rng = self._rng

        # Popularity random walk.
        if drift.popularity_sigma > 0:
            shocks = rng.lognormal(
                mean=0.0, sigma=drift.popularity_sigma,
                size=model.popularity.shape,
            )
            popularity = model.popularity * shocks
            model.popularity = popularity / popularity.sum()

        # Acceptance churn: re-draw a few items' acceptance vectors.
        if drift.acceptance_churn > 0:
            config = model.config
            n = config.n_items
            churned = rng.random(n) < drift.acceptance_churn
            for item in np.flatnonzero(churned).tolist():
                n_alt = model.alternatives[item].size
                if n_alt == 0:
                    continue
                if config.behavior == "independent":
                    low, high = config.acceptance_range
                    model.acceptance[item] = rng.uniform(
                        low, high, size=n_alt
                    )
                else:
                    low, high = config.normalized_budget_range
                    budget = rng.uniform(low, high)
                    model.acceptance[item] = budget * rng.dirichlet(
                        np.ones(n_alt)
                    )
        self.period += 1

    # ------------------------------------------------------------------
    def run(
        self, n_periods: int, sessions_per_period: int
    ) -> Iterator[Tuple[int, Clickstream, PreferenceGraph]]:
        """Yield ``(period, clickstream, true_graph)`` for each period.

        Advances the market after each yield; after the generator is
        exhausted the market sits at ``period == start + n_periods``.
        """
        for _ in range(n_periods):
            yield self.period, self.generate(sessions_per_period), \
                self.true_graph()
            self.advance()
