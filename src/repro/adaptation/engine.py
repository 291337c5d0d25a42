"""The Data Adaptation Engine (paper Section 5.2, Figure 2 left block).

Builds a preference graph from a clickstream of clicks and purchases per
session, following the paper's construction exactly:

* **nodes** are items; the node weight is the item's share of all
  purchases (the purchased item in a fully-stocked store is the desired
  item, so purchase share estimates request probability);
* an **edge** ``A -> B`` exists iff some session purchased ``A`` and
  clicked ``B``; its weight is the fraction of ``A``-purchasing sessions
  in which ``B`` was clicked — clicks proxy willingness to buy as an
  alternative;
* clicks on the purchased item itself are ignored, as are browse-only
  sessions (no purchase means no revealed desired item);
* under the **Normalized** variant, a session that clicked ``t > 1``
  distinct alternatives contributes ``1/t`` of a click to each (the
  paper's normalization), which guarantees each node's outgoing weights
  sum to at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.graph import PreferenceGraph
from ..core.variants import Variant
from ..errors import AdaptationError
from ..observability import coerce_tracer
from ..clickstream.models import Clickstream


@dataclass(frozen=True)
class AdaptationConfig:
    """Settings of the Data Adaptation Engine.

    Attributes:
        variant: which variant's weighting rule to apply (Normalized
            triggers the ``1/t`` click splitting).
        include_unpurchased: also add never-purchased items as
            zero-weight nodes (they can still serve as alternatives and
            be retained).  Default False: the paper's graphs contain the
            purchasable catalog.
        min_edge_sessions: discard edges supported by fewer purchasing
            sessions than this (noise control for rarely bought items;
            the paper notes such noisy edges have negligible influence
            but pruning keeps graphs small).
        min_edge_weight: discard edges lighter than this after weighting.
        correction_factor: multiply every edge weight by this factor in
            (0, 1].  Section 5.2 notes clicks *overestimate* the actual
            willingness to buy an alternative and suggests "normalizing
            the edge weights by a corrective factor" learned from richer
            signals (e.g. dwell time); this is that hook.
        laplace_alpha: add-alpha shrinkage of edge weights — the weight
            becomes ``mass / (purchases + alpha)``, pulling estimates
            from rarely purchased items (few observations, high
            variance) toward zero while leaving well-observed items
            nearly untouched.
    """

    variant: Variant = Variant.INDEPENDENT
    include_unpurchased: bool = False
    min_edge_sessions: int = 1
    min_edge_weight: float = 0.0
    correction_factor: float = 1.0
    laplace_alpha: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.correction_factor <= 1.0):
            raise AdaptationError(
                f"correction_factor must be in (0, 1], got "
                f"{self.correction_factor}"
            )
        if self.laplace_alpha < 0.0:
            raise AdaptationError(
                f"laplace_alpha must be >= 0, got {self.laplace_alpha}"
            )


class DataAdaptationEngine:
    """Clickstream -> preference graph, per the paper's recipe."""

    def __init__(self, config: Optional[AdaptationConfig] = None) -> None:
        self.config = config or AdaptationConfig()

    def build_graph(
        self, clickstream: Clickstream, *, tracer=None
    ) -> PreferenceGraph:
        """Construct the preference graph for ``clickstream``.

        Raises :class:`AdaptationError` when the stream contains no
        purchases (node weights would be undefined).  When a ``tracer``
        is supplied the engine records session/edge counters under the
        ``adaptation.*`` metric prefix.  The build is one fold into a
        fresh :class:`~repro.adaptation.online.OnlineAdaptationEngine`
        plus its snapshot, on the stream's :meth:`~Clickstream.encoding`,
        which the variant-fitness tests share.
        """
        from .online import OnlineAdaptationEngine  # it imports this module

        tracer = coerce_tracer(tracer)
        total_purchases = clickstream.n_purchases
        if total_purchases == 0:
            raise AdaptationError(
                "clickstream contains no purchasing sessions; cannot "
                "estimate item popularity"
            )
        engine = OnlineAdaptationEngine(self.config)
        engine.observe_all(clickstream)
        graph = engine.snapshot()
        if tracer.enabled:
            n_sessions = len(clickstream)
            tracer.incr("adaptation.sessions", n_sessions)
            tracer.incr("adaptation.purchasing_sessions", total_purchases)
            tracer.incr("adaptation.candidate_edges", engine._keys.size)
            tracer.incr("adaptation.edges_kept", graph.n_edges)
            tracer.incr("adaptation.items", graph.n_items)
            tracer.event(
                "adaptation.graph_built", items=graph.n_items,
                edges=graph.n_edges, sessions=n_sessions,
                purchasing_sessions=total_purchases,
            )
        return graph


def build_preference_graph(
    clickstream: Clickstream,
    variant: "Variant | str" = Variant.INDEPENDENT,
    *,
    include_unpurchased: bool = False,
    min_edge_sessions: int = 1,
    min_edge_weight: float = 0.0,
) -> PreferenceGraph:
    """One-call convenience wrapper around :class:`DataAdaptationEngine`."""
    config = AdaptationConfig(
        variant=Variant.coerce(variant),
        include_unpurchased=include_unpurchased,
        min_edge_sessions=min_edge_sessions,
        min_edge_weight=min_edge_weight,
    )
    return DataAdaptationEngine(config).build_graph(clickstream)
