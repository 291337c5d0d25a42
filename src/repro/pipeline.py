"""End-to-end inventory reduction system (paper Section 5.1, Figure 2).

The architecture chains two modules: the **Data Adaptation Engine**
turns raw clickstream data into a preference graph (choosing the variant
from the data when asked to), and the **Preference Cover Solver** runs
the greedy algorithm to produce the ordered list of retained items with
its coverage metadata.  :class:`InventoryReducer` is that flow as one
object; :class:`RetainedInventoryReport` is the system's output — the
retained list, the achieved cover, and the per-item coverage table
(retained items at 100%, everything else at its covered share).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Hashable, List, Optional, Union

from .adaptation.engine import AdaptationConfig, DataAdaptationEngine
from .adaptation.variant_selection import (
    VariantRecommendation,
    recommend_variant,
)
from .clickstream.models import Clickstream
from .core.csr import as_csr
from .core.graph import PreferenceGraph
from .core.greedy import greedy_solve
from .core.result import SolveResult
from .core.threshold import greedy_threshold_solve
from .core.variants import Variant
from .errors import SolverError
from .observability import coerce_tracer


@dataclass(frozen=True)
class ItemCoverageRow:
    """Per-item line of the system's output table."""

    item: Hashable
    retained: bool
    request_probability: float
    coverage: float  # P(matched | requested), retained items = 1.0


@dataclass(frozen=True)
class RetainedInventoryReport:
    """Everything the Figure 2 system emits for one run.

    Attributes:
        variant: the variant that was solved (chosen from data when the
            reducer ran in ``variant="auto"`` mode).
        recommendation: the variant-selection analysis (None when the
            variant was fixed by the caller).
        graph: the preference graph the adaptation engine built.
        result: the solver output (ordered retained list + metadata).
        k_clamped_from: the originally requested ``k`` when it exceeded
            the catalog size and was clamped down (``None`` otherwise).
    """

    variant: Variant
    recommendation: Optional[VariantRecommendation]
    graph: PreferenceGraph
    result: SolveResult
    k_clamped_from: Optional[int] = None

    @property
    def retained(self) -> List[Hashable]:
        """Retained items in selection order."""
        return list(self.result.retained)

    @property
    def cover(self) -> float:
        """The achieved cover ``C(S)``."""
        return self.result.cover

    def item_table(self) -> List[ItemCoverageRow]:
        """Coverage rows for every item, most-requested first."""
        csr = as_csr(self.graph)
        conditional = self.result.item_coverage(csr.node_weight)
        retained_set = set(self.result.retained)
        rows = [
            ItemCoverageRow(
                item=item,
                retained=item in retained_set,
                request_probability=float(csr.node_weight[index]),
                coverage=float(conditional[index]),
            )
            for index, item in enumerate(csr.items)
        ]
        rows.sort(key=lambda row: -row.request_probability)
        return rows

    def summary(self) -> str:
        """Human-readable run summary."""
        lines = [
            f"variant            : {self.variant.value}",
            f"catalog items      : {self.graph.n_items}",
            f"retained items     : {len(self.result.retained)}",
            f"achieved cover C(S): {self.cover:.4f}",
            f"solver             : {self.result.strategy} "
            f"({self.result.wall_time_s:.3f}s)",
        ]
        if self.k_clamped_from is not None:
            lines.append(
                f"requested k        : {self.k_clamped_from} "
                f"(clamped to the {self.graph.n_items}-item catalog)"
            )
        if self.result.interrupted:
            lines.append(
                f"interrupted        : {self.result.interrupted_reason} "
                f"(partial but valid greedy prefix)"
            )
        if self.recommendation is not None:
            rec = self.recommendation
            score = (
                "n/a" if rec.independence_score is None
                else f"{rec.independence_score:.4f}"
            )
            lines.append(
                f"variant selection  : normalized_fit="
                f"{rec.normalized_fit:.4f}, independence_score={score}, "
                f"fits={rec.fits}"
            )
        return "\n".join(lines)


class InventoryReducer:
    """The end-to-end system: clickstream in, retained inventory out.

    Exactly one of ``k`` (maximization: best cover with at most ``k``
    items) or ``threshold`` (complementary minimization: fewest items
    reaching the cover threshold) must be provided.

    ``variant="auto"`` applies the paper's data-driven variant selection
    before building the graph (the variant affects the adaptation step's
    click normalization, so it must be fixed first).

    ``checkpoint`` (a directory or
    :class:`~repro.resilience.Checkpointer`) and ``guard`` (a
    :class:`~repro.resilience.RunGuard`) are forwarded to the solver;
    an interrupted run surfaces in
    :meth:`RetainedInventoryReport.summary`.
    """

    def __init__(
        self,
        *,
        k: Optional[int] = None,
        threshold: Optional[float] = None,
        variant: Union[Variant, str] = "auto",
        min_edge_sessions: int = 1,
        min_edge_weight: float = 0.0,
        strategy: str = "auto",
        must_retain: Optional[list] = None,
        exclude: Optional[list] = None,
        tracer=None,
        checkpoint=None,
        guard=None,
    ) -> None:
        if (k is None) == (threshold is None):
            raise SolverError(
                "provide exactly one of k (maximization) or threshold "
                "(complementary minimization)"
            )
        if threshold is not None and (must_retain or exclude):
            raise SolverError(
                "must_retain/exclude constraints require the fixed-k "
                "objective"
            )
        self.k = k
        self.threshold = threshold
        self.auto_variant = isinstance(variant, str) and variant == "auto"
        self.variant = None if self.auto_variant else Variant.coerce(variant)
        self.min_edge_sessions = min_edge_sessions
        self.min_edge_weight = min_edge_weight
        self.strategy = strategy
        self.must_retain = list(must_retain) if must_retain else None
        self.exclude = list(exclude) if exclude else None
        self.tracer = coerce_tracer(tracer)
        self.checkpoint = checkpoint
        self.guard = guard

    # ------------------------------------------------------------------
    def run(self, clickstream: Clickstream) -> RetainedInventoryReport:
        """Execute the full Figure 2 flow on a clickstream."""
        tracer = self.tracer
        recommendation = None
        if self.auto_variant:
            with tracer.span("pipeline.recommend_variant"):
                recommendation = recommend_variant(clickstream)
            variant = recommendation.variant
        else:
            variant = self.variant
        assert variant is not None

        engine = DataAdaptationEngine(
            AdaptationConfig(
                variant=variant,
                min_edge_sessions=self.min_edge_sessions,
                min_edge_weight=self.min_edge_weight,
            )
        )
        with tracer.span("pipeline.build_graph"):
            graph = engine.build_graph(clickstream, tracer=tracer)
            graph.validate(variant)
        result = self.solve_graph(graph, variant)
        with tracer.span("pipeline.report"):
            report = RetainedInventoryReport(
                variant=variant,
                recommendation=recommendation,
                graph=graph,
                result=result,
                k_clamped_from=self._k_clamped_from(graph),
            )
        return report

    def run_graph(
        self, graph: PreferenceGraph, variant: Union[Variant, str]
    ) -> RetainedInventoryReport:
        """Skip adaptation and solve a pre-built preference graph."""
        variant = Variant.coerce(variant)
        graph.validate(variant)
        result = self.solve_graph(graph, variant)
        return RetainedInventoryReport(
            variant=variant,
            recommendation=None,
            graph=graph,
            result=result,
            k_clamped_from=self._k_clamped_from(graph),
        )

    def _k_clamped_from(self, graph) -> Optional[int]:
        """The requested ``k`` when it exceeds the catalog (else None)."""
        if self.k is not None and self.k > graph.n_items:
            return self.k
        return None

    def solve_graph(self, graph, variant: Variant) -> SolveResult:
        """Dispatch to the fixed-k or threshold solver."""
        with self.tracer.span("pipeline.solve"):
            if self.k is not None:
                n_items = graph.n_items
                k = min(self.k, n_items)
                if k < self.k:
                    # Clamping is recoverable (retaining the whole
                    # catalog is a valid answer) but must not be silent:
                    # the caller asked for more items than exist.
                    warnings.warn(
                        f"k={self.k} exceeds the catalog size "
                        f"({n_items} items); solving with k={n_items}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    if self.tracer.enabled:
                        self.tracer.incr("pipeline.k_clamped")
                return greedy_solve(
                    graph, k=k, variant=variant, strategy=self.strategy,
                    must_retain=self.must_retain, exclude=self.exclude,
                    tracer=self.tracer, checkpoint=self.checkpoint,
                    guard=self.guard,
                )
            assert self.threshold is not None
            return greedy_threshold_solve(
                graph, threshold=self.threshold, variant=variant,
                tracer=self.tracer, checkpoint=self.checkpoint,
                guard=self.guard,
            )
