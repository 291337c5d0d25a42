"""Solver output: the retained set and its coverage metadata.

Mirrors the output of the Preference Cover Solver in the paper's system
architecture (Figure 2): the ordered list of retained items, the achieved
cover ``C(S)``, and the per-item coverage implied by the array ``I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional

import numpy as np

from ..errors import SolverError
from ..observability import Telemetry
from .variants import Variant


@dataclass(frozen=True)
class SolveResult:
    """Result of running a Preference Cover solver.

    ``SolveResult`` is a **frozen dataclass with a stable public
    contract**: the field set below only grows (new optional fields with
    defaults), existing fields never change name, type or meaning, and
    every solver and facade path returns this type.  The serving layer
    (``repro.serving``) snapshots results wholesale and depends on the
    quartet ``selected`` / ``coverage`` / ``telemetry`` /
    ``context_digest``; see ``docs/api.md`` ("API stability").

    Attributes:
        variant: the problem variant that was solved.
        k: the requested retained-set size.
        retained: retained item ids, **in the order they were selected**
            (for the greedy solver this ordering carries the prefix
            property of Section 3.2: the first ``k'`` entries solve the
            size-``k'`` problem).
        retained_indices: the same items as dense graph indices.
        cover: the achieved cover ``C(S)``.
        coverage: the paper's array ``I`` — per item, the probability of
            being requested *and* matched by ``S`` (sums to ``cover``).
        item_ids: the graph's item table, aligning ``coverage`` entries to
            item ids.
        prefix_covers: ``prefix_covers[i]`` is ``C`` of the first ``i``
            retained items (length ``k + 1``, starts at 0.0).  ``None``
            for solvers that do not build the set incrementally (BF).
        strategy: human-readable solver/strategy name.
        wall_time_s: wall-clock solve time in seconds.
        gain_evaluations: number of marginal-gain oracle calls (the
            accelerated strategy performs ``n``, the naive one about
            ``n * k``).
        telemetry: observability payload (metrics registry plus the
            optional per-iteration trace) attached by the
            :func:`repro.solve` facade; ``None`` when the solver ran
            un-instrumented.
        interrupted: ``True`` when a run guard stopped the solve before
            its objective was reached; the retained set is then the
            valid greedy prefix committed so far (see
            ``docs/resilience.md``).
        interrupted_reason: human-readable trigger (deadline / RSS
            ceiling) when ``interrupted`` is set.
        context_digest: hex fingerprint of the solve's full context —
            graph content, variant, stopping rule and parameters —
            attached by the :func:`repro.solve` facade; ``None`` when
            a solver was invoked directly.  Two results with equal digests answer the same
            question about the same graph, which is what the serving
            layer keys its snapshot cache on.
    """

    variant: Variant
    k: int
    retained: List[Hashable]
    retained_indices: np.ndarray
    cover: float
    coverage: np.ndarray
    item_ids: List[Hashable]
    prefix_covers: Optional[np.ndarray] = None
    strategy: str = ""
    wall_time_s: float = 0.0
    gain_evaluations: int = 0
    telemetry: Optional[Telemetry] = None
    interrupted: bool = False
    interrupted_reason: Optional[str] = None
    context_digest: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def selected(self) -> List[Hashable]:
        """The retained items in selection order (stable public alias).

        ``selected`` is the contract name the serving layer and external
        consumers use; it always returns a fresh list, so callers may
        mutate it freely without corrupting the frozen result.
        """
        return list(self.retained)

    # ------------------------------------------------------------------
    def item_coverage(self, node_weight: np.ndarray) -> np.ndarray:
        """Conditional per-item coverage ``I[v] / W(v)`` (0 when W(v)=0)."""
        out = np.zeros_like(self.coverage)
        positive = node_weight > 0
        out[positive] = self.coverage[positive] / node_weight[positive]
        return out

    def cover_at(self, k_prime: int) -> float:
        """Cover of the first ``k_prime`` selected items.

        Only available when the solver recorded prefix covers; this is the
        "solve once for k, read off every smaller k" advantage the paper
        highlights at the end of Section 3.2.
        """
        if self.prefix_covers is None:
            raise SolverError(
                f"{self.strategy or 'this solver'} did not record prefix "
                f"covers"
            )
        if not (0 <= k_prime < len(self.prefix_covers)):
            raise SolverError(
                f"k'={k_prime} out of range [0, {len(self.prefix_covers) - 1}]"
            )
        return float(self.prefix_covers[k_prime])

    def prefix(self, k_prime: int) -> List[Hashable]:
        """The retained items of the induced size-``k_prime`` solution."""
        if not (0 <= k_prime <= len(self.retained)):
            raise SolverError(
                f"k'={k_prime} out of range [0, {len(self.retained)}]"
            )
        return list(self.retained[:k_prime])

    def to_dict(self) -> Dict:
        """Plain-python summary (for JSON reports and the CLI)."""
        payload = {
            "variant": self.variant.value,
            "k": self.k,
            "retained": list(self.retained),
            "cover": self.cover,
            "strategy": self.strategy,
            "wall_time_s": self.wall_time_s,
            "gain_evaluations": self.gain_evaluations,
        }
        if self.interrupted:
            payload["interrupted"] = True
            payload["interrupted_reason"] = self.interrupted_reason
        if self.context_digest is not None:
            payload["context_digest"] = self.context_digest
        return payload

    def __repr__(self) -> str:
        return (
            f"SolveResult(variant={self.variant.value}, k={self.k}, "
            f"cover={self.cover:.6f}, strategy={self.strategy!r})"
        )
