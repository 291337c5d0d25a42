"""Differential correctness harness for the solver execution paths.

Every execution path in this repository — the naive and accelerated
greedy strategies and the complementary threshold solver — implements
the *same* mathematical selection rule (max marginal gain, lowest index
on ties).  This module continuously proves it: property-style
generators sample random valid instances per variant, every path is run
against the naive reference, and any divergence in the retained
selection or the achieved cover is collected as a
:class:`DifferentialFailure` instead of being discovered in production.

Checked per instance:

* the accelerated strategy against the naive one — byte-identical
  selections and bit-equal covers;
* prefix consistency — ``greedy_threshold_solve`` must return exactly
  the shortest qualifying prefix of the full greedy ordering.

Exposed on the CLI as ``repro check --differential`` and run in CI at
smoke size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.greedy import greedy_solve
from ..core.result import SolveResult
from ..core.threshold import greedy_threshold_solve
from ..workloads.graphs import (
    bounded_degree_graph,
    random_preference_graph,
    small_dense_graph,
)

#: Strategies compared against the naive reference.
STRATEGIES = ("naive", "accelerated")

#: Instance generators cycled per case: sparse cluster-local graphs,
#: dense Erdős–Rényi instances, and the degree-bounded hard regime.
_GENERATORS: Tuple[Tuple[str, Callable], ...] = (
    ("sparse", lambda n, variant, seed: random_preference_graph(
        n, variant=variant, seed=seed)),
    ("dense", lambda n, variant, seed: small_dense_graph(
        n, variant=variant, seed=seed)),
    ("bounded", lambda n, variant, seed: bounded_degree_graph(
        n, variant=variant, seed=seed)),
)


@dataclass(frozen=True)
class DifferentialFailure:
    """One divergence between an execution path and its reference."""

    variant: str
    instance: str
    combo: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.variant}/{self.instance}] {self.combo}: {self.detail}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one :func:`run_differential` sweep."""

    instances: int
    variants: Tuple[str, ...]
    checks: int = 0
    failures: List[DifferentialFailure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every combination matched its reference."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph verdict."""
        head = (
            f"differential: {len(self.variants)} variant(s) x "
            f"{self.instances} instance(s), {self.checks} checks in "
            f"{self.wall_time_s:.1f}s -> "
            f"{'OK' if self.ok else f'{len(self.failures)} FAILURE(S)'}"
        )
        if self.ok:
            return head
        lines = [head]
        for failure in self.failures[:20]:
            lines.append(f"  {failure}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


#: Marginal gains below this are floating-point noise: once the cover
#: saturates, every remaining candidate is a numerical tie and the
#: greedy argmax is ill-defined under finite-precision drift (the
#: "near-exact ties" caveat documented in :mod:`repro.core.greedy`).
NOISE_FLOOR = 1e-9


def compare_results(
    reference: SolveResult,
    candidate: SolveResult,
    *,
    noise: float = NOISE_FLOOR,
) -> Optional[str]:
    """Explain how ``candidate`` diverges from ``reference`` (or ``None``).

    Selections must be *identical* (same items, same order) and covers
    bit-equal — every path commits the same nodes through the same
    ``AddNode`` arithmetic, so even floating-point accumulation must
    agree exactly.  The single sanctioned exception is the saturated
    tail: when the reference's marginal gain at the divergence point is
    already below ``noise``, every remaining candidate is a numerical
    tie (incrementally-patched gain arrays drift by ~1 ulp and flip the
    argmax between candidates that differ by less than 1e-14), so the
    harness only requires the covers to agree within ``noise`` there.
    """
    ref_retained = list(reference.retained)
    cand_retained = list(candidate.retained)
    if cand_retained != ref_retained:
        width = min(len(ref_retained), len(cand_retained))
        diverged = next(
            (
                i for i in range(width)
                if ref_retained[i] != cand_retained[i]
            ),
            width,
        )
        prefix_covers = reference.prefix_covers
        if (
            prefix_covers is not None
            and diverged + 1 < len(prefix_covers)
            and prefix_covers[diverged + 1] - prefix_covers[diverged]
            <= noise
        ):
            # Tie tail: both paths are picking among noise-level gains.
            if abs(candidate.cover - reference.cover) <= noise:
                return None
            return (
                f"covers differ beyond the tie tail at position "
                f"{diverged}: {reference.cover!r} vs {candidate.cover!r}"
            )
        if diverged < width:
            return (
                f"selection diverges at position {diverged}: expected "
                f"{ref_retained[diverged:diverged + 3]!r}..., got "
                f"{cand_retained[diverged:diverged + 3]!r}..."
            )
        return (
            f"selection lengths differ: {len(ref_retained)} vs "
            f"{len(cand_retained)}"
        )
    if candidate.cover != reference.cover:
        return (
            f"cover differs: {reference.cover!r} vs {candidate.cover!r}"
        )
    return None


def _prefix_detail(
    order: SolveResult, threshold_result: SolveResult, threshold: float
) -> Optional[str]:
    """Check that a threshold solve is a prefix of the greedy ordering."""
    prefix = order.retained[: threshold_result.k]
    if list(threshold_result.retained) != list(prefix):
        return (
            f"threshold={threshold:.6f} selection is not a greedy "
            f"prefix: {threshold_result.retained!r} vs {prefix!r}"
        )
    if threshold_result.cover < threshold - 1e-12:
        return (
            f"threshold={threshold:.6f} not reached: cover="
            f"{threshold_result.cover!r}"
        )
    return None


def run_differential(
    *,
    instances: int = 50,
    min_items: int = 24,
    max_items: int = 140,
    seed: int = 0,
    variants: Sequence[str] = ("independent", "normalized"),
    log: Optional[Callable[[str], None]] = None,
) -> DifferentialReport:
    """Run the strategy and threshold-prefix differential sweep.

    Args:
        instances: random instances generated *per variant*.
        min_items / max_items: instance-size range (sampled uniformly).
        seed: base RNG seed; the sweep is fully deterministic given it.
        variants: problem variants to cover.
        log: optional progress sink (one line per instance).

    Returns:
        A :class:`DifferentialReport`; ``report.ok`` is the verdict.
    """
    min_items = max(4, min(min_items, max_items))
    rng = np.random.default_rng(seed)
    report = DifferentialReport(
        instances=instances, variants=tuple(variants)
    )
    start = time.perf_counter()

    def record(variant, instance, combo, detail):
        report.checks += 1
        if detail is not None:
            report.failures.append(
                DifferentialFailure(
                    variant=variant, instance=instance, combo=combo,
                    detail=detail,
                )
            )

    for variant in variants:
        for index in range(instances):
            name, generator = _GENERATORS[index % len(_GENERATORS)]
            n = int(rng.integers(min_items, max_items + 1))
            case_seed = int(rng.integers(0, 2**31 - 1))
            instance = f"{name}#{index} n={n} seed={case_seed}"
            graph = generator(n, variant, case_seed)
            k = int(rng.integers(1, n))

            reference = greedy_solve(
                graph, k=k, variant=variant, strategy="naive",
            )
            for strategy in STRATEGIES[1:]:
                result = greedy_solve(
                    graph, k=k, variant=variant, strategy=strategy,
                )
                record(
                    variant, instance, f"strategy={strategy}",
                    compare_results(reference, result),
                )

            # Prefix consistency: the threshold solver must return the
            # shortest qualifying prefix of the full greedy ordering.
            # The target is anchored at a prefix whose closing marginal
            # gain sits above the noise floor, so the stopping point is
            # numerically unambiguous across execution paths.
            order = greedy_solve(
                graph, k=n, variant=variant, strategy="accelerated",
            )
            marginals = np.diff(reference.prefix_covers)
            signal = np.nonzero(marginals > 1e-6)[0]
            j = int(signal[min(len(signal) - 1, k // 2)]) + 1 \
                if signal.size else 1
            threshold = float(min(1.0, reference.prefix_covers[j]))
            t_result = greedy_threshold_solve(
                graph, threshold=threshold, variant=variant,
            )
            record(
                variant, instance, "threshold-prefix",
                _prefix_detail(order, t_result, threshold),
            )
            if log is not None:
                log(
                    f"{variant} {instance}: "
                    f"{len(report.failures)} failure(s) so far"
                )

    report.wall_time_s = time.perf_counter() - start
    return report
