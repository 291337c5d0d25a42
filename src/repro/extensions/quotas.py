"""Category quotas: Preference Cover under a partition-matroid constraint.

Real assortments are rarely free-form: an express warehouse must still
carry *some* of every department.  Modeling categories as a partition of
the items with a per-category ceiling turns the cardinality constraint
into a partition matroid, under which the greedy rule "take the best
affordable item" guarantees a ``1/2`` approximation for monotone
submodular objectives (Fisher–Nemhauser–Wolsey) — weaker than the
unconstrained ``1 - 1/e``, but still constant-factor, and in practice
nearly free on preference graphs.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from .._compat import keyword_only_shim
from ..core.csr import as_csr
from ..core.gain import GreedyState
from ..core.greedy import accelerated_step, prepare_accelerated_gains
from ..core.result import SolveResult
from ..core.variants import Variant
from ..errors import SolverError, UnknownItemError
from ..observability import coerce_tracer


@keyword_only_shim("variant", "categories", "quotas")
def quota_greedy_solve(
    graph,
    *,
    variant: "Variant | str",
    categories: Mapping[Hashable, Hashable],
    quotas: Mapping[Hashable, int],
    k: Optional[int] = None,
    tracer=None,
) -> SolveResult:
    """Greedy Preference Cover with per-category ceilings.

    Args:
        graph: ``PreferenceGraph`` or ``CSRGraph``.
        variant: problem variant.
        categories: item id -> category label (every item must appear).
        quotas: category label -> maximum retained items from it.
            Categories absent from ``quotas`` are unconstrained.
        k: optional overall cap; defaults to the sum of the quotas
            (unconstrained categories then contribute freely up to
            their size, so an explicit ``k`` is recommended when any
            category is unconstrained).

    Returns a :class:`SolveResult`; ``result.k`` is the number actually
    retained (the quotas may bind before ``k`` is reached).
    """
    tracer = coerce_tracer(tracer)
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    n = csr.n_items

    category_of = np.empty(n, dtype=object)
    for index, item in enumerate(csr.items):
        if item not in categories:
            raise UnknownItemError(
                f"item {item!r} has no category assigned"
            )
        category_of[index] = categories[item]

    remaining: Dict[Hashable, float] = {}
    for category, quota in quotas.items():
        if quota < 0:
            raise SolverError(
                f"quota for category {category!r} must be >= 0, "
                f"got {quota}"
            )
        remaining[category] = quota

    if k is None:
        constrained_total = sum(quotas.values())
        unconstrained = sum(
            1 for index in range(n)
            if category_of[index] not in remaining
        )
        k = min(n, constrained_total + unconstrained)
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")

    state = GreedyState(csr, variant, tracer=tracer)
    # Blocked candidates are retired to -inf like retained ones.
    gains = prepare_accelerated_gains(state)
    prefix_covers = [0.0]
    if tracer.enabled:
        tracer.event(
            "solve.start", solver="quota-greedy", variant=variant.value,
            k=k, n_items=n, n_quota_categories=len(remaining),
        )
    start = time.perf_counter()

    while state.size < k:
        best = gains.argmax()
        if gains.values[best] == -np.inf:
            break  # every category exhausted
        category = category_of[best]
        if category in remaining and remaining[category] <= 0:
            gains.values[best] = -np.inf
            if tracer.enabled:
                tracer.incr("quota.blocked_candidates")
            continue
        # Commit via the shared accelerated bookkeeping.
        _, gain = accelerated_step(state, gains, force=best, tracer=tracer)
        prefix_covers.append(state.cover)
        if tracer.enabled:
            tracer.iteration(
                state.size - 1, item=csr.items[best], node=best,
                gain=gain, cover=float(state.cover),
                strategy="quota-greedy", category=str(category),
            )
        if category in remaining:
            remaining[category] -= 1
            if remaining[category] <= 0:
                # Block the whole exhausted category at once.
                gains.values[np.asarray(
                    [category_of[i] == category for i in range(n)]
                )] = -np.inf
                if tracer.enabled:
                    tracer.incr("quota.categories_exhausted")
    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.incr("solver.gain_evaluations", n)
        tracer.event(
            "solve.end", solver="quota-greedy", cover=float(state.cover),
            wall_time_s=elapsed, retained=state.size,
        )

    indices = state.retained_indices()
    return SolveResult(
        variant=variant,
        k=state.size,
        retained=[csr.items[i] for i in indices.tolist()],
        retained_indices=indices,
        cover=float(state.cover),
        coverage=state.coverage,
        item_ids=csr.items,
        prefix_covers=np.asarray(prefix_covers, dtype=np.float64),
        strategy="quota-greedy",
        wall_time_s=elapsed,
        gain_evaluations=n,
    )


def category_counts(result: SolveResult, categories: Mapping) -> Dict:
    """How many retained items fall in each category."""
    counts: Dict = {}
    for item in result.retained:
        category = categories[item]
        counts[category] = counts.get(category, 0) + 1
    return counts
