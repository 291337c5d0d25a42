"""The complementary minimization problem (Section 3.2, Figure 4f).

Instead of an upper bound ``k`` on the retained-set size, the input is a
lower bound ``threshold`` on the cover, and the goal is the *smallest*
retained set achieving it.  The paper notes that a generic reduction —
binary search on ``k`` over any fixed-``k`` solver — pays an ``O(log n)``
multiplicative overhead, whereas the greedy's incremental order solves
the problem directly: run greedy until the running cover first reaches
the threshold.
"""

from __future__ import annotations

import time

import numpy as np

from .._compat import keyword_only_shim
from ..errors import SolverError
from ..observability import coerce_tracer
from .csr import as_csr
from .gain import GreedyState
from .greedy import (
    _make_hooks,
    accelerated_step,
    finish_interrupted,
    prepare_accelerated_gains,
)
from .result import SolveResult
from .variants import Variant


@keyword_only_shim("threshold", "variant")
def greedy_threshold_solve(
    graph,
    *,
    threshold: float,
    variant: "Variant | str",
    tracer=None,
    checkpoint=None,
    guard=None,
) -> SolveResult:
    """Smallest greedy set whose cover reaches ``threshold``.

    Equivalent to taking the shortest qualifying prefix of the full
    greedy ordering (prefix property), but stops as soon as the threshold
    is crossed instead of ordering all ``n`` items — the paper's direct
    approach that avoids the binary-search overhead.

    ``checkpoint`` accepts a checkpoint directory or a
    :class:`~repro.resilience.Checkpointer`; snapshots taken under a
    ``k``-bounded solve are interchangeable with threshold solves over
    the same instance (the context hash deliberately excludes the
    stopping rule), so a crashed run resumes from the longest valid
    prefix and keeps selecting until the threshold is met.  ``guard``
    accepts a :class:`~repro.resilience.RunGuard`; a tripped guard
    either raises :class:`~repro.errors.SolverInterrupted` or returns
    the partial result flagged ``interrupted=True``.

    Raises :class:`SolverError` for thresholds outside ``[0, 1]`` or
    thresholds that even the full catalog cannot reach (possible only
    through floating-point shortfall, since retaining all items covers
    everything).
    """
    tracer = coerce_tracer(tracer)
    variant = Variant.coerce(variant)
    if isinstance(threshold, bool):
        raise SolverError("threshold must be a number, got bool")
    if not (0.0 <= threshold <= 1.0):
        raise SolverError(f"threshold must be in [0, 1], got {threshold}")
    csr = as_csr(graph)
    n = csr.n_items
    state = GreedyState(csr, variant, tracer=tracer)
    prefix_covers = [0.0]
    if tracer.enabled:
        tracer.event(
            "solve.start", solver="greedy-threshold",
            variant=variant.value, threshold=threshold, n_items=n,
        )
    start = time.perf_counter()

    hooks, checkpointer, context = _make_hooks(
        checkpoint, guard, csr, variant, None, None, tracer
    )
    if guard is not None:
        guard.start()
    if checkpointer is not None and checkpointer.resume:
        snapshot = checkpointer.load(context, n_items=n, tracer=tracer)
        if snapshot is not None:
            replayed = 0
            for node in snapshot.order:
                if state.cover >= threshold - 1e-12:
                    break
                if state.in_set[node]:
                    continue
                state.add_node(node)
                prefix_covers.append(state.cover)
                replayed += 1
            if tracer.enabled:
                tracer.incr("resilience.resumes")
                tracer.incr("resilience.resumed_rounds", replayed)
                tracer.event(
                    "solve.resume", epoch=snapshot.epoch,
                    replayed=replayed, cover=float(state.cover),
                )

    # Evaluation accounting mirrors greedy_solve: one full n-candidate
    # sweep up front, then gains are patched incrementally.
    gains = prepare_accelerated_gains(state)
    evaluations = n
    stop_reason = None
    while state.cover < threshold - 1e-12:
        if state.size == n:
            raise SolverError(
                f"threshold {threshold} unreachable: cover of the full "
                f"catalog is {state.cover:.12f}"
            )
        best, gain = accelerated_step(state, gains, tracer=tracer)
        prefix_covers.append(state.cover)
        if tracer.enabled:
            tracer.iteration(
                state.size - 1, item=csr.items[best], node=best,
                gain=gain, cover=float(state.cover),
                strategy="greedy-threshold",
            )
        if hooks is not None:
            stop_reason = hooks.after_round(state)
            if stop_reason is not None:
                break

    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.incr("solver.gain_evaluations", evaluations)
        tracer.event(
            "solve.end", solver="greedy-threshold",
            cover=float(state.cover), wall_time_s=elapsed,
            retained=state.size, interrupted=stop_reason is not None,
        )
    if checkpointer is not None and state.size > 0:
        # Best-effort final snapshot: an interrupted prefix resumes even
        # between the cadence's save points, and a completed one is
        # reusable by later solves over the same instance.
        checkpointer.save(state, context, tracer=tracer)
    indices = state.retained_indices()
    result = SolveResult(
        variant=variant,
        k=state.size,
        retained=[csr.items[i] for i in indices.tolist()],
        retained_indices=indices,
        cover=float(state.cover),
        coverage=state.coverage,
        item_ids=csr.items,
        prefix_covers=np.asarray(prefix_covers, dtype=np.float64),
        strategy="greedy-threshold",
        wall_time_s=elapsed,
        gain_evaluations=evaluations,
        interrupted=stop_reason is not None,
        interrupted_reason=stop_reason,
    )
    return finish_interrupted(stop_reason, guard, result)
