"""The greedy Preference Cover solver (the paper's Algorithm 1).

Algorithm 1 selects, at each of ``k`` iterations, the node with the
maximum marginal gain to ``C(S)``.  Because both cover functions are
monotone submodular, the same scheme serves both variants — only the
``Gain``/``AddNode`` procedures differ (Algorithms 2/3 vs 4/5, implemented
in :mod:`repro.core.gain`) — and carries the guarantees proved in the
paper: ``1 - 1/e`` for the Independent variant (tight), and
``max(1 - 1/e, 1 - (1 - k/n)^2)`` for the Normalized variant.

Two execution strategies produce the same selection rule with different
costs:

``naive``
    Recomputes every candidate's gain each iteration — a vectorized
    transliteration of Algorithm 1, ``O(k * E)`` work.  It is the
    reference the other paths are checked against, and the work that
    :mod:`repro.core.parallel`'s cost model spreads over ``N`` workers.

``accelerated`` (the default)
    Maintains the full gain array incrementally: adding ``v*`` only
    changes the gains of nodes within two hops, so each iteration costs
    ``O(out_deg(v*) + sum over in-neighbors' out-degrees)`` (Independent)
    or ``O(in_deg(v*) + out_deg(v*))`` (Normalized) plus the selection:
    a lazy maximum over blocks of about ``sqrt(n)`` gains, which costs
    ``O(sqrt(n))`` for the block it selects from plus the same for each
    block whose cached maximum it finds stale on the way (see
    :class:`AcceleratedGains`), in place of a full ``O(n)`` ``argmax``.

Both strategies implement the identical mathematical rule (max gain,
lowest index on ties); their outputs can differ only through
floating-point summation order on near-exact ties.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Optional

import numpy as np

from .._compat import keyword_only_shim
from ..errors import SolverError, SolverInterrupted
from ..observability import NULL_TRACER, coerce_tracer
from .csr import as_csr
from .gain import GreedyState, fanout_update
from .result import SolveResult
from .variants import Variant

#: Recognized strategy names; ``auto`` resolves to ``accelerated``.
STRATEGIES = ("auto", "naive", "accelerated")

#: Optional per-iteration hook: ``callback(iteration, node, gain, cover)``.
IterationCallback = Callable[[int, int, float, float], None]


class _RoundHooks:
    """Per-round resilience hooks shared by every greedy strategy.

    Bundles the checkpointer, run guard and active fault injector so
    the strategy loops carry one optional object instead of three
    parameters.  :meth:`after_round` runs right after a selection is
    committed: snapshot if due, fire any injected crash, then consult
    the guard — a non-``None`` return is the interruption reason and
    the loop must stop.
    """

    __slots__ = ("checkpointer", "context", "guard", "faults", "tracer")

    def __init__(self, checkpointer, context, guard, faults, tracer):
        self.checkpointer = checkpointer
        self.context = context
        self.guard = guard
        self.faults = faults
        self.tracer = tracer

    def after_round(self, state) -> Optional[str]:
        if self.checkpointer is not None:
            self.checkpointer.maybe_save(
                state, self.context, tracer=self.tracer
            )
        if self.faults is not None:
            self.faults.solver_round(state.size)
            reason = self.faults.solver_stop(state.size)
            if reason is not None:
                if self.tracer.enabled:
                    tracer = self.tracer
                    tracer.incr("faults.stop_round_hits")
                    tracer.event("solve.stop_injected", reason=reason)
                return reason
        if self.guard is not None:
            reason = self.guard.trip_reason()
            if reason is not None:
                if self.tracer.enabled:
                    kind = "rss" if "RSS" in reason else "deadline"
                    self.tracer.incr(f"guard.{kind}_hits")
                    self.tracer.event("solve.guard_trip", reason=reason)
                return reason
        return None


def finish_interrupted(stop_reason, guard, result: SolveResult) -> SolveResult:
    """Return (or raise for) an interrupted solve's partial result.

    A stop reason can come from sources other than the run guard — a
    :class:`~repro.resilience.FaultInjector` ``stop_round`` fault, or
    any future hook — so the guard must not be dereferenced just
    because the solve was interrupted: only an actual guard configured
    with ``on_trigger="raise"`` escalates; every other source keeps the
    partial result.  Shared by :func:`greedy_solve` and
    :func:`~repro.core.threshold.greedy_threshold_solve`.
    """
    if (
        stop_reason is not None
        and guard is not None
        and guard.on_trigger == "raise"
    ):
        raise SolverInterrupted(stop_reason, partial=result)
    return result


def _make_hooks(
    checkpoint, guard, csr, variant, seed_indices, exclude_indices, tracer
):
    """Build the per-round hook bundle (or ``None`` when all are off).

    Also resolves the checkpoint context and the ambient fault
    injector; returns ``(hooks, checkpointer, context)`` so the caller
    can drive resume and final-state saves.
    """
    from ..resilience.checkpoint import coerce_checkpointer, solve_context
    from ..resilience.faults import active_faults

    checkpointer = coerce_checkpointer(checkpoint)
    faults = active_faults()
    context = None
    if checkpointer is not None:
        context = solve_context(
            csr, variant, seed_indices, exclude_indices
        )
        checkpointer.begin()
    if checkpointer is None and guard is None and faults is None:
        return None, None, None
    return (
        _RoundHooks(checkpointer, context, guard, faults, tracer),
        checkpointer,
        context,
    )


@keyword_only_shim("k", "variant")
def greedy_solve(
    graph,
    *,
    k: int,
    variant: "Variant | str",
    strategy: str = "auto",
    callback: Optional[IterationCallback] = None,
    must_retain: Optional[Iterable] = None,
    exclude: Optional[Iterable] = None,
    tracer=None,
    checkpoint=None,
    guard=None,
) -> SolveResult:
    """Solve ``IPC_k`` / ``NPC_k`` with the greedy algorithm.

    Args:
        graph: a ``PreferenceGraph`` or ``CSRGraph``.
        k: number of items to retain (``0 <= k <= n``).
        variant: ``"independent"`` or ``"normalized"`` (or a ``Variant``).
        strategy: one of ``auto``, ``naive``, ``accelerated``.
        callback: optional per-iteration progress hook.
        must_retain: items that are retained unconditionally (contractual
            listings, store-brand products).  They occupy the first
            positions of the solution and count toward ``k``.
        exclude: items that may never be retained (recalled or delisted
            products).  They can still be *covered* by alternatives.
        tracer: a :class:`repro.observability.SolverTrace` recording one
            ``iteration`` event per selection with the chosen item, its
            marginal gain, the running cover and per-strategy counters.
            ``None`` (the default) disables tracing at ~zero cost.
        checkpoint: a :class:`repro.resilience.Checkpointer` (or a
            checkpoint directory path) enabling periodic atomic
            snapshots of the greedy prefix.  When the checkpointer has
            ``resume=True`` (the default) the solve first replays the
            longest valid snapshot for this exact instance and
            continues from there — the prefix property guarantees the
            resumed run selects exactly what the uninterrupted run
            would have.
        guard: a :class:`repro.resilience.RunGuard` consulted after
            every committed round; on a tripped deadline or RSS
            ceiling the solve either raises
            :class:`~repro.errors.SolverInterrupted` (with the partial
            result attached) or returns the partial result flagged
            ``interrupted=True``, per the guard's ``on_trigger``.

    All parameters after ``graph`` are keyword-only; the legacy
    positional order ``greedy_solve(graph, k, variant, ...)`` still
    works but emits a :class:`DeprecationWarning`.

    The constrained run remains a greedy maximization of the same
    monotone submodular function over the free items, so the classic
    guarantee applies to the marginal value added on top of the forced
    prefix.

    Returns:
        A :class:`SolveResult` with the retained items in selection order,
        the achieved cover, the coverage array ``I`` and per-prefix covers.
    """
    tracer = coerce_tracer(tracer)
    variant = Variant.coerce(variant)
    csr = as_csr(graph)
    n = csr.n_items
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise SolverError(f"k must be an integer, got {type(k).__name__}")
    if k < 0 or k > n:
        raise SolverError(f"k={k} out of range [0, {n}]")
    if strategy not in STRATEGIES:
        raise SolverError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if strategy == "auto":
        strategy = "accelerated"

    from .cover import resolve_indices

    seed_indices = (
        resolve_indices(csr, must_retain) if must_retain is not None
        else np.empty(0, dtype=np.int64)
    )
    exclude_indices = (
        resolve_indices(csr, exclude) if exclude is not None
        else np.empty(0, dtype=np.int64)
    )
    forbidden: Optional[np.ndarray] = None
    if exclude_indices.size:
        forbidden = np.zeros(n, dtype=bool)
        forbidden[exclude_indices] = True
        if forbidden[seed_indices].any():
            raise SolverError("must_retain and exclude sets overlap")
    if seed_indices.size > k:
        raise SolverError(
            f"must_retain has {seed_indices.size} items but k={k}"
        )
    if k > n - exclude_indices.size:
        raise SolverError(
            f"k={k} exceeds the {n - exclude_indices.size} non-excluded "
            f"items"
        )

    state = GreedyState(csr, variant, tracer=tracer)
    prefix_covers = np.zeros(k + 1, dtype=np.float64)
    if tracer.enabled:
        tracer.event(
            "solve.start", solver="greedy", strategy=strategy,
            variant=variant.value, k=k, n_items=n,
            n_seeded=int(seed_indices.size),
            n_excluded=int(exclude_indices.size),
        )
    hooks, checkpointer, context = _make_hooks(
        checkpoint, guard, csr, variant, seed_indices, exclude_indices,
        tracer,
    )
    if guard is not None:
        guard.start()
    start = time.perf_counter()

    for node in seed_indices.tolist():
        state.add_node(node)
        prefix_covers[state.size] = state.cover

    if checkpointer is not None and checkpointer.resume:
        snapshot = checkpointer.load(context, n_items=n, tracer=tracer)
        if snapshot is not None:
            # Replay the saved prefix: the checkpointed order begins
            # with the seed set (skipped via in_set) and is capped at
            # k, since a snapshot from a larger-k or threshold run of
            # the same instance is still a valid greedy prefix.
            replayed = 0
            for node in snapshot.order:
                if state.size >= k:
                    break
                if state.in_set[node]:
                    continue
                state.add_node(node)
                prefix_covers[state.size] = state.cover
                replayed += 1
            if tracer.enabled:
                tracer.incr("resilience.resumes")
                tracer.incr("resilience.resumed_rounds", replayed)
                tracer.event(
                    "solve.resume", epoch=snapshot.epoch,
                    replayed=replayed, cover=float(state.cover),
                )
    remaining = k - state.size

    if strategy == "naive":
        evaluations, stop_reason = _run_naive(
            state, remaining, prefix_covers, callback, forbidden=forbidden,
            tracer=tracer, hooks=hooks,
        )
    else:
        evaluations, stop_reason = _run_accelerated(
            state, remaining, prefix_covers, callback, forbidden=forbidden,
            tracer=tracer, hooks=hooks,
        )

    elapsed = time.perf_counter() - start
    if tracer.enabled:
        tracer.incr("solver.gain_evaluations", evaluations)
        tracer.event(
            "solve.end", solver="greedy", strategy=strategy,
            cover=float(state.cover), wall_time_s=elapsed,
            gain_evaluations=evaluations,
            interrupted=stop_reason is not None,
        )
    if checkpointer is not None and state.size > 0:
        # Best-effort final snapshot: an interrupted solve resumes from
        # exactly the interrupted state (not the last periodic one), and
        # a completed solve leaves its full prefix for later re-runs or
        # other stopping rules over the same instance.
        checkpointer.save(state, context, tracer=tracer)
    indices = state.retained_indices()
    result = SolveResult(
        variant=variant,
        k=k,
        retained=[csr.items[i] for i in indices.tolist()],
        retained_indices=indices,
        cover=float(state.cover),
        coverage=state.coverage,
        item_ids=csr.items,
        prefix_covers=(
            prefix_covers if stop_reason is None
            else prefix_covers[: state.size + 1].copy()
        ),
        strategy=f"greedy-{strategy}",
        wall_time_s=elapsed,
        gain_evaluations=evaluations,
        interrupted=stop_reason is not None,
        interrupted_reason=stop_reason,
    )
    return finish_interrupted(stop_reason, guard, result)


@keyword_only_shim("variant")
def greedy_order(
    graph,
    *,
    variant: "Variant | str",
    strategy: str = "auto",
    tracer=None,
) -> SolveResult:
    """Run the greedy to exhaustion (``k = n``).

    The resulting ordering solves *every* ``k`` at once (prefix property,
    Section 3.2) and directly powers the complementary threshold solver.
    """
    csr = as_csr(graph)
    return greedy_solve(
        csr, k=csr.n_items, variant=variant, strategy=strategy,
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# Strategy implementations
# ----------------------------------------------------------------------
def _run_naive(
    state: GreedyState,
    k: int,
    prefix_covers: np.ndarray,
    callback: Optional[IterationCallback],
    forbidden: Optional[np.ndarray] = None,
    tracer=NULL_TRACER,
    hooks: Optional[_RoundHooks] = None,
) -> tuple:
    """Algorithm 1 verbatim: full gain recomputation each iteration.

    Returns ``(evaluations, stop_reason)``; ``stop_reason`` is the run
    guard's interruption reason, or ``None`` for a completed run.
    """
    n = state.csr.n_items
    evaluations = 0
    for iteration in range(k):
        gains = state.gains_all()
        evaluations += n - state.size
        gains[state.in_set] = -np.inf
        if forbidden is not None:
            gains[forbidden] = -np.inf
        best = int(np.argmax(gains))
        gain = float(gains[best])
        state.add_node(best)
        prefix_covers[state.size] = state.cover
        if callback is not None:
            callback(iteration, best, gain, state.cover)
        if tracer.enabled:
            tracer.incr("naive.gains_evaluated", n - state.size + 1)
            tracer.iteration(
                iteration, item=state.csr.items[best], node=best,
                gain=gain, cover=float(state.cover), strategy="naive",
                gains_evaluated=n - state.size + 1,
            )
        if hooks is not None:
            reason = hooks.after_round(state)
            if reason is not None:
                return evaluations, reason
    return evaluations, None


class AcceleratedGains:
    """The accelerated greedy's gain array, with lazy block maxima.

    ``values`` holds every candidate's marginal gain, retired entries
    (retained or excluded) at ``-inf``.  :meth:`argmax` returns exactly
    what ``np.argmax(values)`` returns -- the lowest index of the
    maximum, or the first NaN if any -- without scanning all ``n`` entries:
    the array is cut into blocks ``isqrt(n)`` wide, each with a cached
    maximum.  :func:`accelerated_step` only lowers gains, so a cached
    maximum stays an upper bound of its block.  The block with the
    highest cached maximum is re-checked, and its maximum refreshed,
    until that maximum is current; then no other block holds a higher
    gain, nor an equal one at a lower index.  Code that raises a gain
    must call :meth:`rescan` before the next :meth:`argmax`.
    """

    __slots__ = ("values", "_width", "_block_max")

    def __init__(self, values: np.ndarray) -> None:
        self.values = values
        self._width = max(1, math.isqrt(values.shape[0]))
        self.rescan()

    def rescan(self) -> None:
        """Recompute every cached block maximum from ``values``."""
        starts = np.arange(0, self.values.shape[0], self._width)
        self._block_max = np.maximum.reduceat(self.values, starts)

    def argmax(self) -> int:
        """Index of the maximum gain, lowest index on ties."""
        values, block_max, width = self.values, self._block_max, self._width
        while True:
            block = int(block_max.argmax())
            lo = block * width
            chunk = values[lo:lo + width]
            offset = int(chunk.argmax())
            current = chunk[offset]
            # A NaN is np.argmax's maximum but never equals the cache.
            if current == block_max[block] or current != current:
                return lo + offset
            block_max[block] = current


def accelerated_step(
    state: GreedyState,
    gains: AcceleratedGains,
    force: Optional[int] = None,
    tracer=NULL_TRACER,
) -> tuple:
    """One iteration of the accelerated greedy: select, commit, patch gains.

    ``force`` overrides the argmax selection with a specific node (used
    by the quota solver); the gain bookkeeping is identical either way.

    Adding the selected node ``v*`` perturbs candidate gains in exactly
    three ways, each patched in place on ``gains.values``:

    1. ``v*`` itself leaves the candidate pool;
    2. each out-neighbor ``x`` of ``v*`` loses the term ``v*`` contributed
       to ``gain(x)`` while it was outside ``S``;
    3. (Independent only) each in-neighbor ``u`` of ``v*`` has its deficit
       shrunk, which rescales ``u``'s contribution to every out-neighbor's
       gain and to its own self term.  Under the Normalized variant the
       contribution ``W(u) * W(u, x)`` does not depend on the deficit, so
       only ``u``'s self term changes.

    Returns ``(best, gain)``.  Shared by :func:`greedy_solve` and the
    threshold and quota solvers.
    """
    csr = state.csr
    variant = state.variant
    values = gains.values
    if force is None:
        # Retired candidates (retained or forbidden) are kept at -inf in
        # the gains array itself, so selection needs no mask.
        best = gains.argmax()
        gain = float(values[best])
    else:
        best = int(force)
        gain = float(values[best])
        if gain == -np.inf:
            gain = 0.0  # forced re-commit of an already-retired entry

    # Snapshot the quantities the update rules need *before* mutating.
    deficit_before = float(state.deficit[best])
    in_src, in_w = csr.in_edges(best)
    outside_mask = ~state.in_set[in_src]
    u_nodes = in_src[outside_mask]
    u_weights = in_w[outside_mask]
    if variant is Variant.INDEPENDENT:
        u_deficit_before = state.deficit[u_nodes].copy()

    state.add_node(best)

    # (2) best stopped being an outside contributor to its out-neighbors'
    # gains.
    out_dst, out_w = csr.out_edges(best)
    if out_dst.size:
        if variant is Variant.INDEPENDENT:
            values[out_dst] -= out_w * deficit_before
        else:
            values[out_dst] -= out_w * csr.node_weight[best]

    # (3) in-neighbors' deficits shrank.
    fanout = 0
    if u_nodes.size:
        if variant is Variant.INDEPENDENT:
            delta = u_weights * u_deficit_before  # deficit reduction
            np.add.at(values, u_nodes, -delta)  # self terms
            # Contributions to every out-neighbor x of each u: the
            # two-hop scatter, the widest part of the patch.
            fanout = fanout_update(
                values, u_nodes, delta,
                csr.out_ptr, csr.out_dst, csr.out_weight,
            )
        else:
            delta = u_weights * csr.node_weight[u_nodes]
            np.add.at(values, u_nodes, -delta)

    values[best] = -np.inf
    if variant is Variant.INDEPENDENT and (
        deficit_before < 0 or (u_deficit_before < 0).any()
    ):
        # Validation admits edge weights up to 1 + 1e-6, which can push
        # a deficit below zero; subtracting a negative amount raised
        # some gains past their block's cached maximum.
        gains.rescan()
    if tracer.enabled:
        # Width of the incremental patch: the retired entry itself, the
        # out-neighbor updates, the in-neighbor self terms and (under
        # Independent) the two-hop fanout targets.
        width = 1 + int(out_dst.size) + int(u_nodes.size) + fanout
        tracer.incr("accelerated.gain_updates", width)
        tracer.observe("accelerated.update_width", width)
        tracer.stash(updated_gains=width)
    return best, gain


def _run_accelerated(
    state: GreedyState,
    k: int,
    prefix_covers: np.ndarray,
    callback: Optional[IterationCallback],
    forbidden: Optional[np.ndarray] = None,
    tracer=NULL_TRACER,
    hooks: Optional[_RoundHooks] = None,
) -> tuple:
    """Incrementally-maintained gain array (see :func:`accelerated_step`)."""
    gains = prepare_accelerated_gains(state, forbidden)
    evaluations = state.csr.n_items
    for iteration in range(k):
        best, gain = accelerated_step(state, gains, tracer=tracer)
        prefix_covers[state.size] = state.cover
        if callback is not None:
            callback(iteration, best, gain, state.cover)
        if tracer.enabled:
            tracer.iteration(
                iteration, item=state.csr.items[best], node=best,
                gain=gain, cover=float(state.cover), strategy="accelerated",
            )
        if hooks is not None:
            reason = hooks.after_round(state)
            if reason is not None:
                return evaluations, reason
    return evaluations, None


def prepare_accelerated_gains(
    state: GreedyState, forbidden: Optional[np.ndarray] = None
) -> AcceleratedGains:
    """Gains for :func:`accelerated_step`: retired entries at -inf."""
    gains = state.gains_all()
    if state.size:
        gains[state.in_set] = -np.inf
    if forbidden is not None:
        gains[forbidden] = -np.inf
    return AcceleratedGains(gains)
