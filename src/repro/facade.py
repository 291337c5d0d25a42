"""The unified solver entry point: :func:`repro.solve`.

The package grew one ``*_solve`` function per problem flavor (budget,
threshold, storage capacity, category quotas, revenue objective,
retain/exclude constraints), each with its own signature.  ``solve()``
is the single facade over all of them: one keyword-only signature, one
dispatch table, and one place where observability is wired in — every
call returns a :class:`~repro.core.result.SolveResult` with a
:class:`~repro.observability.Telemetry` payload attached to
``result.telemetry`` (stage timings always; per-iteration events when
a :class:`~repro.observability.SolverTrace` is passed).

Dispatch rules::

    solve(g, variant=v, k=10)                          -> greedy_solve
    solve(g, variant=v, threshold=0.9)                 -> greedy_threshold_solve
    solve(g, variant=v, k=10,
          constraints={"must_retain": [...],
                       "exclude": [...]})              -> constrained greedy
    solve(g, variant=v,
          constraints={"budget": 3.5, "costs": {...}}) -> capacity_greedy_solve
    solve(g, variant=v, k=10,
          constraints={"categories": {...},
                       "quotas": {...}})               -> quota_greedy_solve
    solve(g, variant=v, k=10,
          objective={"revenue": {...}})                -> revenue_greedy_solve

Exactly one of ``k`` / ``threshold`` / ``constraints["budget"]`` must
select the stopping rule; conflicting combinations raise
:class:`~repro.errors.SolverError` instead of silently preferring one.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from .core.context import solve_context_digest
from .core.csr import as_csr
from .core.greedy import greedy_solve
from .core.threshold import greedy_threshold_solve
from .core.variants import Variant
from .errors import SolverError, SolverInterrupted
from .observability import MetricsRegistry, SolverTrace, Telemetry, logs

_LOG = logs.get_logger("facade")

#: Constraint keys understood by :func:`solve`.
CONSTRAINT_KEYS = (
    "must_retain", "exclude", "budget", "costs", "categories", "quotas",
)

#: Objective keys understood by :func:`solve`.
OBJECTIVE_KEYS = ("revenue",)


def _check_mapping(name: str, value, allowed) -> dict:
    """Validate an option mapping and return a mutable copy."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise SolverError(
            f"{name} must be a mapping with keys from {allowed}, "
            f"got {type(value).__name__}"
        )
    unknown = set(value) - set(allowed)
    if unknown:
        raise SolverError(
            f"unknown {name} key(s) {sorted(unknown)}; expected a subset "
            f"of {allowed}"
        )
    return dict(value)


def solve(
    graph,
    *,
    variant: "Variant | str",
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    strategy: str = "auto",
    constraints: Optional[Mapping] = None,
    objective: Optional[Mapping] = None,
    tracer: Optional[SolverTrace] = None,
    checkpoint=None,
    guard=None,
):
    """Solve a Preference Cover problem through one unified entry point.

    The graph's invariants are checked before solving (raising
    :class:`~repro.errors.GraphValidationError` on violation).
    Successful checks are memoized per graph object, so repeat solves
    over the same graph pay nothing.

    Args:
        graph: ``PreferenceGraph`` or ``CSRGraph``.
        variant: ``"independent"`` / ``"normalized"`` / ``Variant``.
        k: retained-set size budget (maximization objective).
        threshold: cover target (complementary minimization).  Mutually
            exclusive with ``k``.
        strategy: greedy execution strategy (``auto`` / ``naive`` /
            ``accelerated``); forwarded to the solvers that support it.
        constraints: optional mapping with any of
            ``must_retain`` / ``exclude`` (item lists),
            ``budget`` + ``costs`` (storage knapsack), or
            ``categories`` + ``quotas`` (partition matroid).
        objective: optional mapping; ``{"revenue": revenues}`` switches
            the objective from cover to expected revenue.
        tracer: a :class:`~repro.observability.SolverTrace` for
            per-iteration events; ``None`` records stage timings only.
        checkpoint: a checkpoint directory (str/Path) or a
            :class:`~repro.resilience.Checkpointer`; the solve snapshots
            its greedy state periodically and resumes from the longest
            valid prefix on the next call.  Supported by plain ``k``
            and ``threshold`` solves.
        guard: a :class:`~repro.resilience.RunGuard`; a crossed
            deadline or RSS ceiling stops the solve after the current
            round, either raising
            :class:`~repro.errors.SolverInterrupted` or returning the
            partial result flagged ``interrupted=True``, per the
            guard's ``on_trigger``.

    Returns:
        :class:`~repro.core.result.SolveResult` with
        ``result.telemetry`` attached and ``result.context_digest``
        stamped with the solve's full-context fingerprint.

    Raises:
        SolverError: a bool ``k`` or ``threshold``, conflicting or
            missing stopping rules (``k`` *and* ``threshold``, neither,
            or ``budget`` mixed with either), threshold runs with
            constraints, unknown constraint/objective keys, or
            ``checkpoint``/``guard`` on a dispatch target that does not
            support resilience hooks (budget, revenue, quota solves).
    """
    # A bool passes as the number 1 (or 0) but would fingerprint and
    # serialize as a different request, so it is rejected up front.
    for name, value in (("k", k), ("threshold", threshold)):
        if isinstance(value, bool):
            raise SolverError(f"{name} must be a number, got bool")
    variant = Variant.coerce(variant)
    graph = as_csr(graph)
    graph.validate(variant)
    options = _check_mapping("constraints", constraints, CONSTRAINT_KEYS)
    goal = _check_mapping("objective", objective, OBJECTIVE_KEYS)

    metrics = tracer.metrics if tracer is not None else MetricsRegistry()
    telemetry = Telemetry(metrics=metrics, trace=tracer)
    context_digest = solve_context_digest(
        graph, variant,
        k=k, threshold=threshold,
        constraints=dict(constraints) if constraints else None,
        objective=dict(goal) if goal else None,
    )

    must_retain = options.pop("must_retain", None)
    exclude = options.pop("exclude", None)
    budget = options.pop("budget", None)
    costs = options.pop("costs", None)
    categories = options.pop("categories", None)
    quotas = options.pop("quotas", None)
    revenues = goal.pop("revenue", None)

    if k is not None and threshold is not None:
        raise SolverError(
            "k and threshold are mutually exclusive: k bounds the "
            "retained-set size (maximization) while threshold sets a "
            "cover target (minimization); provide exactly one"
        )
    if (budget is None) != (costs is None):
        raise SolverError(
            "the capacity constraint needs both 'budget' and 'costs'"
        )
    if (categories is None) != (quotas is None):
        raise SolverError(
            "the quota constraint needs both 'categories' and 'quotas'"
        )
    if budget is not None and (k is not None or threshold is not None):
        raise SolverError(
            "the storage budget replaces k/threshold; provide only "
            "constraints={'budget': ..., 'costs': ...}"
        )
    if budget is None and k is None and threshold is None:
        raise SolverError(
            "provide a stopping rule: k, threshold, or "
            "constraints={'budget': ..., 'costs': ...}"
        )
    if threshold is not None and (
        must_retain is not None or exclude is not None
        or categories is not None or revenues is not None
    ):
        raise SolverError(
            "threshold solves support no constraints or alternative "
            "objectives; use k instead"
        )
    if revenues is not None and (categories is not None or budget is not None):
        raise SolverError(
            "the revenue objective composes only with k and "
            "must_retain/exclude-free runs for now"
        )

    if (checkpoint is not None or guard is not None) and (
        budget is not None or revenues is not None or categories is not None
    ):
        raise SolverError(
            "checkpoint/guard apply only to plain k and threshold "
            "solves; the budget/revenue/quota solvers do not support "
            "resilience hooks"
        )

    # Correlation: a solve inside an active span (e.g. a serving
    # refresh) joins that trace; a bare library call opens its own only
    # when structured logging is on, so the default path stays silent.
    trace_scope = (
        logs.span("facade")
        if (logs.logging_enabled() or logs.current_trace() is not None)
        else None
    )
    if trace_scope is not None:
        trace_scope.__enter__()
        _LOG.event(
            "solve_start",
            variant=variant.value,
            k=k, threshold=threshold, strategy=strategy,
            n_items=graph.n_items,
            context_digest=context_digest[:12],
        )
    try:
        with metrics.time("facade.solve"):
            if budget is not None:
                from .extensions.capacity import capacity_greedy_solve

                result = capacity_greedy_solve(
                    graph, budget=budget, variant=variant, costs=costs,
                    tracer=tracer,
                )
            elif threshold is not None:
                result = greedy_threshold_solve(
                    graph, threshold=threshold, variant=variant,
                    tracer=tracer, checkpoint=checkpoint, guard=guard,
                )
            elif revenues is not None:
                from .extensions.revenue import revenue_greedy_solve

                result = revenue_greedy_solve(
                    graph, k=k, variant=variant, revenues=revenues,
                    strategy=strategy, tracer=tracer,
                )
            elif categories is not None:
                from .extensions.quotas import quota_greedy_solve

                if must_retain is not None or exclude is not None:
                    raise SolverError(
                        "quota constraints do not compose with "
                        "must_retain/exclude yet"
                    )
                result = quota_greedy_solve(
                    graph, variant=variant, categories=categories,
                    quotas=quotas, k=k, tracer=tracer,
                )
            else:
                result = greedy_solve(
                    graph, k=k, variant=variant, strategy=strategy,
                    must_retain=must_retain, exclude=exclude, tracer=tracer,
                    checkpoint=checkpoint, guard=guard,
                )
    except SolverInterrupted as exc:
        # The guard tripped with on_trigger="raise": attach telemetry to
        # the partial result so the caller loses nothing but the tail.
        metrics.incr("facade.interrupted")
        if trace_scope is not None:
            _LOG.warning("solve_end", outcome="interrupted")
            trace_scope.__exit__(None, None, None)
        if exc.partial is not None:
            exc.partial = dataclasses.replace(
                exc.partial, telemetry=telemetry,
                context_digest=context_digest,
            )
        raise
    except BaseException:
        if trace_scope is not None:
            _LOG.error("solve_end", outcome="failed")
            trace_scope.__exit__(None, None, None)
        raise

    metrics.incr("facade.calls")
    metrics.incr(f"facade.dispatch.{result.strategy}")
    if result.interrupted:
        metrics.incr("facade.interrupted")
    if trace_scope is not None:
        _LOG.event(
            "solve_end",
            outcome="interrupted" if result.interrupted else "solved",
            strategy=result.strategy,
            cover=round(float(result.cover), 6),
            retained=len(result.retained),
        )
        trace_scope.__exit__(None, None, None)
    return dataclasses.replace(
        result, telemetry=telemetry, context_digest=context_digest
    )
