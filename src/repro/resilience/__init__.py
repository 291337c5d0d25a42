"""Resilient pipeline runtime: checkpoint/resume, run guards, fault injection.

Three cooperating pieces make long solves survivable:

* :mod:`~repro.resilience.checkpoint` — periodic atomic snapshots of
  greedy state; ``greedy_solve(..., checkpoint=...)`` resumes from the
  longest valid prefix (the prefix property makes any saved prefix a
  valid greedy state);
* :mod:`~repro.resilience.guard` — cooperative per-round wall-clock
  deadlines and RSS ceilings with caller-selectable degradation
  (raise :class:`~repro.errors.SolverInterrupted` or return a partial
  result flagged ``interrupted=True``);
* :mod:`~repro.resilience.faults` — a deterministic seeded fault
  injector (solver kills and stops, checkpoint-write failures,
  malformed records, serving-refresh crashes and delays) selected via ``REPRO_FAULTS`` or
  :func:`inject_faults`, driving the chaos test suite.

See ``docs/resilience.md`` for the checkpoint format, guard semantics
and the fault matrix.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    Checkpointer,
    atomic_write_bytes,
    coerce_checkpointer,
    solve_context,
)
from .faults import (
    FaultInjector,
    InjectedCrash,
    InjectedRefreshFailure,
    active_faults,
    inject_faults,
)
from .guard import ON_TRIGGER, RunGuard, current_rss_mb

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "Checkpointer",
    "FaultInjector",
    "InjectedCrash",
    "InjectedRefreshFailure",
    "ON_TRIGGER",
    "RunGuard",
    "active_faults",
    "atomic_write_bytes",
    "coerce_checkpointer",
    "current_rss_mb",
    "inject_faults",
    "solve_context",
]
