"""The assortment serving layer: solve once, answer queries forever.

The offline side of this package computes a retained assortment; this
subpackage is the online side that *serves* it:

* :class:`SolutionStore` / :class:`SolutionSnapshot` — immutable solve
  snapshots (retained set, per-item coverage vector, context digest)
  behind an LRU+TTL cache keyed on the full solve context, hot-swapped
  atomically;
* :class:`AssortmentService` — ``query`` / ``covered_probability`` /
  ``top_alternatives`` answered in O(degree) from precomputed coverage
  vectors, never by re-solving; a graph delta triggers one cold
  :func:`repro.solve` on the updated graph's cached CSR;
* :class:`ServingRuntime` — the fault-tolerance layer: retried
  refreshes with seeded-jitter backoff (:class:`RetryPolicy`), a
  :class:`CircuitBreaker` on the refresh path, monotone degradation
  :class:`Tier` stamping (fresh → stale → static → shed) on every
  answer, and warm-restart persistence of the last good snapshot
  (:class:`SnapshotPersister`);
* :class:`ServingFrontend` — an asyncio front end that micro-batches
  concurrent requests into single vectorized snapshot reads, with
  admission control, per-query deadline propagation
  (:class:`~repro.errors.DeadlineExceeded` on expiry) and a
  degrade-to-last-good-snapshot failure mode.  It duck-types over a
  service or a runtime.

See ``docs/serving.md`` and ``docs/serving-resilience.md`` for the
architecture walk-throughs and ``repro serve`` for the CLI entry point.
"""

from .frontend import ServingFrontend
from .runtime import (
    CircuitBreaker,
    RetryPolicy,
    ServingAnswer,
    ServingRuntime,
    SnapshotPersister,
    Tier,
)
from .service import AssortmentService
from .store import SolutionSnapshot, SolutionStore

__all__ = [
    "AssortmentService",
    "CircuitBreaker",
    "RetryPolicy",
    "ServingAnswer",
    "ServingFrontend",
    "ServingRuntime",
    "SnapshotPersister",
    "SolutionSnapshot",
    "SolutionStore",
    "Tier",
]
