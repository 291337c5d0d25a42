"""Fault-tolerant serving runtime: retries, breaker, tiers, warm restart.

:class:`ServingRuntime` wraps an
:class:`~repro.serving.service.AssortmentService` with the operational
machinery the bare service deliberately leaves out:

* **retries** — snapshot refreshes (the only expensive, failure-prone
  operation in the serving path) are retried with exponential backoff
  and *seeded* jitter (:class:`RetryPolicy`), so a chaos run replays
  the exact same retry schedule from the same seed;
* **circuit breaker** — a sliding-window breaker
  (:class:`CircuitBreaker`) on the refresh path stops hammering a
  persistently failing solver: after the window's failure rate crosses
  the threshold the breaker opens, refreshes short-circuit instantly,
  and a half-open probe admits one trial refresh after the reset
  timeout;
* **graceful degradation tiers** — every answer is stamped with the
  :class:`Tier` it was served at: ``fresh`` (active snapshot matches
  the current graph), ``stale`` (a staged delta could not be
  re-solved; the last good snapshot keeps answering, staleness
  stamped), ``static`` (no solved snapshot at all; a top-K-by-weight
  fallback assortment answers), and ``shed`` (nothing servable;
  queries fail fast with :class:`~repro.errors.ServingError`).
  Degradation is monotone — the tier only worsens while faults
  persist — and a successful refresh resets it to ``fresh``;
* **warm restart** — the last good snapshot is persisted atomically
  (:class:`SnapshotPersister`, reusing the checkpoint subsystem's
  ``atomic_write_bytes`` tmp+fsync+replace discipline) and restored on
  startup, so a restarted process answers queries *before* its first
  solve.  Restores revalidate the context digest: a snapshot for a
  different graph or stopping rule is skipped exactly like a corrupt
  checkpoint.

The differential guarantee survives every tier that serves: snapshots
(warm-restored, stale or static alike) recompute their conditional
coverage vector through :func:`repro.core.cover.item_coverage` at
construction, so a served answer is bitwise-equal to an offline
recomputation over the snapshot's retained set by construction.
``repro check --serving-chaos`` (the ``chaos`` mode of
:mod:`repro.evaluation.fuzz`) proves this under injected refresh
crashes, latency and restarts.
"""

from __future__ import annotations

import io
import json
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union,
)

import numpy as np

from ..clickstream.drift import GraphDelta
from ..core.cover import coverage_vector
from ..core.csr import CSRGraph
from ..core.result import SolveResult
from ..core.variants import Variant
from ..errors import ReproError, ServingError
from ..observability import MetricsRegistry
from ..observability.logs import get_logger
from ..resilience.checkpoint import atomic_write_bytes
from ..resilience.faults import active_faults
from .service import AssortmentService
from .store import SolutionSnapshot

#: Persisted-snapshot schema version.
SNAPSHOT_VERSION = 1

#: Filename shape: ``snap-<context>-<sequence>.npz``.
_SNAP_PREFIX = "snap-"

_LOG = get_logger("runtime")
_BREAKER_LOG = get_logger("breaker")


class Tier(IntEnum):
    """Degradation ladder, ordered best to worst.

    The integer ordering is load-bearing: "degradation is monotone"
    means the tier value never *decreases* while faults persist, which
    the chaos harness checks with plain ``<=`` comparisons.
    """

    FRESH = 0    #: active snapshot solves the current graph
    STALE = 1    #: last good snapshot serves; a staged delta is unsolved
    STATIC = 2   #: top-K-by-weight fallback assortment serves
    SHED = 3     #: nothing servable; queries fail fast

    @property
    def label(self) -> str:
        """Lower-case metric/report label (``fresh`` ... ``shed``)."""
        return self.name.lower()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    Attributes:
        max_attempts: total attempts (1 = no retries).
        base_delay_s: delay before the first retry.
        max_delay_s: backoff ceiling.
        multiplier: exponential growth factor per retry.
        jitter: fraction of the delay randomized symmetrically
            (``0.5`` means each delay is scaled by a factor drawn
            uniformly from ``[0.5, 1.5]``).
        seed: jitter RNG seed.  The RNG is re-seeded per :meth:`call`,
            so two runs of the same policy replay the *same* jitter
            sequence — chaos tests stay reproducible.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServingError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ServingError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ServingError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServingError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delays(self) -> List[float]:
        """The jittered backoff schedule (``max_attempts - 1`` entries)."""
        rng = random.Random(self.seed)
        out = []
        for attempt in range(self.max_attempts - 1):
            delay = min(
                self.max_delay_s,
                self.base_delay_s * self.multiplier ** attempt,
            )
            if self.jitter > 0:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(delay)
        return out

    def call(
        self,
        fn: Callable[[int], object],
        *,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, Exception, float], None]] = None,
    ):
        """Run ``fn(attempt)`` (1-based) until it succeeds or attempts run out.

        Retries on :class:`~repro.errors.ReproError` only — anything
        else (a genuine bug) propagates immediately.  The final failure
        re-raises the last error; ``on_retry(attempt, error, delay)``
        fires before each backoff sleep.
        """
        schedule = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(attempt)
            except ReproError as exc:
                if attempt == self.max_attempts:
                    raise
                delay = schedule[attempt - 1]
                if on_retry is not None:
                    on_retry(attempt, exc, delay)
                if delay > 0:
                    sleep(delay)


class CircuitBreaker:
    """Sliding-window circuit breaker (closed → open → half-open).

    Outcomes are recorded per refresh *episode* (one retried burst is
    one record).  In the closed state, once the window holds at least
    ``min_calls`` outcomes and the failure rate reaches
    ``failure_threshold`` the breaker opens: :meth:`allow` returns
    ``False`` instantly until ``reset_timeout_s`` elapses, then one
    half-open probe is admitted — its success closes the breaker (and
    clears the window), its failure re-opens it for another timeout.

    State is exported as the gauge ``serving.breaker.state`` (0 closed,
    1 open, 2 half-open) plus transition counters, so a metrics scrape
    shows exactly where the refresh path stands.
    """

    _STATE_CODE = {"closed": 0, "open": 1, "half_open": 2}

    def __init__(
        self,
        *,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_calls: int = 4,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if window < 1:
            raise ServingError(f"window must be >= 1, got {window}")
        if not 0.0 < failure_threshold <= 1.0:
            raise ServingError(
                f"failure_threshold must be in (0, 1], got "
                f"{failure_threshold}"
            )
        if min_calls < 1:
            raise ServingError(f"min_calls must be >= 1, got {min_calls}")
        if reset_timeout_s < 0:
            raise ServingError("reset_timeout_s must be >= 0")
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.reset_timeout_s = reset_timeout_s
        self.clock = clock
        self.metrics = metrics
        self._lock = threading.Lock()
        self._outcomes: "deque[bool]" = deque(maxlen=window)
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.opened = 0
        self.closed = 0
        self._export_state()

    # ------------------------------------------------------------------
    def _export_state(self) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                "serving.breaker.state", self._STATE_CODE[self._state]
            )

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        previous = self._state
        self._state = state
        _BREAKER_LOG.event(
            "breaker_transition",
            level="warning" if state == "open" else "info",
            from_state=previous,
            to_state=state,
        )
        if self.metrics is not None:
            self.metrics.incr(f"serving.breaker.{state}")
        if state == "open":
            self.opened += 1
            self._opened_at = self.clock()
        elif state == "closed":
            self.closed += 1
            self._outcomes.clear()
        self._export_state()

    @property
    def state(self) -> str:
        """Current breaker state (``closed`` / ``open`` / ``half_open``)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a refresh may proceed right now.

        In the open state this flips to half-open (admitting exactly one
        probe) once the reset timeout has elapsed.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self.clock() - self._opened_at < self.reset_timeout_s:
                    return False
                self._transition("half_open")
                self._probe_in_flight = True
                return True
            # half-open: one probe at a time
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """Record one successful refresh episode."""
        with self._lock:
            self._probe_in_flight = False
            if self._state == "half_open":
                self._transition("closed")
                return
            self._outcomes.append(True)

    def record_failure(self) -> None:
        """Record one failed refresh episode (post-retries)."""
        with self._lock:
            self._probe_in_flight = False
            if self._state == "half_open":
                self._transition("open")
                return
            self._outcomes.append(False)
            if len(self._outcomes) < self.min_calls:
                return
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.failure_threshold:
                self._transition("open")

    def snapshot(self) -> Dict:
        """Plain-python state dump (JSON-serializable)."""
        with self._lock:
            outcomes = list(self._outcomes)
            return {
                "state": self._state,
                "window": self.window,
                "recorded": len(outcomes),
                "failures": sum(1 for ok in outcomes if not ok),
                "opened": self.opened,
                "closed": self.closed,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, window={self.window}, "
            f"threshold={self.failure_threshold})"
        )


@dataclass(frozen=True)
class ServingAnswer:
    """One tier-stamped query answer.

    Attributes:
        item: the queried item id.
        value: the covered probability served.
        tier: the degradation tier the answer was served at.
        staleness_s: age of the answering snapshot on the store clock
            (``None`` for the static fallback, whose age is
            meaningless).
        sequence: delta-feed sequence the answering snapshot
            incorporates (``-1`` for the static fallback).
        source: the answering snapshot's cache key.
    """

    item: Hashable
    value: float
    tier: Tier
    staleness_s: Optional[float]
    sequence: int
    source: str

    def to_dict(self) -> Dict:
        """Plain-python summary (JSON-serializable)."""
        return {
            "item": self.item,
            "value": self.value,
            "tier": self.tier.label,
            "staleness_s": self.staleness_s,
            "sequence": self.sequence,
            "source": self.source,
        }


class SnapshotPersister:
    """Atomic on-disk persistence of last-good serving snapshots.

    One snapshot is one ``snap-<context>-<sequence>.npz`` file: the CSR
    arrays, the retained indices and a JSON header (version, context
    key, variant, stopping rule, item table).  Writes go through
    :func:`~repro.resilience.checkpoint.atomic_write_bytes` — the same
    tmp + fsync + ``os.replace`` discipline as solver checkpoints, with
    the same ``checkpoint_write`` fault-injection seam — so a crash
    mid-write can never corrupt the newest snapshot.  Loads scan
    newest-first and skip anything unreadable, version-skewed or
    context-mismatched, falling back to the next older file.

    The conditional coverage vector is deliberately *not* persisted: a
    restored :class:`~repro.serving.store.SolutionSnapshot` recomputes
    it through ``SolutionSnapshot.build``, so restored answers satisfy
    the bitwise differential guarantee by construction rather than by
    trusting bytes on disk.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        keep: int = 2,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if keep < 1:
            raise ServingError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.metrics = metrics
        self.written = 0
        self.write_failures = 0
        self.loads = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def _incr(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.incr(name)

    def path_for(self, key: str, sequence: int) -> Path:
        """Where a snapshot of ``key`` at ``sequence`` lives."""
        return self.directory / (
            f"{_SNAP_PREFIX}{key}-{max(0, sequence):010d}.npz"
        )

    def save(
        self,
        snapshot: SolutionSnapshot,
        *,
        k: Optional[int] = None,
        threshold: Optional[float] = None,
    ) -> bool:
        """Persist one snapshot atomically; ``False`` on (counted) failure.

        ``k`` / ``threshold`` record the owning service's stopping rule
        so a warm restart can rebuild a service that asks the *same*
        question (the context digest covers the rule, so a mismatched
        rebuild would fail the key check).
        """
        header = {
            "version": SNAPSHOT_VERSION,
            "key": snapshot.key,
            "variant": snapshot.variant.value,
            "sequence": int(snapshot.sequence),
            "k": k,
            "threshold": threshold,
            "cover": float(snapshot.result.cover),
            "strategy": snapshot.result.strategy,
            "items": list(snapshot.graph.items),
        }
        graph = snapshot.graph
        buffer = io.BytesIO()
        try:
            np.savez(
                buffer,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                node_weight=graph.node_weight,
                in_ptr=graph.in_ptr,
                in_src=graph.in_src,
                in_weight=graph.in_weight,
                out_ptr=graph.out_ptr,
                out_dst=graph.out_dst,
                out_weight=graph.out_weight,
                retained_indices=np.asarray(
                    snapshot.result.retained_indices, dtype=np.int64
                ),
            )
        except (TypeError, ValueError):
            # Non-JSON-serializable item ids: persistence is best-effort.
            self.write_failures += 1
            self._incr("serving.persist.write_failures")
            return False
        faults = active_faults()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.path_for(snapshot.key, snapshot.sequence),
                buffer.getvalue(),
                fail_hook=(
                    None if faults is None else faults.checkpoint_write_fails
                ),
            )
        except (OSError, ReproError):
            self.write_failures += 1
            self._incr("serving.persist.write_failures")
            return False
        self.written += 1
        self._incr("serving.persist.writes")
        self._prune(snapshot.key)
        return True

    def _prune(self, key: str) -> None:
        """Keep only the ``keep`` newest snapshots of this context."""
        try:
            files = sorted(
                self.directory.glob(f"{_SNAP_PREFIX}{key}-*.npz")
            )
        except OSError:
            return
        for stale in files[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def load(
        self, key: str, *, now: float = 0.0
    ) -> Optional[SolutionSnapshot]:
        """Newest valid snapshot for ``key``, or ``None``.

        Candidates are tried newest (highest sequence) first; corrupt,
        version-skewed or key-mismatched files are skipped (counted as
        ``serving.persist.rejected``), mirroring the checkpoint loader's
        longest-valid-prefix discipline.
        """
        self.loads += 1
        try:
            candidates = sorted(
                self.directory.glob(f"{_SNAP_PREFIX}{key}-*.npz"),
                reverse=True,
            )
        except OSError:
            return None
        for path in candidates:
            loaded = self._read_valid(path, key=key, now=now)
            if loaded is not None:
                return loaded[0]
            self.rejected += 1
            self._incr("serving.persist.rejected")
        return None

    def load_latest(
        self, *, now: float = 0.0
    ) -> Optional[Tuple[SolutionSnapshot, Dict]]:
        """Newest valid snapshot of *any* context, with its header.

        Used by :meth:`ServingRuntime.from_persisted`, which needs the
        header's stopping rule to rebuild the owning service.
        """
        self.loads += 1
        try:
            candidates = sorted(
                self.directory.glob(f"{_SNAP_PREFIX}*.npz"),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return None
        for path in candidates:
            loaded = self._read_valid(path, key=None, now=now)
            if loaded is not None:
                return loaded
            self.rejected += 1
            self._incr("serving.persist.rejected")
        return None

    def _read_valid(
        self, path: Path, *, key: Optional[str], now: float
    ) -> Optional[Tuple[SolutionSnapshot, Dict]]:
        """Parse and rebuild one file; ``None`` when unusable."""
        try:
            with np.load(path) as archive:
                header = json.loads(
                    bytes(archive["header"].tobytes()).decode("utf-8")
                )
                arrays = {
                    name: np.array(archive[name])
                    for name in (
                        "node_weight", "in_ptr", "in_src", "in_weight",
                        "out_ptr", "out_dst", "out_weight",
                        "retained_indices",
                    )
                }
        except (OSError, KeyError, ValueError, json.JSONDecodeError,
                UnicodeDecodeError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("version") != SNAPSHOT_VERSION:
            return None
        if key is not None and header.get("key") != key:
            return None
        items = header.get("items")
        if not isinstance(items, list) or len(items) != len(
            arrays["node_weight"]
        ):
            return None
        try:
            graph = CSRGraph(
                arrays["node_weight"],
                arrays["in_ptr"], arrays["in_src"], arrays["in_weight"],
                arrays["out_ptr"], arrays["out_dst"], arrays["out_weight"],
                items,
            )
            retained_indices = arrays["retained_indices"]
            if retained_indices.size and not (
                (0 <= retained_indices)
                & (retained_indices < graph.n_items)
            ).all():
                return None
            retained = [items[int(i)] for i in retained_indices]
            variant = Variant.coerce(header.get("variant"))
            coverage = coverage_vector(graph, retained, variant)
            result = SolveResult(
                variant=variant,
                k=len(retained),
                retained=retained,
                retained_indices=retained_indices,
                cover=float(coverage.sum()),
                coverage=coverage,
                item_ids=list(items),
                strategy=str(header.get("strategy", "restored")),
                context_digest=header.get("key"),
            )
            snapshot = SolutionSnapshot.build(
                str(header.get("key")), graph, variant, result,
                sequence=int(header.get("sequence", 0)),
                created_at=now,
            )
        except (ReproError, TypeError, ValueError, IndexError):
            return None
        return snapshot, header


class ServingRuntime:
    """Fault-tolerant façade over an :class:`AssortmentService`.

    Exposes the service's reader surface (``covered_probability`` /
    ``covered_probability_many`` / ``ensure`` / ``top_alternatives`` /
    ``apply_delta``), so a
    :class:`~repro.serving.frontend.ServingFrontend` can be constructed
    over a runtime unchanged — plus the tier-stamped :meth:`answer` /
    :meth:`answers` API.

    Args:
        service: the wrapped snapshot service.
        retry: refresh retry policy (:class:`RetryPolicy` defaults).
        breaker: refresh circuit breaker; a default
            :class:`CircuitBreaker` wired to the runtime's metrics when
            omitted.
        persist_dir: when set, last-good snapshots are persisted here
            (and restored from here at construction).  Mutually
            exclusive with ``persister``.
        persister: an explicit :class:`SnapshotPersister`.
        static_fallback: whether to serve the top-K-by-weight static
            assortment when no solved snapshot exists (tier
            ``static``); with ``False`` the runtime sheds instead.
        static_k: retained-set size for the static fallback (defaults
            to the service's ``k``, else 10% of the catalogue).
        metrics: telemetry registry; defaults to the service's own.
        clock: monotonic clock (injectable for tests).
        sleep: backoff sleep (injectable for tests).
    """

    def __init__(
        self,
        service: AssortmentService,
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        persist_dir: Union[None, str, Path] = None,
        persister: Optional[SnapshotPersister] = None,
        static_fallback: bool = True,
        static_k: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if persist_dir is not None and persister is not None:
            raise ServingError(
                "provide persist_dir or persister, not both"
            )
        self.service = service
        self.metrics = metrics if metrics is not None else service.metrics
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            metrics=self.metrics
        )
        if persister is None and persist_dir is not None:
            persister = SnapshotPersister(persist_dir, metrics=self.metrics)
        self.persister = persister
        self.static_fallback = static_fallback
        self.static_k = static_k
        self.clock = clock
        self.sleep = sleep
        self.restored = False
        self.shed_count = 0
        self.tier_transitions = 0
        self._tier = Tier.FRESH
        self._tier_lock = threading.Lock()
        self._static: Optional[SolutionSnapshot] = None
        self.metrics.set_gauge("serving.tier", int(self._tier))
        self._try_restore()

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------
    def _try_restore(self) -> None:
        if self.persister is None or self.service.active is not None:
            return
        snapshot = self.persister.load(
            self.service.context_key(), now=self.service.store.now()
        )
        if snapshot is None:
            return
        self.service.adopt(snapshot)
        self.restored = True
        self.metrics.incr("serving.warm_restarts")

    @classmethod
    def from_persisted(
        cls,
        directory: Union[str, Path],
        *,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        static_fallback: bool = True,
        static_k: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> "ServingRuntime":
        """Rebuild a runtime *and its service* from persisted state.

        The cold-start-after-crash path: the newest valid snapshot
        under ``directory`` supplies the graph, the variant and the
        stopping rule; the rebuilt service adopts it immediately, so
        the first query is answerable before any solve.  Raises
        :class:`~repro.errors.ServingError` when no usable snapshot
        exists (the caller then cold-starts normally).
        """
        persister = SnapshotPersister(directory, metrics=metrics)
        loaded = persister.load_latest()
        if loaded is None:
            raise ServingError(
                f"no usable persisted snapshot under {directory}"
            )
        snapshot, header = loaded
        service = AssortmentService(
            snapshot.graph,
            variant=snapshot.variant,
            k=header.get("k"),
            threshold=header.get("threshold"),
            metrics=metrics,
        )
        return cls(
            service,
            retry=retry,
            breaker=breaker,
            persister=persister,
            static_fallback=static_fallback,
            static_k=static_k,
            metrics=metrics,
            clock=clock,
            sleep=sleep,
        )

    def _persist(self, snapshot: SolutionSnapshot) -> None:
        if self.persister is not None:
            self.persister.save(
                snapshot, k=self.service.k, threshold=self.service.threshold
            )

    # ------------------------------------------------------------------
    # Tier bookkeeping
    # ------------------------------------------------------------------
    @property
    def tier(self) -> Tier:
        """The current degradation tier."""
        with self._tier_lock:
            return self._tier

    def _set_tier(self, tier: Tier) -> None:
        with self._tier_lock:
            if tier == self._tier:
                return
            previous = self._tier
            self._tier = tier
            self.tier_transitions += 1
        _LOG.event(
            "tier_transition",
            level="info" if tier == Tier.FRESH else "warning",
            from_tier=previous.label,
            to_tier=tier.label,
        )
        self.metrics.incr("serving.tier_transitions")
        self.metrics.incr(f"serving.tier.{tier.label}")
        self.metrics.set_gauge("serving.tier", int(tier))

    def _degrade(self, tier: Tier) -> None:
        """Move to ``tier`` only if it is *worse* (monotone under faults)."""
        with self._tier_lock:
            if tier <= self._tier:
                return
        self._set_tier(tier)

    # ------------------------------------------------------------------
    # Protected refresh path: breaker gate + retried solve
    # ------------------------------------------------------------------
    def _on_retry(self, attempt: int, exc: Exception, delay: float) -> None:
        self.metrics.incr("serving.retries")
        self.metrics.observe("serving.retry_delay_s", delay)
        _LOG.warning(
            "refresh_retry",
            attempt=attempt,
            delay_s=round(delay, 6),
            error=f"{type(exc).__name__}: {exc}",
        )

    def _protected(
        self, fn: Callable[[], SolutionSnapshot]
    ) -> Optional[SolutionSnapshot]:
        """Run one solve/refresh episode under breaker + retry.

        Returns the new snapshot, or ``None`` when the breaker
        short-circuited or every attempt failed.  The breaker records
        exactly one outcome per episode (not per attempt), so its
        failure window measures refresh *episodes* rather than being
        inflated by the retry multiplier.
        """
        if not self.breaker.allow():
            self.metrics.incr("serving.breaker.short_circuited")
            _LOG.warning("refresh_episode", outcome="short_circuited")
            return None
        started = time.perf_counter()
        try:
            snapshot = self.retry.call(
                lambda attempt: fn(),
                sleep=self.sleep,
                on_retry=self._on_retry,
            )
        except ReproError as exc:
            self.breaker.record_failure()
            elapsed = time.perf_counter() - started
            self.metrics.observe("serving.refresh_episode_s", elapsed)
            _LOG.error(
                "refresh_episode",
                outcome="failed",
                duration_s=round(elapsed, 6),
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
        self.breaker.record_success()
        elapsed = time.perf_counter() - started
        self.metrics.observe("serving.refresh_episode_s", elapsed)
        _LOG.event(
            "refresh_episode",
            outcome="refreshed",
            duration_s=round(elapsed, 6),
            sequence=snapshot.sequence,
        )
        self._set_tier(Tier.FRESH)
        self._persist(snapshot)
        return snapshot

    def _degrade_after_failure(self) -> None:
        """Pick the worst-case tier the next answer will be served at."""
        if self.service.active is not None:
            self._degrade(Tier.STALE)
        elif self.static_fallback:
            self._degrade(Tier.STATIC)
        else:
            self._degrade(Tier.SHED)

    # ------------------------------------------------------------------
    # Lifecycle operations
    # ------------------------------------------------------------------
    def ensure(self) -> SolutionSnapshot:
        """The best servable snapshot, solving cold if needed.

        Mirrors :meth:`AssortmentService.ensure` but never lets a solve
        failure escape while something is still servable: on failure
        the answer comes from the degradation ladder, and only an empty
        ladder raises :class:`~repro.errors.ServingError`.
        """
        snapshot, _ = self._best()
        return snapshot

    def refresh(self) -> Optional[SolutionSnapshot]:
        """Force one protected refresh episode; ``None`` on failure."""
        snapshot = self._protected(self.service.refresh)
        if snapshot is None:
            self._degrade_after_failure()
        return snapshot

    def apply_delta(self, delta: GraphDelta) -> Optional[SolutionSnapshot]:
        """Stage a delta, then re-solve under breaker + retry.

        The graph mutation happens exactly once (stale/duplicate deltas
        drop as usual); only the refresh is retried.  On refresh
        failure the runtime degrades — the last good snapshot keeps
        serving, stamped stale — and returns it (or ``None`` when
        nothing is servable yet).  A delta with a bad entry, or one that
        would leave the graph invalid, is rejected whole by
        :meth:`AssortmentService.stage_delta` before any refresh: the
        graph is left as it was and the typed error (a
        :class:`~repro.errors.ReproError`) propagates; the serving front
        end catches it.
        """
        if not self.service.stage_delta(delta):
            return self.service.active
        snapshot = self._protected(self.service.refresh)
        if snapshot is None:
            self._degrade_after_failure()
            return self.service.active
        return snapshot

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _static_snapshot(self) -> Optional[SolutionSnapshot]:
        """The cached top-K-by-weight fallback for the current graph."""
        if not self.static_fallback:
            return None
        key = f"static:{self.service.context_key()}"
        if self._static is not None and self._static.key == key:
            return self._static
        try:
            csr = self.service.current_csr()
            k = self.static_k or self.service.k or max(1, csr.n_items // 10)
            k = min(k, csr.n_items)
            order = np.argsort(
                -np.asarray(csr.node_weight), kind="stable"
            )[:k].astype(np.int64)
            retained = [csr.items[int(i)] for i in order]
            coverage = coverage_vector(csr, retained, self.service.variant)
            result = SolveResult(
                variant=self.service.variant,
                k=int(k),
                retained=retained,
                retained_indices=order,
                cover=float(coverage.sum()),
                coverage=coverage,
                item_ids=list(csr.items),
                strategy="static-top-weight",
            )
            self._static = SolutionSnapshot.build(
                key, csr, self.service.variant, result,
                sequence=-1,
                created_at=self.service.store.now(),
            )
        except ReproError:
            return None
        self.metrics.incr("serving.static_builds")
        return self._static

    def _best(self) -> Tuple[SolutionSnapshot, Tier]:
        """The snapshot answering right now, with its tier.

        A cold start attempts one protected solve first (the reader
        surface is self-warming, like the bare service's); only then
        does the ladder descend.  Raises
        :class:`~repro.errors.ServingError` when the ladder is
        exhausted (tier ``shed``).
        """
        snapshot = self.service.active
        if snapshot is None:
            snapshot = self._protected(self.service.ensure)
        if snapshot is not None:
            tier = Tier.STALE if self.tier == Tier.STALE else Tier.FRESH
            return snapshot, tier
        static = self._static_snapshot()
        if static is not None:
            self._degrade(Tier.STATIC)
            return static, Tier.STATIC
        self._degrade(Tier.SHED)
        self.shed_count += 1
        self.metrics.incr("serving.shed")
        raise ServingError(
            "no servable snapshot (no solved state, no static fallback); "
            "serving is shedding load"
        )

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------
    def answer(self, item: Hashable) -> ServingAnswer:
        """One tier-stamped point answer."""
        return self.answers([item])[0]

    def answers(self, items: Iterable[Hashable]) -> List[ServingAnswer]:
        """Tier-stamped answers for a batch, from one snapshot reference."""
        items = list(items)
        started = time.perf_counter()
        snapshot, tier = self._best()
        values = snapshot.covered_probability_many(items)
        staleness: Optional[float] = None
        if tier in (Tier.FRESH, Tier.STALE):
            staleness = max(
                0.0, self.service.store.now() - snapshot.created_at
            )
            self.metrics.set_gauge("serving.staleness_s", staleness)
        self.metrics.incr("serving.queries", len(values))
        self.metrics.observe(
            "serving.answer_latency_s",
            time.perf_counter() - started,
            labels={"tier": tier.label},
        )
        return [
            ServingAnswer(
                item=item,
                value=float(value),
                tier=tier,
                staleness_s=staleness,
                sequence=snapshot.sequence,
                source=snapshot.key,
            )
            for item, value in zip(items, values)
        ]

    def covered_probability(self, item: Hashable) -> float:
        """Reader-surface point query (tier-blind, frontend-compatible)."""
        started = time.perf_counter()
        snapshot, tier = self._best()
        self.metrics.incr("serving.queries")
        value = snapshot.covered_probability(item)
        self.metrics.observe(
            "serving.answer_latency_s",
            time.perf_counter() - started,
            labels={"tier": tier.label},
        )
        return value

    def covered_probability_many(
        self, items: Iterable[Hashable]
    ) -> np.ndarray:
        """Reader-surface batched query (tier-blind, frontend-compatible)."""
        started = time.perf_counter()
        snapshot, tier = self._best()
        values = snapshot.covered_probability_many(items)
        self.metrics.incr("serving.queries", len(values))
        self.metrics.observe(
            "serving.answer_latency_s",
            time.perf_counter() - started,
            labels={"tier": tier.label},
        )
        return values

    def top_alternatives(self, item: Hashable, limit: int = 5):
        """Retained substitutes from the best servable snapshot."""
        snapshot, _ = self._best()
        self.metrics.incr("serving.queries")
        return snapshot.top_alternatives(item, limit)

    def active_snapshot(self) -> Optional[SolutionSnapshot]:
        """The service's active (solved) snapshot, if any."""
        return self.service.active

    def readiness(self) -> Tuple[bool, Dict]:
        """The ``/readyz`` verdict: tier at most stale, breaker not open.

        Wired into :class:`~repro.observability.exporter.MetricsExporter`
        by ``repro serve --metrics-port`` — a load balancer polling
        ``/readyz`` drains this replica exactly when the chaos tiers
        say its answers are no longer solve-backed.
        """
        tier = self.tier
        breaker_state = self.breaker.state
        ready = tier <= Tier.STALE and breaker_state != "open"
        return ready, {
            "tier": tier.label,
            "breaker": breaker_state,
        }

    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Service stats plus runtime tier/breaker/persistence state."""
        payload = self.service.stats()
        payload.update(
            tier=self.tier.label,
            tier_transitions=self.tier_transitions,
            breaker=self.breaker.snapshot(),
            restored=self.restored,
            shed_count=self.shed_count,
        )
        if self.persister is not None:
            payload.update(
                persisted=self.persister.written,
                persist_failures=self.persister.write_failures,
            )
        return payload

    def __repr__(self) -> str:
        return (
            f"ServingRuntime(tier={self.tier.label}, "
            f"breaker={self.breaker.state}, "
            f"service={self.service!r})"
        )
