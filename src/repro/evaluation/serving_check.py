"""Differential correctness harness for the serving layer.

The serving layer's core guarantee is that it is *transparent*: an
answer read from a cached :class:`~repro.serving.SolutionSnapshot` is
bitwise-identical to recomputing the same quantity offline with
:mod:`repro.core.cover` on the same graph and retained set.  This
harness proves it the same way :mod:`repro.evaluation.differential`
proves solver-path equivalence — random valid instances per variant,
every served answer cross-checked against the offline reference, and
any divergence collected as a failure instead of being discovered in
production.

Checked per instance:

* the snapshot's full conditional coverage vector equals an offline
  :func:`~repro.core.cover.item_coverage` recomputation **exactly**
  (``np.array_equal``, no tolerance);
* ``covered_probability`` / ``query`` point reads match the vector and
  the retained-set membership;
* ``top_alternatives`` returns only retained out-neighbors, ordered by
  acceptance weight;
* a second ``ensure`` is a cache hit returning the identical snapshot
  object (no silent re-solve);
* the snapshot's ``retained`` list, ``cover`` and conditional vector
  are bitwise those of a cold :func:`repro.solve` on its own CSR (the
  registry's ``serving-cold-solve`` invariant);
* after a random :class:`~repro.clickstream.drift.GraphDelta` the
  refreshed snapshot passes the same checks against the *updated*
  graph, and its cover matches an offline ``cover()`` recomputation.

Exposed on the CLI as ``repro check --serving`` and run in CI by the
serving-smoke job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..clickstream.drift import random_delta
from ..core.cover import cover, item_coverage
from ..core.variants import Variant
from ..serving import AssortmentService
from ..workloads.graphs import (
    bounded_degree_graph,
    random_preference_graph,
    small_dense_graph,
)
from .invariants import SolveRecord, check_record

#: Instance generators cycled per case (same trio as the solver
#: differential: sparse cluster-local, dense, degree-bounded).
_GENERATORS: Tuple[Tuple[str, Callable], ...] = (
    ("sparse", lambda n, variant, seed: random_preference_graph(
        n, variant=variant, seed=seed)),
    ("dense", lambda n, variant, seed: small_dense_graph(
        n, variant=variant, seed=seed)),
    ("bounded", lambda n, variant, seed: bounded_degree_graph(
        n, variant=variant, seed=seed)),
)


@dataclass(frozen=True)
class ServingFailure:
    """One divergence between a served answer and its offline reference."""

    variant: str
    instance: str
    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.variant}/{self.instance}] {self.check}: {self.detail}"


@dataclass
class ServingReport:
    """Outcome of one :func:`run_serving_differential` sweep."""

    instances: int
    variants: Tuple[str, ...]
    checks: int = 0
    failures: List[ServingFailure] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every served answer matched its reference."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph verdict."""
        head = (
            f"serving differential: {len(self.variants)} variant(s) x "
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


def _check_snapshot(record, variant, instance, service, snapshot, rng):
    """All read-path checks of one snapshot against the offline reference."""
    graph = snapshot.graph
    violations = check_record(
        SolveRecord(
            graph=graph, variant=Variant.coerce(variant), mode="serving",
            result=snapshot.result,
            params={"k": service.k, "threshold": service.threshold},
            snapshot=snapshot,
        ),
        names=("serving-cold-solve",),
    )
    record(
        variant, instance, "cold-solve",
        violations[0].detail if violations else None,
    )
    offline = item_coverage(graph, snapshot.result.retained, variant)
    record(
        variant, instance, "coverage-vector",
        None if np.array_equal(snapshot.conditional, offline) else (
            f"served conditional coverage diverges from offline "
            f"recomputation (max delta "
            f"{float(np.max(np.abs(snapshot.conditional - offline))):.3e})"
        ),
    )

    sample = rng.choice(
        graph.n_items, size=min(16, graph.n_items), replace=False
    )
    for index in sample.tolist():
        item = graph.items[index]
        served = service.covered_probability(item)
        if served != float(offline[index]):
            record(
                variant, instance, "point-read",
                f"covered_probability({item!r}) = {served!r}, offline "
                f"says {float(offline[index])!r}",
            )
            break
    else:
        record(variant, instance, "point-read", None)

    retained_set = set(snapshot.result.retained)
    rows = service.query([graph.items[i] for i in sample.tolist()])
    detail = None
    for row in rows:
        expected = row["item"] in retained_set
        if row["retained"] != expected:
            detail = (
                f"query({row['item']!r}).retained = {row['retained']}, "
                f"membership says {expected}"
            )
            break
    record(variant, instance, "query-membership", detail)

    detail = None
    for index in sample.tolist():
        item = graph.items[index]
        alternatives = service.top_alternatives(item, limit=8)
        weights = [weight for _, weight in alternatives]
        if any(alt not in retained_set for alt, _ in alternatives):
            detail = f"top_alternatives({item!r}) returned a dropped item"
            break
        if weights != sorted(weights, reverse=True):
            detail = f"top_alternatives({item!r}) not sorted by acceptance"
            break
        if item in retained_set and alternatives:
            detail = f"retained item {item!r} was offered alternatives"
            break
    record(variant, instance, "top-alternatives", detail)


def run_serving_differential(
    *,
    instances: int = 50,
    min_items: int = 24,
    max_items: int = 140,
    seed: int = 0,
    variants: Sequence[str] = ("independent", "normalized"),
    log: Optional[Callable[[str], None]] = None,
) -> ServingReport:
    """Cross-check served answers against offline recomputation.

    Args:
        instances: random instances generated *per variant*.
        min_items / max_items: instance-size range (sampled uniformly).
        seed: base RNG seed; the sweep is fully deterministic given it.
        variants: problem variants to cover.
        log: optional progress sink (one line per instance).

    Returns:
        A :class:`ServingReport`; ``report.ok`` is the verdict.
    """
    min_items = max(4, min(min_items, max_items))
    rng = np.random.default_rng(seed)
    report = ServingReport(instances=instances, variants=tuple(variants))
    start = time.perf_counter()

    def record(variant, instance, check, detail):
        report.checks += 1
        if detail is not None:
            report.failures.append(
                ServingFailure(
                    variant=variant, instance=instance, check=check,
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

            service = AssortmentService(graph, variant=variant, k=k)
            snapshot = service.ensure()
            _check_snapshot(record, variant, instance, service, snapshot, rng)

            again = service.ensure()
            record(
                variant, instance, "cache-hit",
                None if again is snapshot else (
                    "second ensure() re-solved instead of hitting the cache"
                ),
            )

            # Drift: apply a delta, then re-run the whole differential
            # against the refreshed snapshot and the *updated* graph.
            delta = random_delta(
                service.graph, sigma=0.2, edge_churn=0.05,
                seed=case_seed, sequence=service.stats()["sequence"] + 1,
            )
            refreshed = service.apply_delta(delta)
            record(
                variant, instance, "hot-swap",
                None if service.active is refreshed else (
                    "apply_delta did not swap the active snapshot"
                ),
            )
            _check_snapshot(
                record, variant, f"{instance}+delta", service, refreshed, rng
            )
            offline_cover = cover(
                refreshed.graph, refreshed.result.retained, variant
            )
            record(
                variant, instance, "post-delta-cover",
                None if refreshed.result.cover == offline_cover or
                abs(refreshed.result.cover - offline_cover) <= 1e-9 else (
                    f"refreshed cover {refreshed.result.cover!r} != offline "
                    f"{offline_cover!r}"
                ),
            )
            if log is not None:
                log(
                    f"{variant} {instance}: "
                    f"{len(report.failures)} failure(s) so far"
                )

    report.wall_time_s = time.perf_counter() - start
    return report
