"""One ``repro check`` engine: seeded cases, mode recorders, the registry.

Every check in this repository runs the same loop.  A *case* — an
instance stored whole (items, weights, edges) plus one configuration —
is drawn from a seeded stream, executed by the recorder of its *mode*,
and every record the recorder produces is checked against the invariant
registry (:mod:`repro.evaluation.invariants`).  A failing case is
shrunk delta-debugging style (drop items, then edges, keeping the same
oracle failing) and dumped as a replayable JSON artifact::

    repro check --fuzz --rounds 200 --seed 7 --artifact-dir out/
    repro check --replay out/fuzz-7-0042-prefix-property.json

The ``repro check`` flags are presets (:data:`PRESETS`): which stream
the cases come from, and how many rounds of what size.

* ``--fuzz`` draws adversarial instances (:func:`generate_case`):
  zero-weight items, duplicate edge records, near-tie gains,
  disconnected nodes, integer ids that are *not* dense indices,
  probability-one edges, across strategies, extensions, serving and
  injected cooperative stops.
* ``--differential``, ``--resilience``, ``--serving`` and
  ``--serving-chaos`` draw well-behaved instances of the sparse, dense
  and degree-bounded families (:func:`family_case`), alternating the
  two variants, and run them in the ``differential`` (accelerated
  against naive, threshold against the greedy order), ``resilience``
  (kill, corrupt and resume; a zero-deadline guard), ``serving`` (reads,
  swaps and bad deltas) and ``chaos`` (a serving runtime through a
  fault storm, recovery and warm restart) modes.

Everything is a pure function of ``(preset, seed, rounds, max_items)``
— and, for chaos, of the ambient ``REPRO_FAULTS`` intensities, which
each case records as its own fault spec — so a failure found in CI
replays locally from either the artifact or the seed alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.csr import as_csr
from ..core.graph import PreferenceGraph
from ..core.greedy import greedy_solve
from ..core.threshold import greedy_threshold_solve
from ..core.variants import Variant
from ..errors import ServingError, SolverError
from ..resilience import Checkpointer, RunGuard
from ..resilience.faults import (
    FaultInjector,
    InjectedCrash,
    active_faults,
    inject_faults,
)
from ..workloads.graphs import (
    bounded_degree_graph,
    random_preference_graph,
    small_dense_graph,
)
from .invariants import (
    InvariantViolation,
    SolveRecord,
    applicable_invariants,
    check_record,
)

#: Artifact schema version (bump on incompatible FuzzCase changes).
ARTIFACT_VERSION = 2

#: Solve modes the adversarial generator samples, with selection
#: weights.  Plain ``k`` dominates because it exercises the widest
#: oracle set (prefix property + marginals + digest stability).
_MODES: Tuple[Tuple[str, int], ...] = (
    ("k", 7),
    ("threshold", 4),
    ("capacity", 2),
    ("quotas", 2),
    ("revenue", 2),
    ("serving", 1),
)

_STRATEGIES = ("auto", "naive", "accelerated")

#: The well-behaved instance families, cycled per variant.
_FAMILIES = (random_preference_graph, small_dense_graph, bounded_degree_graph)

#: Malformed (a one-field edge update, an unhashable id) and
#: invariant-breaking (a node weight of 5.0) deltas a serving case may
#: send before its good one.
BAD_DELTAS = ("short-edge", "unhashable", "weight")

#: Deltas a chaos case applies under its fault spec.
_CHAOS_DELTAS = 6

#: Leak-oracle slack: the interpreter may lazily start a couple of
#: helper threads or fds (numpy's, tempfile's) on first use.
_THREAD_SLACK = 2
_FD_SLACK = 4


class Preset(NamedTuple):
    """One ``repro check`` flag: its case stream and its sizes.

    ``mode`` is the family mode the cases run in, or ``None`` for the
    adversarial :func:`generate_case` stream; ``smoke`` and ``full``
    are ``(rounds, max_items)``.  A round is one case; family presets
    alternate the two variants, so half the rounds go to each.
    """

    mode: Optional[str]
    smoke: Tuple[int, int]
    full: Tuple[int, int]


#: The ``repro check`` presets, in the order the CLI runs them.
PRESETS: Dict[str, Preset] = {
    "differential": Preset("differential", (12, 60), (100, 140)),
    "resilience": Preset("resilience", (6, 48), (50, 96)),
    "serving": Preset("serving", (16, 60), (100, 140)),
    "serving-chaos": Preset("chaos", (8, 48), (40, 96)),
    "fuzz": Preset(None, (25, 32), (50, 48)),
}


@dataclass
class FuzzCase:
    """One fully-specified instance + configuration.

    JSON-serializable by construction so every failure is a replayable
    artifact: per-item mappings (costs, categories, revenues) are kept
    as ``[item, value]`` pair lists, which survive a JSON round-trip
    even when item ids are integers (JSON object keys are strings).
    """

    items: List
    node_weights: List[float]
    edges: List[List]  # [src, dst, weight]; duplicates upsert in order
    variant: str
    mode: str
    strategy: str = "auto"
    k: Optional[int] = None
    threshold: Optional[float] = None
    budget: Optional[float] = None
    costs: Optional[List[List]] = None
    categories: Optional[List[List]] = None
    quotas: Optional[List[List]] = None
    revenues: Optional[List[List]] = None
    must_retain: Optional[List] = None
    exclude: Optional[List] = None
    faults: Optional[str] = None  # REPRO_FAULTS-style spec
    delta_seed: Optional[int] = None  # serving/chaos churn seed
    kill_round: Optional[int] = None  # resilience: crash round
    checkpoint_every: Optional[int] = None  # resilience: cadence
    corrupt_strategy: Optional[int] = None  # resilience: 0 naive, 1 acc.
    bad_delta: Optional[str] = None  # serving: one of BAD_DELTAS

    def build_graph(self) -> PreferenceGraph:
        """Materialize the mutable graph (duplicate edges upsert)."""
        graph = PreferenceGraph()
        for item, weight in zip(self.items, self.node_weights):
            graph.add_item(item, weight=weight)
        for src, dst, weight in self.edges:
            graph.add_edge(src, dst, weight=weight)
        return graph

    def to_dict(self) -> Dict:
        out = {
            "items": list(self.items),
            "node_weights": [float(w) for w in self.node_weights],
            "edges": [[s, d, float(w)] for s, d, w in self.edges],
            "variant": self.variant,
            "mode": self.mode,
            "strategy": self.strategy,
        }
        for key in (
            "k", "threshold", "budget", "costs", "categories",
            "quotas", "revenues", "must_retain", "exclude", "faults",
            "delta_seed", "kill_round", "checkpoint_every",
            "corrupt_strategy", "bad_delta",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "FuzzCase":
        kwargs = dict(payload)
        return cls(**kwargs)


@dataclass(frozen=True)
class FuzzFailure:
    """One invariant violation (or crash) with its shrunken repro.

    ``case`` is ``None`` for a leak found across the whole sweep.
    """

    round_no: int
    invariant: str
    detail: str
    case: Optional[FuzzCase]
    artifact: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.case is None:
            return f"sweep: {self.invariant}: {self.detail}"
        where = f" [{self.artifact}]" if self.artifact else ""
        return (
            f"round {self.round_no} ({self.case.mode}/"
            f"{self.case.variant}, n={len(self.case.items)}): "
            f"{self.invariant}: {self.detail}{where}"
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    rounds: int
    seed: int
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    wall_time_s: float = 0.0
    preset: str = "fuzz"

    @property
    def ok(self) -> bool:
        """True when every round satisfied every applicable oracle."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph verdict."""
        head = (
            f"{self.preset}: {self.rounds} round(s) @ seed {self.seed}, "
            f"{self.checks} invariant check(s) in "
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


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def _weighted_choice(rng: random.Random, table) -> str:
    total = sum(weight for _, weight in table)
    pick = rng.random() * total
    for value, weight in table:
        pick -= weight
        if pick <= 0:
            return value
    return table[-1][0]


def _generate_items(rng: random.Random, n: int) -> List:
    """Item ids in one of three styles; the shuffled-integer style is
    the adversarial one where id and dense index collide but disagree."""
    style = rng.randrange(3)
    if style == 0:
        return list(range(n))
    if style == 1:
        ids = list(range(n))
        rng.shuffle(ids)
        # Shift occasionally so some ids fall outside [0, n) entirely.
        if rng.random() < 0.5:
            offset = rng.randrange(1, 4)
            ids = [i + offset for i in ids]
        return ids
    return [f"it{i:03d}" for i in range(n)]


def _generate_weights(rng: random.Random, n: int) -> List[float]:
    """Node weights summing to one, with zero-weight and tied items."""
    weights = [rng.random() for _ in range(n)]
    if rng.random() < 0.4:  # zero-weight items (never all of them)
        for i in rng.sample(range(n), rng.randrange(1, max(2, n // 3))):
            weights[i] = 0.0
    if rng.random() < 0.4:  # near/exact ties via coarse rounding
        weights = [round(w, 1) for w in weights]
    if sum(weights) <= 0:
        weights[rng.randrange(n)] = 1.0
    total = sum(weights)
    return [w / total for w in weights]


def _generate_edges(rng: random.Random, items: List) -> List[List]:
    """Out-edges with out-sums <= 1, duplicates, and p=1 edges.

    Disconnected nodes arise naturally from zero out-degree draws.
    """
    n = len(items)
    edges: List[List] = []
    for src_pos in range(n):
        degree = rng.randrange(0, min(4, n))
        if degree == 0:
            continue
        targets = rng.sample(
            [p for p in range(n) if p != src_pos], min(degree, n - 1)
        )
        if len(targets) == 1 and rng.random() < 0.25:
            weights = [1.0]  # probability-one sole out-edge
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in targets]
            # Keep the out-sum strictly below 1 so per-weight rounding
            # can never push it past the validator's tolerance.
            scale = min(1.0, rng.uniform(0.3, 0.999) / sum(raw))
            weights = [max(1e-6, w * scale) for w in raw]
        for dst_pos, weight in zip(targets, weights):
            if rng.random() < 0.15:
                # A stale duplicate record; the later upsert wins.
                edges.append(
                    [items[src_pos], items[dst_pos],
                     min(1.0, round(rng.uniform(0.05, 1.0), 3))]
                )
            edges.append(
                [items[src_pos], items[dst_pos], min(1.0, round(weight, 6))]
            )
    return edges


def generate_case(rng: random.Random, *, max_items: int = 48) -> FuzzCase:
    """One random adversarial instance + solver configuration."""
    n = rng.randrange(4, max_items + 1)
    items = _generate_items(rng, n)
    case = FuzzCase(
        items=items,
        node_weights=_generate_weights(rng, n),
        edges=_generate_edges(rng, items),
        variant=rng.choice(("independent", "normalized")),
        mode=_weighted_choice(rng, _MODES),
    )
    k = rng.randrange(1, n + 1)
    if case.mode == "k":
        case.k = k
        case.strategy = rng.choice(_STRATEGIES)
        if rng.random() < 0.25 and k >= 2:
            pool = rng.sample(items, min(len(items), k))
            if rng.random() < 0.5:
                case.must_retain = pool[: rng.randrange(1, k)]
            elif n - k >= 1:
                case.exclude = rng.sample(
                    [i for i in items if i not in pool], 1
                )
    elif case.mode == "threshold":
        case.threshold = round(rng.uniform(0.05, 0.9), 3)
    elif case.mode == "capacity":
        case.costs = [
            [item, round(rng.uniform(0.1, 1.0), 3)] for item in items
        ]
        case.budget = round(rng.uniform(0.5, max(1.0, n * 0.2)), 3)
    elif case.mode == "quotas":
        labels = ["a", "b", "c"][: rng.randrange(2, 4)]
        case.categories = [[item, rng.choice(labels)] for item in items]
        case.quotas = [
            [label, rng.randrange(1, 4)] for label in labels
        ]
        case.k = k
    elif case.mode == "revenue":
        case.revenues = [
            [item, round(rng.uniform(0.1, 2.0), 3)] for item in items
        ]
        case.k = k
    elif case.mode == "serving":
        case.k = k
        case.delta_seed = rng.randrange(1 << 16)

    plain = (
        case.mode in ("k", "threshold")
        and not case.must_retain and not case.exclude
    )
    if plain and rng.random() < 0.2:
        # Cooperative stop with NO run guard configured — the
        # stop-reason-without-a-guard path of the guard-deref bugfix.
        case.faults = f"stop_round={rng.randrange(1, max(2, k))}"
    return case




def family_case(
    rng: random.Random, mode: str, round_no: int, max_items: int
) -> FuzzCase:
    """One well-behaved instance for a family mode, stored whole.

    Rounds alternate the two variants and, per variant, cycle the
    sparse, dense and degree-bounded families; the size is drawn from
    ``[min(24, max_items), max_items]`` (at least 4).
    """
    variant = ("independent", "normalized")[round_no % 2]
    build = _FAMILIES[(round_no // 2) % len(_FAMILIES)]
    low = max(4, min(24, max_items))
    n = rng.randrange(low, max(low, max_items) + 1)
    seed = rng.randrange(2**31 - 1)
    csr = build(n, variant=variant, seed=seed)
    sources = np.repeat(np.arange(n), np.diff(csr.out_ptr))
    case = FuzzCase(
        items=list(range(n)),
        node_weights=csr.node_weight.tolist(),
        edges=[
            [s, d, w] for s, d, w in zip(
                sources.tolist(), csr.out_dst.tolist(),
                csr.out_weight.tolist(),
            )
        ],
        variant=variant,
        mode=mode,
    )
    if mode == "resilience":
        case.k = rng.randrange(4, max(5, n // 2))
        case.kill_round = rng.randrange(1, case.k)
        case.checkpoint_every = rng.randrange(1, 4)
        case.corrupt_strategy = rng.randrange(2)
        return case
    case.k = rng.randrange(1, n)
    if mode == "serving":
        case.delta_seed = rng.randrange(1 << 16)
        if rng.random() < 0.5:
            case.bad_delta = rng.choice(BAD_DELTAS)
    elif mode == "chaos":
        # The ambient spec's refresh intensities, else a built-in mix,
        # seeded per case: the case replays with no environment.
        crash, delay = 0.7, 0.0005
        ambient = active_faults()
        if ambient is not None and (
            ambient.refresh_crash > 0 or ambient.refresh_delay > 0
        ):
            crash, delay = ambient.refresh_crash, ambient.refresh_delay
        case.delta_seed = seed
        case.faults = (
            f"refresh_crash={crash}:refresh_delay={delay}:seed={seed}"
        )
    return case


# ----------------------------------------------------------------------
# Execution: one recorder per mode, each returning the records to check
# ----------------------------------------------------------------------
def _pairs(value: Optional[List[List]]) -> Optional[Dict]:
    if value is None:
        return None
    return {item: v for item, v in value}


def _solve_records(case: FuzzCase, graph, variant) -> List[SolveRecord]:
    """One facade solve (k, threshold or an extension)."""
    from .. import facade

    injector = (
        FaultInjector.from_spec(case.faults) if case.faults else None
    )
    constraints = {}
    if case.must_retain is not None:
        constraints["must_retain"] = case.must_retain
    if case.exclude is not None:
        constraints["exclude"] = case.exclude
    if case.budget is not None:
        constraints["budget"] = case.budget
        constraints["costs"] = _pairs(case.costs)
    if case.categories is not None:
        constraints["categories"] = _pairs(case.categories)
        constraints["quotas"] = _pairs(case.quotas)
    objective = (
        {"revenue": _pairs(case.revenues)}
        if case.revenues is not None else None
    )
    kwargs = dict(
        variant=variant,
        k=case.k,
        threshold=case.threshold,
        strategy=case.strategy,
        constraints=constraints or None,
        objective=objective,
    )
    with inject_faults(injector):
        result = facade.solve(graph, **kwargs)
    params = {
        "k": case.k, "threshold": case.threshold,
        "must_retain": case.must_retain, "exclude": case.exclude,
    }
    record = SolveRecord(
        graph=graph, variant=variant, mode=case.mode,
        result=result, params=params,
    )
    # The exhaustive ordering backs the prefix-property and
    # threshold-boundary oracles; computed OUTSIDE the fault context so
    # an injected stop cannot truncate the reference.
    if case.mode in ("k", "threshold"):
        record.order = greedy_solve(
            graph, k=graph.n_items, variant=variant,
            strategy="accelerated",
        )
    if injector is None and case.mode in ("k", "threshold"):
        record.replay = facade.solve(graph, **kwargs)
    return [record]


def _differential_records(case: FuzzCase, graph, variant):
    """Accelerated against naive, and a threshold solve against the
    accelerated full order."""
    k = case.k
    reference = greedy_solve(graph, k=k, variant=variant, strategy="naive")
    order = greedy_solve(
        graph, k=graph.n_items, variant=variant, strategy="accelerated",
    )
    # The target closes a prefix whose last marginal gain sits above
    # the noise floor, so the stopping point is numerically unambiguous.
    signal = np.flatnonzero(np.diff(reference.prefix_covers) > 1e-6)
    j = int(signal[min(len(signal) - 1, k // 2)]) + 1 if signal.size else 1
    threshold = float(min(1.0, reference.prefix_covers[j]))
    return [
        SolveRecord(
            graph=graph, variant=variant, mode="k",
            result=greedy_solve(
                graph, k=k, variant=variant, strategy="accelerated",
            ),
            params={"k": k}, order=order, reference=reference,
        ),
        SolveRecord(
            graph=graph, variant=variant, mode="threshold",
            result=greedy_threshold_solve(
                graph, threshold=threshold, variant=variant,
            ),
            params={"threshold": threshold}, order=order,
        ),
    ]


def _killed_and_resumed(solve, kill_round: int, every: int, corrupt: bool):
    """``solve(checkpoint)`` killed at ``kill_round``, then resumed from
    its checkpoints (the newest truncated when ``corrupt``); returns the
    resumed result and what the run left behind."""
    with TemporaryDirectory(prefix="repro-resume-") as directory:
        crashed = False
        try:
            with inject_faults(FaultInjector(kill_round=kill_round)):
                solve(Checkpointer(directory, every_rounds=every))
        except InjectedCrash:
            crashed = True
        if corrupt:
            # The loader must fall back instead of poisoning the resume.
            snapshots = sorted(Path(directory).glob("ckpt-*"))
            if snapshots:
                raw = snapshots[-1].read_bytes()
                snapshots[-1].write_bytes(raw[: len(raw) // 2])
        resumed = solve(Checkpointer(directory, every_rounds=every))
        leftovers = [p.name for p in Path(directory).glob(".tmp-*")]
    return resumed, {"crashed": crashed, "leftovers": leftovers}


def _resilience_records(case: FuzzCase, graph, variant):
    """Kill and resume each strategy (one resume from a corrupt newest
    snapshot), a zero-deadline guard, and a killed threshold solve."""
    k = case.k
    kill_round = max(1, min(case.kill_round, k - 1))
    params = {"k": k}
    cleans = {
        strategy: greedy_solve(
            graph, k=k, variant=variant, strategy=strategy,
        )
        for strategy in ("naive", "accelerated")
    }
    records = [SolveRecord(
        graph=graph, variant=variant, mode="k",
        result=cleans["accelerated"], params=params,
        reference=cleans["naive"],
    )]
    for number, (strategy, clean) in enumerate(cleans.items()):
        resumed, seen = _killed_and_resumed(
            lambda checkpoint: greedy_solve(
                graph, k=k, variant=variant, strategy=strategy,
                checkpoint=checkpoint,
            ),
            kill_round, case.checkpoint_every,
            number == case.corrupt_strategy,
        )
        records.append(SolveRecord(
            graph=graph, variant=variant, mode="k", result=resumed,
            params=params, reference=clean, seen=seen,
        ))
    if k < 2:
        return records
    records.append(SolveRecord(
        graph=graph, variant=variant, mode="k",
        result=greedy_solve(
            graph, k=k, variant=variant, strategy="accelerated",
            guard=RunGuard(deadline_s=0, on_trigger="partial"),
        ),
        params={"k": k, "deadline_s": 0}, order=cleans["accelerated"],
    ))
    threshold = float(
        min(1.0, cleans["naive"].prefix_covers[max(2, k // 2)])
    )
    try:
        clean = greedy_threshold_solve(
            graph, threshold=threshold, variant=variant,
        )
    except SolverError:
        return records  # threshold numerically unreachable
    if clean.k > 1:
        resumed, seen = _killed_and_resumed(
            lambda checkpoint: greedy_threshold_solve(
                graph, threshold=threshold, variant=variant,
                checkpoint=checkpoint,
            ),
            clean.k - 1, 1, False,
        )
        records.append(SolveRecord(
            graph=graph, variant=variant, mode="threshold",
            result=resumed, params={"threshold": threshold},
            reference=clean, seen=seen,
        ))
    return records


def _serving_record(service, snapshot, variant, **seen) -> SolveRecord:
    """A snapshot with every read the service answers from it."""
    items = list(snapshot.graph.items)
    seen.update(
        point=[service.covered_probability(item) for item in items],
        query=service.query(items),
        alternatives=[
            service.top_alternatives(item, limit=8) for item in items
        ],
        active=service.active,
        again=service.ensure(),
    )
    return SolveRecord(
        graph=snapshot.graph, variant=variant, mode="serving",
        result=snapshot.result, params={"k": service.k},
        snapshot=snapshot, seen=seen,
    )


def _send_bad_delta(service, kind: str) -> Dict:
    """Send one bad delta; what it raised and the state around it."""
    from ..clickstream.drift import GraphDelta

    def state():
        return {
            "active": service.active,
            "sequence": service.stats()["sequence"],
            "graph": service.current_csr().content_digest(),
            "rejected": service.metrics.counter(
                "serving.deltas_rejected"
            ).value,
        }

    before = state()
    item = service.current_csr().items[0]
    delta = GraphDelta(sequence=before["sequence"] + 1, **{
        "short-edge": {"edge_updates": ((item,),)},
        "unhashable": {"edge_updates": (([item], item, 0.5),)},
        "weight": {"node_weights": {item: 5.0}},
    }[kind])
    error = None
    try:
        service.apply_delta(delta)
    except Exception as exc:  # noqa: BLE001 - the oracle judges the type
        error = exc
    return {"kind": kind, "error": error, "before": before, "after": state()}


def _serving_records(case: FuzzCase, graph, variant):
    """A cold snapshot, then (after an optional bad delta) a refresh."""
    from ..clickstream.drift import random_delta
    from ..serving import AssortmentService

    service = AssortmentService(as_csr(graph), variant=variant, k=case.k)
    records = [_serving_record(service, service.ensure(), variant)]
    seen = {}
    if case.bad_delta is not None:
        seen["bad_delta"] = _send_bad_delta(service, case.bad_delta)
    delta = random_delta(
        service.graph, sigma=0.2, edge_churn=0.05, seed=case.delta_seed,
        sequence=service.stats()["sequence"] + 1,
    )
    churned = service.apply_delta(delta)
    records.append(_serving_record(
        service, churned, variant, delta_sequence=delta.sequence, **seen,
    ))
    return records


def _chaos_records(case: FuzzCase, graph, variant):
    """A serving runtime through a clean start, a storm of deltas under
    the case's faults, recovery once they clear, and a warm restart."""
    from ..clickstream.drift import random_delta
    from ..serving import (
        AssortmentService,
        CircuitBreaker,
        RetryPolicy,
        ServingRuntime,
    )

    records: List[SolveRecord] = []

    def served(runtime, phase: str, **seen) -> None:
        seen.update(phase=phase, tier_after=runtime.tier)
        snapshot = None
        try:
            seen["answers"] = runtime.answers(
                list(runtime.service.current_csr().items)
            )
            snapshot, seen["tier"] = runtime._best()
        except ServingError:
            seen.update(answers=None, tier=runtime.tier)
        records.append(SolveRecord(
            graph=getattr(snapshot, "graph", None), variant=variant,
            mode="chaos", result=getattr(snapshot, "result", None),
            seen=seen,
        ))

    with TemporaryDirectory(prefix="repro-chaos-") as tmp:
        service = AssortmentService(as_csr(graph), variant=variant, k=case.k)
        runtime = ServingRuntime(
            service,
            retry=RetryPolicy(
                max_attempts=3, base_delay_s=0.0, jitter=0.0,
                seed=case.delta_seed,
            ),
            breaker=CircuitBreaker(window=8, min_calls=3, reset_timeout_s=0.0),
            persist_dir=tmp,
        )
        runtime.ensure()
        served(runtime, "clean")
        with inject_faults(FaultInjector.from_spec(case.faults)):
            for step in range(_CHAOS_DELTAS):
                delta = random_delta(
                    service.graph, sigma=0.2, edge_churn=0.05,
                    seed=case.delta_seed + step,
                    sequence=service.stats()["sequence"] + 1,
                )
                before = runtime.tier
                snapshot = runtime.apply_delta(delta)
                served(
                    runtime, f"storm@{step}", tier_before=before,
                    refreshed=snapshot is not None
                    and snapshot.sequence == delta.sequence,
                )
        recovered = runtime.refresh()
        if recovered is None:  # the breaker's half-open probe was spent
            recovered = runtime.refresh()
        served(runtime, "recovered", recovered=recovered,
               breaker=runtime.breaker.state)
        reborn = ServingRuntime(
            AssortmentService(service.graph, variant=variant, k=case.k),
            persist_dir=tmp,
        )
        served(reborn, "restart", restored=reborn.restored,
               adopted=reborn.active_snapshot(),
               last_good=runtime.active_snapshot())
    return records


_RECORDERS = {
    **{mode: _solve_records for mode, _ in _MODES},
    "serving": _serving_records,
    "differential": _differential_records,
    "resilience": _resilience_records,
    "chaos": _chaos_records,
}


def run_case(case: FuzzCase) -> Tuple[List[InvariantViolation], int]:
    """Execute one case and check every applicable oracle.

    Returns ``(violations, checks)``, one violation per failing oracle
    (its first).  A crash anywhere in the recorder
    is reported as a ``no-crash`` violation — generated configurations
    are valid by construction, so *any* exception is a defect (this is
    the oracle that catches e.g. a stop-reason path dereferencing an
    absent run guard).  Ambient ``REPRO_FAULTS`` never reach a case:
    the faults it runs under are the ones it records.
    """
    try:
        with inject_faults(None):
            records = _RECORDERS[case.mode](
                case, case.build_graph(), Variant.coerce(case.variant)
            )
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return [InvariantViolation(
            "no-crash",
            f"solve crashed: {type(exc).__name__}: {exc}",
        )], 1

    violations: Dict[str, InvariantViolation] = {}  # first per oracle
    checks = 0
    for record in records:
        checks += len(applicable_invariants(record))
        for violation in check_record(record):
            violations.setdefault(violation.invariant, violation)
    return list(violations.values()), max(checks, 1)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _still_fails(case: FuzzCase, invariant: str) -> bool:
    violations, _ = run_case(case)
    return any(v.invariant == invariant for v in violations)


def _drop_item(case: FuzzCase, position: int) -> Optional[FuzzCase]:
    """The case with one item removed, or ``None`` when not droppable."""
    item = case.items[position]
    items = case.items[:position] + case.items[position + 1:]
    if not items:
        return None
    weights = (
        case.node_weights[:position] + case.node_weights[position + 1:]
    )
    if sum(weights) <= 0:
        weights = list(weights)
        weights[0] = 1.0
    total = sum(weights)
    weights = [w / total for w in weights]
    n = len(items)

    def prune_pairs(pairs):
        if pairs is None:
            return None
        return [[i, v] for i, v in pairs if i != item]

    shrunk = dataclasses.replace(
        case,
        items=items,
        node_weights=weights,
        edges=[e for e in case.edges if e[0] != item and e[1] != item],
        k=min(case.k, n) if case.k is not None else None,
        costs=prune_pairs(case.costs),
        categories=prune_pairs(case.categories),
        revenues=prune_pairs(case.revenues),
        must_retain=(
            [i for i in case.must_retain if i != item]
            if case.must_retain else None
        ) or None,
        exclude=(
            [i for i in case.exclude if i != item]
            if case.exclude else None
        ) or None,
    )
    if shrunk.k is not None and shrunk.exclude:
        shrunk.k = min(shrunk.k, n - len(shrunk.exclude))
        if shrunk.k < 1:
            return None
    if shrunk.must_retain and shrunk.k is not None \
            and len(shrunk.must_retain) > shrunk.k:
        return None
    return shrunk


def shrink_case(
    case: FuzzCase, invariant: str, *, max_attempts: int = 400
) -> FuzzCase:
    """Delta-debug ``case`` to a smaller one failing the same oracle.

    Greedy one-at-a-time reduction: repeatedly try dropping each item
    (with its incident edges, renormalizing weights and clamping the
    configuration), then each surviving edge.  Every candidate is
    re-executed; a reduction is kept only when the *same* invariant
    still fails.  Bounded by ``max_attempts`` re-executions.
    """
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for position in range(len(case.items) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            candidate = _drop_item(case, position)
            if candidate is None:
                continue
            attempts += 1
            if _still_fails(candidate, invariant):
                case = candidate
                improved = True
        for edge_pos in range(len(case.edges) - 1, -1, -1):
            if attempts >= max_attempts:
                break
            candidate = dataclasses.replace(
                case,
                edges=case.edges[:edge_pos] + case.edges[edge_pos + 1:],
            )
            attempts += 1
            if _still_fails(candidate, invariant):
                case = candidate
                improved = True
    return case


# ----------------------------------------------------------------------
# Artifacts & replay
# ----------------------------------------------------------------------
def write_artifact(
    directory, *, seed: int, round_no: int,
    failure: InvariantViolation, case: FuzzCase, preset: str = "fuzz",
) -> str:
    """Dump one failure as a replayable JSON artifact; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{preset}-{seed}-{round_no:04d}-{failure.invariant}.json"
    )
    payload = {
        "version": ARTIFACT_VERSION,
        "preset": preset,
        "seed": seed,
        "round": round_no,
        "invariant": failure.invariant,
        "detail": failure.detail,
        "case": case.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def load_artifact(path) -> Tuple[FuzzCase, Dict]:
    """Parse a fuzz artifact into its case and raw payload."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported fuzz artifact version {version!r} "
            f"(expected {ARTIFACT_VERSION})"
        )
    # An unknown mode would otherwise crash as a finding.
    mode = payload["case"].get("mode")
    if mode not in _RECORDERS:
        raise ValueError(
            f"unsupported fuzz artifact mode {mode!r} (expected one of "
            f"{', '.join(_RECORDERS)})"
        )
    return FuzzCase.from_dict(payload["case"]), payload


def replay_artifact(path) -> List[InvariantViolation]:
    """Re-execute a dumped failure case; returns current violations.

    An empty list means the recorded bug no longer reproduces (fixed);
    CI treats a non-empty list as failure.
    """
    case, _ = load_artifact(path)
    violations, _ = run_case(case)
    return violations


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _open_fds() -> int:
    """Open file-descriptor count for this process (-1 when unknowable)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:  # pragma: no cover - non-procfs platforms
        return -1


def run_fuzz(
    *,
    preset: str = "fuzz",
    rounds: Optional[int] = None,
    seed: int = 0,
    max_items: Optional[int] = None,
    artifact_dir=None,
    log=None,
) -> FuzzReport:
    """Run ``rounds`` cases of a preset and check every applicable oracle.

    Args:
        preset: a :data:`PRESETS` name (the ``repro check`` flag).
        rounds: number of cases (default: the preset's full size).
        seed: master seed; the whole sweep is a pure function of
            ``(preset, seed, rounds, max_items)``.
        max_items: catalog-size ceiling per case (default: the
            preset's full size).
        artifact_dir: where to dump each failure, shrunk to a minimal
            case, as a replayable artifact (``None`` skips dumping).
        log: optional ``callable(str)`` receiving one line per round
            and per failure.

    Besides the per-case oracles, the sweep fails when it leaves more
    threads (slack 2) or file descriptors (slack 4) open than it found.
    """
    mode, _, (full_rounds, full_items) = PRESETS[preset]
    rounds = full_rounds if rounds is None else rounds
    max_items = full_items if max_items is None else max_items
    rng = random.Random(seed)
    report = FuzzReport(rounds=rounds, seed=seed, preset=preset)
    start = time.perf_counter()
    threads, fds = threading.active_count(), _open_fds()
    for round_no in range(rounds):
        if mode is None:
            case = generate_case(rng, max_items=max_items)
        else:
            case = family_case(rng, mode, round_no, max_items)
        violations, checks = run_case(case)
        report.checks += checks
        for violation in violations:
            shrunk = shrink_case(case, violation.invariant)
            # Re-derive the detail from the minimal case when the same
            # oracle still speaks (it should, by construction).
            reruns, _ = run_case(shrunk)
            violation = next(
                (r for r in reruns if r.invariant == violation.invariant),
                violation,
            )
            artifact = None
            if artifact_dir is not None:
                artifact = write_artifact(
                    artifact_dir, seed=seed, round_no=round_no,
                    failure=violation, case=shrunk, preset=preset,
                )
            failure = FuzzFailure(
                round_no=round_no,
                invariant=violation.invariant,
                detail=violation.detail,
                case=shrunk,
                artifact=artifact,
            )
            report.failures.append(failure)
            if log is not None:
                log(f"FAIL {failure}")
        if log is not None:
            log(
                f"{preset} round {round_no} ({case.mode}/{case.variant}, "
                f"n={len(case.items)}): {len(report.failures)} "
                f"failure(s) so far"
            )
    leaks = (
        ("thread-leak", "thread(s)", threads, threading.active_count(),
         _THREAD_SLACK),
        ("fd-leak", "file descriptor(s)", fds, _open_fds(), _FD_SLACK),
    )
    for name, what, before, after, slack in leaks:
        report.checks += 1
        if before >= 0 and after > before + slack:
            report.failures.append(FuzzFailure(
                round_no=rounds, invariant=name, case=None,
                detail=f"{after - before} {what} leaked across the sweep",
            ))
    report.wall_time_s = time.perf_counter() - start
    return report
