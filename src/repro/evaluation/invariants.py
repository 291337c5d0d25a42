"""The invariant-oracle registry the metamorphic fuzzer checks against.

The paper's structure gives the reproduction *free* correctness
oracles: the cover function ``C(S)`` is monotone submodular
(Section 3.1), the greedy order has the prefix property (Section 3.2),
and the threshold problem is the k-problem's dual — the threshold
solver must return exactly the shortest qualifying greedy prefix.  None
of these oracles share code with the solvers (they recompute ``C``
from scratch through :mod:`repro.core.cover`), so any solver path —
strategy, extension, serving snapshot — can be checked
against them independently.  The one differential oracle,
``serving-cold-solve``, holds the serving path to the offline solve.

Every oracle is an :class:`Invariant` in the module registry:

``result-consistency``
    :class:`~repro.core.result.SolveResult` internal integrity —
    retained ids align with ``retained_indices`` through ``item_ids``,
    no duplicate selections, interruption flags coherent.
``coverage-accounting``
    ``cover == prefix_covers[-1] == coverage.sum()`` and the coverage
    array equals an independent :func:`~repro.core.cover.coverage_vector`
    recomputation from the retained *ids* (this is the oracle that
    catches id/index-ambiguity bugs in ``resolve_indices``).
``greedy-marginals``
    monotonicity and submodularity along the greedy chain: recomputed
    prefix covers match the solver's, marginal gains are nonnegative
    and (for unconstrained greedy) non-increasing.
``submodularity-spot``
    direct diminishing-returns spot checks
    ``gain(v | S_i) >= gain(v | S_j)`` for prefixes ``S_i ⊆ S_j`` and
    sampled outside nodes ``v``, all recomputed from scratch.
``prefix-property``
    a ``k``-solve equals the first ``k`` entries of the exhaustive
    greedy ordering (modulo the sanctioned noise-tie tail).
``threshold-boundary``
    a threshold solve reaches its target and is *minimal* — the
    next-shorter prefix does not qualify — and agrees with the
    shortest qualifying prefix of the full ordering.
``digest-stability``
    re-running the identical solve reproduces the identical
    ``context_digest``, selection and cover.
``serving-offline``
    a serving snapshot's answers equal offline recomputation exactly
    (the serving layer's transparency guarantee), including after
    :class:`~repro.clickstream.drift.GraphDelta` churn.
``serving-cold-solve``
    a serving snapshot's ``retained`` list, ``cover`` and
    ``conditional`` are bitwise those of a cold :func:`repro.solve` on
    the snapshot's own CSR: a refresh serves what an offline solve of
    the same graph state answers.

Adding a solver feature?  Register its oracle here with
:func:`register_invariant` and the fuzzer picks it up automatically —
see ``docs/fuzzing.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.cover import cover, coverage_vector, item_coverage
from ..core.csr import as_csr
from ..core.result import SolveResult
from ..core.variants import Variant

#: Marginal gains below this are floating-point noise (same floor as
#: the differential harness); invariants over recomputed covers use it
#: as the comparison tolerance.
NOISE = 1e-9

#: Modes whose ``result.cover`` is a probability cover recomputable by
#: :func:`repro.core.cover.cover` on the record's graph (``revenue``
#: solves a *scaled* graph and is checked separately).
_COVER_MODES = ("k", "threshold", "capacity", "quotas", "serving")

#: Modes produced by the plain greedy chain, where marginal gains must
#: be non-increasing (constrained passes may legally reorder).
_GREEDY_MODES = ("k", "threshold", "serving")


@dataclass
class SolveRecord:
    """Everything one fuzzed run hands to the invariant oracles.

    Only ``graph`` / ``variant`` / ``mode`` / ``result`` are mandatory;
    optional fields unlock the cross-run oracles (``order`` for the
    prefix property, ``replay`` for digest stability, ``snapshot`` for
    the serving differential).
    """

    graph: object  # CSRGraph
    variant: Variant
    mode: str
    result: SolveResult
    params: Dict = field(default_factory=dict)
    order: Optional[SolveResult] = None
    replay: Optional[SolveResult] = None
    snapshot: object = None  # serving SolutionSnapshot


@dataclass(frozen=True)
class InvariantViolation:
    """One oracle the run failed, with a human-readable explanation."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.invariant}: {self.detail}"


@dataclass(frozen=True)
class Invariant:
    """A registered oracle: when it applies and how it checks."""

    name: str
    description: str
    applies: Callable[[SolveRecord], bool]
    check: Callable[[SolveRecord], Optional[str]]


#: The registry, in registration (= checking) order.
INVARIANTS: "Dict[str, Invariant]" = {}


def register_invariant(
    name: str,
    *,
    applies: Optional[Callable[[SolveRecord], bool]] = None,
    description: str = "",
):
    """Decorator adding an oracle to the registry.

    ``applies`` gates the oracle per record (default: always); the
    decorated function receives the :class:`SolveRecord` and returns a
    failure detail string, or ``None`` when the invariant holds.
    """

    def wrap(func):
        INVARIANTS[name] = Invariant(
            name=name,
            description=description or (func.__doc__ or "").strip(),
            applies=applies or (lambda record: True),
            check=func,
        )
        return func

    return wrap


def applicable_invariants(record: SolveRecord) -> List[str]:
    """Names of the registered oracles that apply to ``record``."""
    names = []
    for name, inv in INVARIANTS.items():
        try:
            if inv.applies(record):
                names.append(name)
        except Exception:  # noqa: BLE001 - a broken gate means "applies"
            names.append(name)
    return names


def check_record(
    record: SolveRecord, names: Optional[Sequence[str]] = None
) -> List[InvariantViolation]:
    """Run every applicable registered oracle over one record.

    An oracle that *itself* crashes is reported as a violation rather
    than aborting the sweep — a broken oracle hides real bugs.
    """
    violations: List[InvariantViolation] = []
    for name, inv in INVARIANTS.items():
        if names is not None and name not in names:
            continue
        try:
            if not inv.applies(record):
                continue
            detail = inv.check(record)
        except Exception as exc:  # noqa: BLE001 - oracle must not abort
            detail = f"oracle crashed: {type(exc).__name__}: {exc}"
        if detail is not None:
            violations.append(
                InvariantViolation(invariant=name, detail=detail)
            )
    return violations


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
@register_invariant(
    "result-consistency",
    description="SolveResult internal integrity (ids/indices/flags)",
)
def _check_result_consistency(record: SolveRecord) -> Optional[str]:
    result = record.result
    n = record.graph.n_items
    indices = np.asarray(result.retained_indices)
    if len(result.retained) != indices.size:
        return (
            f"retained has {len(result.retained)} items but "
            f"retained_indices has {indices.size}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        return f"retained index out of range [0, {n})"
    if np.unique(indices).size != indices.size:
        return "duplicate entries in retained_indices"
    for pos, (item, idx) in enumerate(
        zip(result.retained, indices.tolist())
    ):
        if result.item_ids[idx] != item:
            return (
                f"retained[{pos}] = {item!r} but item_ids"
                f"[{idx}] = {result.item_ids[idx]!r}"
            )
    if result.interrupted and result.interrupted_reason is None:
        return "interrupted result carries no interrupted_reason"
    if not result.interrupted and result.interrupted_reason is not None:
        return (
            f"uninterrupted result carries interrupted_reason="
            f"{result.interrupted_reason!r}"
        )
    return None


@register_invariant(
    "coverage-accounting",
    applies=lambda r: r.mode in _COVER_MODES,
    description="cover == prefix_covers[-1] == coverage.sum() == "
                "independent recomputation from item ids",
)
def _check_coverage_accounting(record: SolveRecord) -> Optional[str]:
    result = record.result
    total = float(np.sum(result.coverage))
    if abs(total - result.cover) > NOISE:
        return (
            f"coverage.sum() = {total!r} but cover = {result.cover!r}"
        )
    if result.prefix_covers is not None:
        prefix = np.asarray(result.prefix_covers, dtype=np.float64)
        if prefix.size != len(result.retained) + 1:
            return (
                f"prefix_covers has {prefix.size} entries for "
                f"{len(result.retained)} selections"
            )
        if prefix[0] != 0.0:
            return f"prefix_covers[0] = {prefix[0]!r}, expected 0.0"
        if abs(float(prefix[-1]) - result.cover) > NOISE:
            return (
                f"prefix_covers[-1] = {float(prefix[-1])!r} but cover "
                f"= {result.cover!r}"
            )
    # Independent recomputation through the item *ids* — this is where
    # an id/index ambiguity in resolve_indices surfaces.
    recomputed = coverage_vector(
        record.graph, result.retained, record.variant
    )
    if not np.allclose(recomputed, result.coverage, atol=NOISE, rtol=0.0):
        worst = float(np.max(np.abs(recomputed - result.coverage)))
        return (
            f"coverage array diverges from offline recomputation by "
            f"{worst:.3e} (id-based resolve)"
        )
    return None


@register_invariant(
    "greedy-marginals",
    applies=lambda r: (
        r.mode in _GREEDY_MODES
        and r.result.prefix_covers is not None
        and not r.params.get("must_retain")
    ),
    description="recomputed prefix covers match; marginal gains are "
                "nonnegative and non-increasing",
)
def _check_greedy_marginals(record: SolveRecord) -> Optional[str]:
    result = record.result
    prefix = np.asarray(result.prefix_covers, dtype=np.float64)
    # Recompute each prefix's cover from scratch (instances are small).
    for i in range(prefix.size):
        fresh = cover(record.graph, result.retained[:i], record.variant)
        if abs(fresh - float(prefix[i])) > NOISE:
            return (
                f"prefix_covers[{i}] = {float(prefix[i])!r} but "
                f"recomputed C(S_{i}) = {fresh!r}"
            )
    marginals = np.diff(prefix)
    if marginals.size and float(marginals.min()) < -NOISE:
        worst = int(np.argmin(marginals))
        return (
            f"monotonicity violated: marginal gain at position "
            f"{worst} is {float(marginals[worst])!r}"
        )
    rises = np.diff(marginals)
    if rises.size and float(rises.max()) > NOISE:
        worst = int(np.argmax(rises))
        return (
            f"marginal gains increase at position {worst + 1}: "
            f"{float(marginals[worst])!r} -> "
            f"{float(marginals[worst + 1])!r} (greedy violates "
            f"submodular argmax)"
        )
    return None


@register_invariant(
    "submodularity-spot",
    applies=lambda r: (
        r.mode in _GREEDY_MODES
        and len(r.result.retained) >= 2
        and not r.params.get("must_retain")
        and not r.params.get("exclude")
    ),
    description="gain(v | S_i) >= gain(v | S_j) for S_i ⊆ S_j, "
                "recomputed from scratch",
)
def _check_submodularity_spot(record: SolveRecord) -> Optional[str]:
    result = record.result
    graph = record.graph
    variant = record.variant
    retained = list(result.retained)
    outside = [
        item for item in as_csr(graph).items
        if item not in set(retained)
    ][:3]
    if not outside:
        return None
    cuts = sorted({0, len(retained) // 2, len(retained)})
    covers = {i: cover(graph, retained[:i], variant) for i in cuts}
    for v in outside:
        gains = []
        for i in cuts:
            with_v = cover(graph, retained[:i] + [v], variant)
            gain = with_v - covers[i]
            if gain < -NOISE:
                return (
                    f"monotonicity violated: gain({v!r} | S_{i}) = "
                    f"{gain!r} < 0"
                )
            gains.append(gain)
        for a in range(len(cuts) - 1):
            if gains[a + 1] > gains[a] + NOISE:
                return (
                    f"submodularity violated for {v!r}: gain at size "
                    f"{cuts[a + 1]} ({gains[a + 1]!r}) exceeds gain at "
                    f"size {cuts[a]} ({gains[a]!r})"
                )
    return None


@register_invariant(
    "prefix-property",
    applies=lambda r: (
        r.mode == "k"
        and r.order is not None
        and not r.result.interrupted
        and not r.params.get("must_retain")
        and not r.params.get("exclude")
    ),
    description="a k-solve equals the first k entries of the full "
                "greedy ordering (modulo noise ties)",
)
def _check_prefix_property(record: SolveRecord) -> Optional[str]:
    result = record.result
    order = record.order
    k = len(result.retained)
    if list(result.retained) == list(order.retained[:k]):
        return None
    # The selections differ — legal only for ties: when competing
    # candidates have (numerically) equal gains, strategies may break
    # the tie differently, but every prefix must then achieve the same
    # cover.  A genuinely wrong pick loses more than noise somewhere
    # along the chain.
    if result.prefix_covers is None or order.prefix_covers is None:
        return (
            f"k={k} selections diverge from the greedy-order prefix "
            f"and no prefix_covers are available to arbitrate"
        )
    res_prefix = np.asarray(result.prefix_covers, dtype=np.float64)
    ord_prefix = np.asarray(order.prefix_covers, dtype=np.float64)
    if res_prefix.size != k + 1 or ord_prefix.size < k + 1:
        return (
            f"prefix_covers too short to arbitrate a k={k} divergence"
        )
    gaps = np.abs(res_prefix - ord_prefix[: k + 1])
    worst = int(np.argmax(gaps))
    if float(gaps[worst]) > NOISE:
        return (
            f"k={k} solve diverges from the greedy-order prefix beyond "
            f"tie noise: C(S_{worst}) = {float(res_prefix[worst])!r} vs "
            f"ordering's {float(ord_prefix[worst])!r}"
        )
    return None


@register_invariant(
    "threshold-boundary",
    applies=lambda r: r.mode == "threshold" and not r.result.interrupted,
    description="a threshold solve reaches its target with the "
                "shortest qualifying greedy prefix",
)
def _check_threshold_boundary(record: SolveRecord) -> Optional[str]:
    result = record.result
    threshold = float(record.params["threshold"])
    if result.cover < threshold - 1e-12:
        return (
            f"threshold {threshold!r} not reached: cover = "
            f"{result.cover!r}"
        )
    prefix = np.asarray(result.prefix_covers, dtype=np.float64)
    if prefix.size >= 2 and float(prefix[-2]) >= threshold - 1e-12:
        return (
            f"not minimal: the {prefix.size - 2}-item prefix already "
            f"covers {float(prefix[-2])!r} >= threshold {threshold!r}"
        )
    if record.order is not None:
        order_prefix = np.asarray(
            record.order.prefix_covers, dtype=np.float64
        )
        qualifying = np.nonzero(order_prefix >= threshold - 1e-12)[0]
        if qualifying.size:
            shortest = int(qualifying[0])
            if result.k != shortest and abs(
                result.cover - float(order_prefix[shortest])
            ) > NOISE:
                return (
                    f"threshold solve retained {result.k} items but the "
                    f"shortest qualifying greedy prefix has {shortest}"
                )
    return None


@register_invariant(
    "digest-stability",
    applies=lambda r: r.replay is not None,
    description="re-running the identical solve reproduces the "
                "identical digest, selection and cover",
)
def _check_digest_stability(record: SolveRecord) -> Optional[str]:
    result, replay = record.result, record.replay
    if result.context_digest is None or replay.context_digest is None:
        return "facade did not stamp context_digest"
    if result.context_digest != replay.context_digest:
        return (
            f"context_digest unstable: {result.context_digest} vs "
            f"{replay.context_digest}"
        )
    if list(result.retained) != list(replay.retained):
        return "identical solve selected a different retained set"
    if result.cover != replay.cover:
        return (
            f"identical solve produced a different cover: "
            f"{result.cover!r} vs {replay.cover!r}"
        )
    return None


@register_invariant(
    "serving-offline",
    applies=lambda r: r.snapshot is not None,
    description="served answers equal offline recomputation exactly",
)
def _check_serving_offline(record: SolveRecord) -> Optional[str]:
    snapshot = record.snapshot
    graph = snapshot.graph
    offline = item_coverage(graph, snapshot.result.retained, record.variant)
    if not np.array_equal(snapshot.conditional, offline):
        worst = float(np.max(np.abs(snapshot.conditional - offline)))
        return (
            f"snapshot conditional coverage diverges from offline "
            f"item_coverage by {worst:.3e}"
        )
    mask = np.zeros(graph.n_items, dtype=bool)
    mask[
        [graph.index_of(item) for item in snapshot.result.retained]
    ] = True
    if not np.array_equal(snapshot.retained_mask, mask):
        return "retained_mask does not match retained-id membership"
    offline_cover = cover(graph, snapshot.result.retained, record.variant)
    if abs(snapshot.result.cover - offline_cover) > NOISE:
        return (
            f"snapshot cover {snapshot.result.cover!r} != offline "
            f"recomputation {offline_cover!r}"
        )
    return None


@register_invariant(
    "serving-cold-solve",
    applies=lambda r: (
        r.snapshot is not None and not r.snapshot.result.interrupted
    ),
    description="served retained list, cover and conditional are "
                "bitwise those of a cold repro.solve on the snapshot's CSR",
)
def _check_serving_cold_solve(record: SolveRecord) -> Optional[str]:
    from .. import facade
    from ..resilience.faults import inject_faults

    snapshot = record.snapshot
    with inject_faults(None):  # the reference runs unfaulted
        cold = facade.solve(
            snapshot.graph, variant=record.variant,
            k=record.params.get("k"),
            threshold=record.params.get("threshold"),
        )
    if list(snapshot.retained) != list(cold.retained):
        return (
            f"served retained {list(snapshot.retained)!r} != cold "
            f"solve's {list(cold.retained)!r}"
        )
    if snapshot.cover != cold.cover:
        return (
            f"served cover {snapshot.cover!r} != cold solve's "
            f"{cold.cover!r}"
        )
    offline = item_coverage(snapshot.graph, cold.retained, record.variant)
    if not np.array_equal(snapshot.conditional, offline):
        return "served conditional differs from the cold solve's"
    return None
