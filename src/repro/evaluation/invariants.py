"""The invariant-oracle registry the metamorphic fuzzer checks against.

The paper's structure gives the reproduction *free* correctness
oracles: the cover function ``C(S)`` is monotone submodular
(Section 3.1), the greedy order has the prefix property (Section 3.2),
and the threshold problem is the k-problem's dual — the threshold
solver must return exactly the shortest qualifying greedy prefix.  None
of these oracles share code with the solvers (they recompute ``C``
from scratch through :mod:`repro.core.cover`), so any solver path —
strategy, extension, serving snapshot — can be checked
against them independently.  The differential oracles
(``reference-parity``, ``serving-cold-solve``) hold one path to
another: accelerated to naive, resumed to clean, served to offline.

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
``reference-parity``
    a solve equals its reference solve through :func:`compare_results`
    (accelerated against naive, resumed against clean).
``threshold-prefix``
    a threshold solve selects exactly the accelerated full order's
    prefix of its length, and reaches its target.
``interrupted-prefix``
    an interrupted solve returns a flagged, non-empty prefix of the
    full order; a zero-deadline run guard stops it before ``k``.
``kill-fires`` / ``no-temp-checkpoints``
    the injected ``kill_round`` crash fired, and the resume left no
    ``.tmp-*`` checkpoint behind.
``serving-reads`` / ``serving-alternatives`` / ``serving-cache-hit`` /
``serving-hot-swap`` / ``bad-delta-rejected``
    the service's point reads, ``query`` rows and alternatives agree
    with offline recomputation; its active snapshot is the one just
    built, and a cache hit; a bad delta is rejected whole.
``served-bitwise`` / ``served-stamps`` / ``shed-only-at-shed`` /
``tier-ladder`` / ``recovery`` / ``warm-restart``
    the fault-tolerant runtime's answers stay bitwise and stamped at
    every tier, its tier moves only as the degradation ladder allows,
    it recovers once faults clear, and a warm restart restores the last
    good snapshot.

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
from ..errors import ReproError

#: Marginal gains below this are floating-point noise: once the cover
#: saturates, every remaining candidate is a numerical tie and the
#: greedy argmax is ill-defined under finite-precision drift (the
#: "near-exact ties" caveat documented in :mod:`repro.core.greedy`).
#: Invariants over recomputed covers use it as the tolerance.
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

    ``graph`` / ``variant`` / ``mode`` / ``result`` describe the solve
    (``result`` is ``None`` only for a chaos phase that served nothing);
    optional fields unlock the cross-run oracles (``order`` for the
    prefix property, ``replay`` for digest stability, ``snapshot`` for
    the serving differential, ``reference`` for parity), and ``seen``
    holds what a recorder observed around the solve (served reads,
    tiers, a rejected delta's before and after).
    """

    graph: object  # CSRGraph
    variant: Variant
    mode: str
    result: Optional[SolveResult]
    params: Dict = field(default_factory=dict)
    order: Optional[SolveResult] = None
    replay: Optional[SolveResult] = None
    snapshot: object = None  # serving SolutionSnapshot
    reference: Optional[SolveResult] = None
    seen: Dict = field(default_factory=dict)


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


def compare_results(
    reference: SolveResult,
    candidate: SolveResult,
    *,
    noise: float = NOISE,
) -> Optional[str]:
    """Explain how ``candidate`` diverges from ``reference`` (or ``None``).

    Selections must be *identical* (same items, same order) and covers
    bit-equal — every path commits the same nodes through the same
    ``AddNode`` arithmetic, so even floating-point accumulation must
    agree exactly.  The single sanctioned exception is the saturated
    tail: when the reference's marginal gain at the divergence point is
    already below ``noise``, every remaining candidate is a numerical
    tie (incrementally-patched gain arrays drift by ~1 ulp and flip the
    argmax between candidates that differ by less than 1e-14), so only
    the covers must agree within ``noise`` there.
    """
    ref_retained = list(reference.retained)
    cand_retained = list(candidate.retained)
    if cand_retained != ref_retained:
        width = min(len(ref_retained), len(cand_retained))
        diverged = next(
            (
                i for i in range(width)
                if ref_retained[i] != cand_retained[i]
            ),
            width,
        )
        prefix_covers = reference.prefix_covers
        if (
            prefix_covers is not None
            and diverged + 1 < len(prefix_covers)
            and prefix_covers[diverged + 1] - prefix_covers[diverged]
            <= noise
        ):
            # Tie tail: both paths are picking among noise-level gains.
            if abs(candidate.cover - reference.cover) <= noise:
                return None
            return (
                f"covers differ beyond the tie tail at position "
                f"{diverged}: {reference.cover!r} vs {candidate.cover!r}"
            )
        if diverged < width:
            return (
                f"selection diverges at position {diverged}: expected "
                f"{ref_retained[diverged:diverged + 3]!r}..., got "
                f"{cand_retained[diverged:diverged + 3]!r}..."
            )
        return (
            f"selection lengths differ: {len(ref_retained)} vs "
            f"{len(cand_retained)}"
        )
    if candidate.cover != reference.cover:
        return (
            f"cover differs: {reference.cover!r} vs {candidate.cover!r}"
        )
    return None


def _prefix_detail(
    result: SolveResult, order: SolveResult, *, exact: bool
) -> Optional[str]:
    """How ``result`` fails to be ``order``'s prefix of its length.

    With ``exact=False`` a divergence is legal when it is a tie: the
    two selections then reach the same cover at every prefix (within
    :data:`NOISE`), which is how strategies that break noise-level
    ties differently still agree.
    """
    k = len(result.retained)
    prefix = list(order.retained[:k])
    if list(result.retained) == prefix:
        return None
    if exact:
        return (
            f"{k}-item selection {list(result.retained)!r} is not the "
            f"greedy order's prefix {prefix!r}"
        )
    # A genuinely wrong pick loses more than noise somewhere along the
    # chain.
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


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
@register_invariant(
    "result-consistency",
    applies=lambda r: r.result is not None,
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
    # Strategies may break ties between (numerically) equal gains
    # differently, so a divergence is judged by the covers.
    return _prefix_detail(record.result, record.order, exact=False)


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


# ----------------------------------------------------------------------
# Differential and resilience oracles
# ----------------------------------------------------------------------
@register_invariant(
    "reference-parity",
    applies=lambda r: r.reference is not None,
    description="a solve equals its reference solve (accelerated vs "
                "naive, resumed vs clean): identical selection and "
                "bit-equal cover, modulo the noise-tie tail",
)
def _check_reference_parity(record: SolveRecord) -> Optional[str]:
    return compare_results(record.reference, record.result)


@register_invariant(
    "threshold-prefix",
    applies=lambda r: r.mode == "threshold" and r.order is not None,
    description="a threshold solve selects exactly the accelerated full "
                "order's prefix of its length and reaches its target",
)
def _check_threshold_prefix(record: SolveRecord) -> Optional[str]:
    # One engine (the accelerated gains) makes both selections, so
    # they agree exactly, ties included.
    result = record.result
    threshold = float(record.params["threshold"])
    detail = _prefix_detail(result, record.order, exact=True)
    if detail is not None:
        return f"threshold={threshold:.6f}: {detail}"
    if not result.interrupted and result.cover < threshold - 1e-12:
        return (
            f"threshold={threshold:.6f} not reached: cover="
            f"{result.cover!r}"
        )
    return None


@register_invariant(
    "interrupted-prefix",
    applies=lambda r: r.order is not None and (
        r.result.interrupted or "deadline_s" in r.params
    ),
    description="an interrupted solve returns a flagged, non-empty prefix "
                "of the full greedy order; a zero-deadline guard stops "
                "it before k",
)
def _check_interrupted_prefix(record: SolveRecord) -> Optional[str]:
    result, k = record.result, record.params.get("k")
    if not result.interrupted:
        return "a zero-deadline run guard did not interrupt the solve"
    # A stop fault may fire after the last round; a zero deadline trips
    # after the first.
    limit = k - 1 if "deadline_s" in record.params else k
    size = len(result.retained)
    if size == 0 or (limit is not None and size > limit):
        return (
            f"interrupted solve kept {size} item(s); expected 1 to "
            f"{limit}"
        )
    # The same strategy replays the same picks; another one may break
    # noise ties its own way.
    return _prefix_detail(
        result, record.order, exact=result.strategy == record.order.strategy
    )


@register_invariant(
    "kill-fires",
    applies=lambda r: "crashed" in r.seen,
    description="the injected kill_round crash fired",
)
def _check_kill_fires(record: SolveRecord) -> Optional[str]:
    return None if record.seen["crashed"] else "injected crash did not fire"


@register_invariant(
    "no-temp-checkpoints",
    applies=lambda r: "leftovers" in r.seen,
    description="a killed and resumed solve leaves no .tmp-* checkpoint",
)
def _check_no_temp_checkpoints(record: SolveRecord) -> Optional[str]:
    leftovers = record.seen["leftovers"]
    return f"leaked temp checkpoints: {leftovers}" if leftovers else None


# ----------------------------------------------------------------------
# Serving oracles
# ----------------------------------------------------------------------
@register_invariant(
    "serving-reads",
    applies=lambda r: "point" in r.seen,
    description="covered_probability and query rows equal offline "
                "item_coverage and retained membership",
)
def _check_serving_reads(record: SolveRecord) -> Optional[str]:
    snapshot, seen = record.snapshot, record.seen
    offline = item_coverage(
        snapshot.graph, snapshot.result.retained, record.variant
    )
    retained = set(snapshot.result.retained)
    for index, item in enumerate(snapshot.graph.items):
        expected = float(offline[index])
        if seen["point"][index] != expected:
            return (
                f"covered_probability({item!r}) = "
                f"{seen['point'][index]!r}, offline says {expected!r}"
            )
        row = seen["query"][index]
        if row["retained"] != (item in retained) \
                or row["covered_probability"] != expected:
            return (
                f"query({item!r}) = {row!r}; offline says retained="
                f"{item in retained}, covered_probability={expected!r}"
            )
    return None


@register_invariant(
    "serving-alternatives",
    applies=lambda r: "alternatives" in r.seen,
    description="top_alternatives lists only retained items, best "
                "acceptance first, and none for a retained item",
)
def _check_serving_alternatives(record: SolveRecord) -> Optional[str]:
    retained = set(record.snapshot.result.retained)
    for item, alternatives in zip(
        record.snapshot.graph.items, record.seen["alternatives"]
    ):
        weights = [weight for _, weight in alternatives]
        if any(alt not in retained for alt, _ in alternatives):
            return f"top_alternatives({item!r}) returned a dropped item"
        if weights != sorted(weights, reverse=True):
            return f"top_alternatives({item!r}) not sorted by acceptance"
        if item in retained and alternatives:
            return f"retained item {item!r} was offered alternatives"
    return None


@register_invariant(
    "serving-cache-hit",
    applies=lambda r: "again" in r.seen,
    description="a second ensure() returns the identical snapshot object",
)
def _check_serving_cache_hit(record: SolveRecord) -> Optional[str]:
    return None if record.seen["again"] is record.snapshot else (
        "second ensure() re-solved instead of hitting the cache"
    )


@register_invariant(
    "serving-hot-swap",
    applies=lambda r: "active" in r.seen,
    description="the snapshot a solve or delta built is the service's "
                "active one, and a delta's carries its sequence",
)
def _check_serving_hot_swap(record: SolveRecord) -> Optional[str]:
    snapshot, sequence = record.snapshot, record.seen.get("delta_sequence")
    if record.seen["active"] is not snapshot:
        return "apply_delta did not swap the active snapshot"
    if sequence is not None and snapshot.sequence != sequence:
        return (
            f"the delta at sequence {sequence} was not refreshed: the "
            f"snapshot is at sequence {snapshot.sequence}"
        )
    return None


@register_invariant(
    "bad-delta-rejected",
    applies=lambda r: "bad_delta" in r.seen,
    description="a malformed or invariant-breaking delta raises a typed "
                "error, leaves the active snapshot, sequence and graph "
                "as they were, counts in serving.deltas_rejected, and "
                "the next good delta refreshes",
)
def _check_bad_delta_rejected(record: SolveRecord) -> Optional[str]:
    bad = record.seen["bad_delta"]
    before, after = bad["before"], bad["after"]
    kind = bad["kind"]
    if not isinstance(bad["error"], ReproError):
        return f"{kind} delta raised {bad['error']!r}, not a ReproError"
    if after["active"] is not before["active"]:
        return f"{kind} delta replaced the active snapshot"
    for name in ("sequence", "graph"):
        if after[name] != before[name]:
            return f"rejected {kind} delta changed the service's {name}"
    if after["rejected"] != before["rejected"] + 1:
        return (
            f"serving.deltas_rejected went {before['rejected']} -> "
            f"{after['rejected']} for a rejected {kind} delta"
        )
    if record.snapshot.sequence != record.seen["delta_sequence"]:
        return f"the good delta after a rejected {kind} one did not refresh"
    return None


# ----------------------------------------------------------------------
# Serving-runtime (chaos) oracles
# ----------------------------------------------------------------------
@register_invariant(
    "served-bitwise",
    applies=lambda r: r.mode == "chaos" and r.seen["answers"] is not None,
    description="runtime answers equal offline item_coverage of the "
                "serving snapshot bitwise, at every tier",
)
def _check_served_bitwise(record: SolveRecord) -> Optional[str]:
    offline = item_coverage(
        record.graph, record.result.retained, record.variant
    )
    served = np.array([answer.value for answer in record.seen["answers"]])
    if np.array_equal(served, offline):
        return None
    return (
        f"served answers diverge from offline item_coverage at tier "
        f"{record.seen['tier'].label} (max delta "
        f"{float(np.max(np.abs(served - offline))):.3e})"
    )


@register_invariant(
    "served-stamps",
    applies=lambda r: r.mode == "chaos" and r.seen["answers"] is not None,
    description="runtime answers carry the runtime's tier, and fresh or "
                "stale ones a staleness",
)
def _check_served_stamps(record: SolveRecord) -> Optional[str]:
    from ..serving.runtime import Tier

    answers, tier = record.seen["answers"], record.seen["tier"]
    stamped = {answer.tier for answer in answers}
    if stamped != {tier}:
        return (
            f"answers stamped {sorted(t.label for t in stamped)}, "
            f"runtime says {tier.label}"
        )
    if tier in (Tier.FRESH, Tier.STALE) and any(
        answer.staleness_s is None for answer in answers
    ):
        return f"{tier.label} answers missing a staleness stamp"
    return None


@register_invariant(
    "shed-only-at-shed",
    applies=lambda r: r.mode == "chaos",
    description="the runtime raises ServingError only at tier shed",
)
def _check_shed_only_at_shed(record: SolveRecord) -> Optional[str]:
    from ..serving.runtime import Tier

    tier = record.seen["tier"]
    if record.seen["answers"] is None and tier is not Tier.SHED:
        return f"query shed but tier is {tier.label}"
    return None


@register_invariant(
    "tier-ladder",
    applies=lambda r: r.mode == "chaos",
    description="the tier starts fresh; a delta's successful refresh "
                "leaves it fresh, and a failed one never improves it nor "
                "leaves it better than stale",
)
def _check_tier_ladder(record: SolveRecord) -> Optional[str]:
    from ..serving.runtime import Tier

    seen = record.seen
    phase, tier = seen["phase"], seen["tier_after"]
    if "tier_before" not in seen:  # start, recovery or restart
        return None if tier is Tier.FRESH else (
            f"{phase}: tier {tier.label}, expected fresh"
        )
    if seen["refreshed"]:
        return None if tier is Tier.FRESH else (
            f"{phase}: refreshed, but the tier is {tier.label}"
        )
    before = seen["tier_before"]
    return None if tier >= max(before, Tier.STALE) else (
        f"{phase}: the refresh failed, yet the tier went "
        f"{before.label} -> {tier.label}"
    )


@register_invariant(
    "recovery",
    applies=lambda r: "breaker" in r.seen,
    description="once faults clear, a refresh succeeds, closes the "
                "breaker and serves the offline cover",
)
def _check_recovery(record: SolveRecord) -> Optional[str]:
    recovered, breaker = record.seen["recovered"], record.seen["breaker"]
    if recovered is None:
        return "no refresh succeeded after the faults cleared"
    if breaker != "closed":
        return f"breaker {breaker} after recovery"
    offline = cover(
        recovered.graph, recovered.result.retained, record.variant
    )
    if abs(recovered.result.cover - offline) > NOISE:
        return (
            f"recovered cover {recovered.result.cover!r} != offline "
            f"{offline!r}"
        )
    return None


@register_invariant(
    "warm-restart",
    applies=lambda r: "last_good" in r.seen,
    description="a runtime restarted on the persistence directory adopts "
                "the last good snapshot: same retained list, bitwise "
                "equal conditional coverage",
)
def _check_warm_restart(record: SolveRecord) -> Optional[str]:
    seen = record.seen
    if not seen["restored"]:
        return "restarted runtime did not adopt the persisted snapshot"
    adopted, last_good = seen["adopted"], seen["last_good"]
    if list(adopted.result.retained) != list(last_good.result.retained):
        return "restored retained set differs from the last good snapshot"
    if not np.array_equal(adopted.conditional, last_good.conditional):
        return (
            "restored conditional coverage diverges from the last good "
            "snapshot"
        )
    return None
