"""Choosing the problem variant from the data (paper Section 5.2).

The paper gives two empirical fitness tests:

* **Normalized fit** — the variant's premise is "at most one alternative
  per request".  The test: the fraction of purchasing sessions that
  clicked at most one distinct alternative must be at least 90%.
* **Independent fit** — the premise is independence between
  alternatives.  The test: for every desired item, compute the
  *normalized mutual information* (Strehl & Ghosh) between the
  click-indicators of every pair of its alternatives, average per item,
  then take the node-weight-weighted average over items; below 0.1 the
  Independent variant is a fitting model.

:func:`recommend_variant` runs both tests and applies the paper's
thresholds; ties (both fit) prefer Normalized, whose semantics are the
stronger claim, and when neither fits the Independent variant is
returned as the fallback with ``fits=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.variants import Variant
from ..errors import AdaptationError
from ..clickstream.models import Clickstream

#: Paper thresholds (Section 5.2).
NORMALIZED_FIT_THRESHOLD = 0.9
INDEPENDENT_FIT_THRESHOLD = 0.1


@dataclass(frozen=True)
class VariantRecommendation:
    """Outcome of the variant-selection analysis.

    Attributes:
        variant: the recommended variant.
        fits: whether the recommended variant actually passed its
            fitness test (False means neither test passed and the
            Independent variant is returned as the fallback).
        normalized_fit: fraction of purchasing sessions with at most one
            distinct clicked alternative.
        independence_score: weighted average pairwise NMI (lower means
            more independent); ``None`` when no item had two or more
            co-observable alternatives.
    """

    variant: Variant
    fits: bool
    normalized_fit: float
    independence_score: Optional[float]


def normalized_fit(clickstream: Clickstream) -> float:
    """Fraction of purchasing sessions with <= 1 distinct alternative."""
    encoding = clickstream.encoding()
    total = encoding.n_purchases
    if total == 0:
        raise AdaptationError("clickstream contains no purchasing sessions")
    return int(np.count_nonzero(encoding.lengths() <= 1)) / total


def _binary_entropy(p: float) -> float:
    """Entropy (nats) of a Bernoulli(p) variable."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def _pair_nmi(n11: int, n10: int, n01: int, n00: int) -> float:
    """Normalized mutual information of two binary click indicators.

    ``n11`` counts sessions where both alternatives were clicked, etc.
    Uses the geometric-mean normalization of Strehl & Ghosh; returns 0
    when either marginal is degenerate (constant variables carry no
    dependence information).
    """
    total = n11 + n10 + n01 + n00
    if total == 0:
        return 0.0
    px = (n11 + n10) / total
    py = (n11 + n01) / total
    hx = _binary_entropy(px)
    hy = _binary_entropy(py)
    if hx == 0.0 or hy == 0.0:
        return 0.0
    mutual = 0.0
    cells = (
        (n11 / total, px * py),
        (n10 / total, px * (1 - py)),
        (n01 / total, (1 - px) * py),
        (n00 / total, (1 - px) * (1 - py)),
    )
    for joint, product in cells:
        if joint > 0.0 and product > 0.0:
            mutual += joint * math.log(joint / product)
    return max(0.0, mutual) / math.sqrt(hx * hy)


def _row_start(row: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Index of pair ``(row, row + 1)`` in ``combinations(range(width), 2)``."""
    return row * (width - 1) - row * (row - 1) // 2


def _pair_rows(index: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Row ``i`` of the ``index``-th pair ``(i, j)`` of ``combinations``."""
    b = 2 * width - 1
    row = np.floor((b - np.sqrt(b * b - 8.0 * index)) / 2).astype(np.int64)
    while True:  # repair float rounding
        low = _row_start(row, width) > index
        high = _row_start(row + 1, width) <= index
        if not (low.any() or high.any()):
            return row
        row += high.astype(np.int64) - low


def independence_score(
    clickstream: Clickstream,
    *,
    min_purchases: int = 5,
    max_pairs_per_item: int = 50,
) -> Optional[float]:
    """Weighted average pairwise NMI between alternatives (paper's measure).

    For each desired item with at least ``min_purchases`` purchasing
    sessions and at least two distinct clicked alternatives, compute the
    average NMI over alternative pairs (capped at ``max_pairs_per_item``
    for very wide items), then average over items weighted by purchase
    counts (so rarely bought items do not skew the score).  Returns
    ``None`` when no item qualifies.

    An item's alternatives are sorted by ``repr`` and its pairs taken
    in ``itertools.combinations`` order.  The contingency counts come
    from the stream's :meth:`~Clickstream.encoding`: a pair's marginals
    are the supports of the item's two edges, and ``n11`` counts the
    item's sessions that clicked both.
    """
    encoding = clickstream.encoding()
    counts = encoding.purchase_counts()
    pairs = encoding.pairs()
    items = encoding.items
    n = encoding.n_items

    # Number of scored pairs per item, and each item's first pair.
    width = np.bincount(pairs.source, minlength=n)
    scored = (counts >= min_purchases) & (width >= 2)
    n_scored = np.where(
        scored,
        np.minimum(width * (width - 1) // 2, max(max_pairs_per_item, 1)),
        0,
    )
    first_pair = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_scored, out=first_pair[1:])
    total = int(first_pair[-1])
    if total == 0:
        return None

    # Rank of every (item, alternative) pair among the item's
    # alternatives sorted by repr (ties keep code order).
    members = np.flatnonzero(scored[pairs.source])
    targets = np.flatnonzero(np.bincount(pairs.target[members], minlength=n))
    reprs = [repr(items[code]) for code in targets.tolist()]
    repr_rank = np.zeros(n, dtype=np.int64)
    repr_rank[targets[sorted(range(len(reprs)), key=reprs.__getitem__)]] = (
        np.arange(targets.size)
    )
    members = members[
        np.lexsort((repr_rank[pairs.target[members]], pairs.source[members]))
    ]
    member_source = pairs.source[members]
    item_start = np.searchsorted(member_source, np.arange(n))
    local = np.zeros(pairs.support.size, dtype=np.int64)
    local[members] = np.arange(members.size) - item_start[member_source]

    # The scored pairs (i, j) of every item, in combinations order.
    pair_item = np.repeat(np.arange(n), n_scored)
    pair_width = width[pair_item]
    index = np.arange(total) - first_pair[pair_item]
    row = _pair_rows(index, pair_width)
    col = index - _row_start(row, pair_width) + row + 1

    # n11: sessions clicking both, from each session's alternative pairs.
    lengths = encoding.lengths()
    entry_item = np.repeat(encoding.purchase, lengths)
    entry_local = local[pairs.entry_pair]
    remaining = np.repeat(encoding.offsets[1:], lengths) - np.arange(
        entry_local.size
    ) - 1  # alternatives after each entry in its session
    hits = [np.zeros(0, dtype=np.int64)]
    left = np.flatnonzero(scored[entry_item] & (remaining > 0))
    step = 1
    while left.size:
        lo = np.minimum(entry_local[left], entry_local[left + step])
        hi = np.maximum(entry_local[left], entry_local[left + step])
        item = entry_item[left]
        at = _row_start(lo, width[item]) + hi - lo - 1
        hit = at < n_scored[item]
        hits.append(first_pair[item[hit]] + at[hit])
        step += 1
        left = left[remaining[left] >= step]
    n11 = np.bincount(np.concatenate(hits), minlength=total)

    pair_of = members[item_start[pair_item] + row]
    n10 = pairs.support[pair_of] - n11
    pair_of = members[item_start[pair_item] + col]
    n01 = pairs.support[pair_of] - n11
    n00 = counts[pair_item] - n11 - n10 - n01
    cache: Dict[Tuple[int, int, int, int], float] = {}
    values = []
    for cell in zip(n11.tolist(), n10.tolist(), n01.tolist(), n00.tolist()):
        value = cache.get(cell)
        if value is None:
            value = cache[cell] = _pair_nmi(*cell)
        values.append(value)

    weighted_sum = 0.0
    weight_total = 0.0
    bounds = first_pair.tolist()
    order = encoding.first_purchase_order()
    for item in order[scored[order]].tolist():
        pair_values = values[bounds[item]:bounds[item + 1]]
        item_score = sum(pair_values) / len(pair_values)
        count = int(counts[item])
        weighted_sum += count * item_score
        weight_total += count
    return weighted_sum / weight_total


def recommend_variant(
    clickstream: Clickstream,
    *,
    normalized_threshold: float = NORMALIZED_FIT_THRESHOLD,
    independence_threshold: float = INDEPENDENT_FIT_THRESHOLD,
    min_purchases: int = 5,
) -> VariantRecommendation:
    """Apply both fitness tests and recommend a variant.

    The Normalized test is checked first (its premise is the more
    specific one); otherwise the Independence test; otherwise the
    Independent variant is returned as the fallback with ``fits=False``,
    matching the paper's position that other dependency schemes are
    future work.
    """
    norm_fit = normalized_fit(clickstream)
    indep_score = independence_score(
        clickstream, min_purchases=min_purchases
    )
    if norm_fit >= normalized_threshold:
        return VariantRecommendation(
            variant=Variant.NORMALIZED,
            fits=True,
            normalized_fit=norm_fit,
            independence_score=indep_score,
        )
    if indep_score is not None and indep_score < independence_threshold:
        return VariantRecommendation(
            variant=Variant.INDEPENDENT,
            fits=True,
            normalized_fit=norm_fit,
            independence_score=indep_score,
        )
    return VariantRecommendation(
        variant=Variant.INDEPENDENT,
        fits=False,
        normalized_fit=norm_fit,
        independence_score=indep_score,
    )
