"""Streaming graph construction: the adaptation engine as an accumulator.

Production clickstreams arrive continuously; rebuilding the preference
graph from scratch for every refresh is wasteful.
:class:`OnlineAdaptationEngine` keeps the sufficient statistics of the
Section 5.2 construction — per-item purchase counts and per-edge
(weighted) click counts — and can emit the current preference graph at
any moment.  A snapshot after observing sessions ``s_1..s_n`` is
identical to the batch engine's output on the same sessions (tested),
and observation is O(clicks) per session.

A decay factor supports sliding-window semantics: with ``decay < 1``
every existing count is multiplied by it once per :meth:`new_period`,
so old behavior fades — the streaming counterpart of the drifting-market
scenario.

:meth:`OnlineAdaptationEngine.observe_all` folds a
:class:`~repro.clickstream.models.Clickstream` from its integer
encoding, one step per item and per (purchase, alternative) pair rather
than per session, and the statistics come out bitwise equal to
observing its sessions one by one.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat
from typing import Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from ..core.graph import PreferenceGraph
from ..core.variants import Variant
from ..errors import AdaptationError
from ..clickstream.models import Clickstream, Session
from .engine import AdaptationConfig

#: Integer-valued floats up to 2**53 are exact.
_EXACT_INTEGERS = float(2 ** 53)


def _plus_ones(value: float, n: int) -> float:
    """``value`` after ``n`` running ``+= 1.0`` steps.

    While the running value is an integer every step is exact, so the
    steps add up to ``value + n`` at once; otherwise (a decayed count)
    they are taken one by one, rounding as a running sum does.
    """
    if value.is_integer() and value + n <= _EXACT_INTEGERS:
        return value + n
    for _ in range(n):
        value += 1.0
    return value


class OnlineAdaptationEngine:
    """Incremental counterpart of the batch Data Adaptation Engine."""

    def __init__(
        self,
        config: Optional[AdaptationConfig] = None,
        *,
        decay: float = 1.0,
    ) -> None:
        if not (0.0 < decay <= 1.0):
            raise AdaptationError(f"decay must be in (0, 1], got {decay}")
        self.config = config or AdaptationConfig()
        self.decay = decay
        self._purchases: Dict[Hashable, float] = defaultdict(float)
        self._click_mass: Dict[Tuple[Hashable, Hashable], float] = (
            defaultdict(float)
        )
        self._session_support: Dict[Tuple[Hashable, Hashable], float] = (
            defaultdict(float)
        )
        # Click-only candidates in first-click order (a dict, not a set,
        # so the snapshot's item order does not depend on hashing).
        self._click_only: Dict[Hashable, None] = {}
        self._observed_sessions = 0

    # ------------------------------------------------------------------
    @property
    def observed_sessions(self) -> int:
        """Total sessions observed (including browse-only ones)."""
        return self._observed_sessions

    def observe(self, session: Session) -> None:
        """Fold one session into the statistics (browse-only is a no-op)."""
        self._observed_sessions += 1
        if session.purchase is None:
            return
        desired = session.purchase
        self._purchases[desired] += 1.0
        alternatives = session.alternatives()
        if not alternatives:
            return
        if self.config.variant is Variant.NORMALIZED:
            weight = 1.0 / len(alternatives)
        else:
            weight = 1.0
        for clicked in alternatives:
            self._click_mass[(desired, clicked)] += weight
            self._session_support[(desired, clicked)] += 1.0
            self._click_only[clicked] = None

    def observe_all(self, sessions: Iterable[Session]) -> None:
        """Fold many sessions, in order.

        A :class:`Clickstream` is folded from its
        :meth:`~Clickstream.encoding`, building no :class:`Session`.  One
        in which distinct ids compare equal (``1`` and ``True``) goes
        session by session instead, so each key keeps the id it was
        first observed as.
        """
        if isinstance(sessions, Clickstream) and not sessions.aliased:
            self._fold(sessions)
            return
        for session in sessions:
            self.observe(session)

    def _fold(self, stream: Clickstream) -> None:
        """:meth:`observe` each session of ``stream``, on its encoding.

        New keys enter each dict in the order :meth:`observe` would add
        them: items by first purchase, pairs and click-only items by
        first occurrence.  Each value receives its additions in session
        order: a run of ``+= 1.0`` at once while the value is an
        integer, and the Normalized ``1/t`` shares one by one.
        """
        encoding = stream.encoding()
        self._observed_sessions += len(stream)
        items = encoding.items
        counts = encoding.purchase_counts().tolist()
        purchases = self._purchases
        for code in encoding.first_purchase_order().tolist():
            item = items[code]
            purchases[item] = _plus_ones(
                purchases.get(item, 0.0), counts[code]
            )

        pairs = encoding.pairs()
        keys = [
            (items[source], items[target]) for source, target in zip(
                pairs.source.tolist(), pairs.target.tolist()
            )
        ]
        supports = pairs.support.tolist()
        mass, support = self._click_mass, self._session_support
        normalized = self.config.variant is Variant.NORMALIZED
        for j in np.argsort(pairs.first).tolist():  # first-occurrence order
            key = keys[j]
            support[key] = _plus_ones(support.get(key, 0.0), supports[j])
            if not normalized:
                mass[key] = _plus_ones(mass.get(key, 0.0), supports[j])
        if normalized:
            # The 1/t shares, entry by entry in session order.
            lengths = encoding.lengths()
            lengths = lengths[lengths > 0]
            shares = np.repeat(1.0 / lengths, lengths).tolist()
            for j, share in zip(pairs.entry_pair.tolist(), shares):
                key = keys[j]
                mass[key] = mass.get(key, 0.0) + share

        # Click-only candidates, in order of first click as an alternative.
        codes, first = np.unique(encoding.alternatives, return_index=True)
        codes = codes[np.argsort(first)].tolist()
        self._click_only.update(dict.fromkeys(map(items.__getitem__, codes)))

    def new_period(self) -> None:
        """Apply the decay factor once (sliding-window semantics)."""
        if self.decay >= 1.0:
            return
        for key in list(self._purchases):
            self._purchases[key] *= self.decay
        for key in list(self._click_mass):
            self._click_mass[key] *= self.decay
            self._session_support[key] *= self.decay

    # ------------------------------------------------------------------
    def snapshot(self) -> PreferenceGraph:
        """The preference graph implied by the statistics so far.

        Equivalent to running the batch engine over every observed
        session (scaled by decay, when enabled).  The graph is emitted
        in bulk form with numpy, and equals the one ``add_item`` over
        the purchased items (then the click-only ones) and ``add_edge``
        over the kept pairs, in pair order, would build.
        """
        config = self.config
        total = sum(self._purchases.values())
        if total <= 0:
            raise AdaptationError(
                "no purchasing sessions observed yet; cannot snapshot"
            )
        items = list(self._purchases)
        counts = np.fromiter(self._purchases.values(), np.float64, len(items))
        node_weight = counts / total
        if config.include_unpurchased:
            purchased = self._purchases
            items += [
                item for item in self._click_only if item not in purchased
            ]
            node_weight = np.concatenate(
                (node_weight, np.zeros(len(items) - counts.size))
            )
        index = dict(zip(items, range(len(items))))
        pairs = self._click_mass
        m = len(pairs)
        # Index of each pair's desired and clicked item, -1 if not a node.
        ends = np.fromiter(
            map(index.get, chain.from_iterable(pairs), repeat(-1)),
            np.int64, 2 * m,
        )
        src, dst = ends[0::2], ends[1::2]
        mass = np.fromiter(pairs.values(), np.float64, m)
        # observe() and _fold() add each new pair to both dicts, in the
        # same order, so their values line up.
        support = np.fromiter(self._session_support.values(), np.float64, m)
        kept = (src >= 0) & (dst >= 0) & ~(support < config.min_edge_sessions)
        src, dst = src[kept], dst[kept]
        # Every desired item was purchased, so its index is in counts.
        weight = config.correction_factor * mass[kept] / (
            counts[src] + config.laplace_alpha
        )
        kept = ~(weight <= config.min_edge_weight)
        return PreferenceGraph._from_arrays(
            items, node_weight, src[kept], dst[kept],
            np.minimum(weight[kept], 1.0), index,
        )
