"""Streaming graph construction: the adaptation engine as an accumulator.

Production clickstreams arrive continuously; rebuilding the preference
graph from scratch for every refresh is wasteful.
:class:`OnlineAdaptationEngine` keeps the sufficient statistics of the
Section 5.2 construction — per-item purchase counts and per-edge
(weighted) click counts — as arrays, folds a
:class:`~repro.clickstream.models.Clickstream` from its integer encoding
with numpy, bitwise equal to observing its sessions one by one, and can
emit the current preference graph at any moment, in bulk form.  It is
the one implementation of the construction: the batch
:meth:`~repro.adaptation.engine.DataAdaptationEngine.build_graph` is a
fold into a fresh engine plus a snapshot.

A decay factor supports sliding-window semantics: with ``decay < 1``
every existing count is multiplied by it once per :meth:`new_period`,
so old behavior fades — the streaming counterpart of the drifting-market
scenario.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from ..core.csr import key_positions
from ..core.graph import PreferenceGraph
from ..core.variants import Variant
from ..errors import AdaptationError
from ..clickstream.models import Clickstream, Session, SessionColumns
from .engine import AdaptationConfig

#: Integer-valued floats up to 2**53 are exact.
_EXACT_INTEGERS = float(2 ** 53)

#: A pair's key is ``source_code << _SHIFT | target_code``.
_SHIFT = 32


def _plus_ones(values: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """``values`` after ``runs[i]`` running ``+= 1.0`` steps on entry ``i``.

    While a value is an integer every step is exact, so its run adds up
    to ``value + run`` at once; otherwise (a decayed count) the steps
    are taken one by one, rounding as a running sum does.
    """
    result = values + runs
    inexact = (values != np.floor(values)) | (result > _EXACT_INTEGERS)
    for i in np.flatnonzero(inexact).tolist():
        value = float(values[i])
        for _ in range(int(runs[i])):
            value += 1.0
        result[i] = value
    return result


class OnlineAdaptationEngine:
    """Incremental counterpart of the batch Data Adaptation Engine.

    Items get codes in first-seen order from an ``{item: code}`` table,
    which merges ids that compare equal (``1``, ``1.0``, ``True``).  By
    code, the engine keeps the purchase counts; the purchased codes in
    first-purchase order, each named by the id it was first purchased
    as; and, for the click-only items, the codes clicked as an
    alternative in first-click order, each named by the id it was first
    clicked as.  The (purchase, alternative) pairs are int64 keys
    ``source << 32 | target`` in first-occurrence order, with their
    (weighted) click mass and session support aligned to them.
    """

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
        self._code: Dict[Hashable, int] = {}
        self._counts = np.zeros(0)
        self._bought = np.zeros(0, dtype=np.int64)
        self._purchased: Dict[Hashable, int] = {}  # name -> position
        self._clicked = np.zeros(0, dtype=np.int64)
        self._clicked_as: List[Hashable] = []
        self._keys = np.zeros(0, dtype=np.int64)
        self._order = np.zeros(0, dtype=np.int64)  # argsort of the keys
        self._mass = np.zeros(0)
        self._support = np.zeros(0)
        self._observed_sessions = 0

    # ------------------------------------------------------------------
    @property
    def observed_sessions(self) -> int:
        """Total sessions observed (including browse-only ones)."""
        return self._observed_sessions

    def observe(self, session: Session) -> None:
        """Fold one session into the statistics (browse-only is a no-op)."""
        self.observe_all((session,))

    def observe_all(self, sessions: Iterable[Session]) -> None:
        """Fold many sessions, in order.

        A :class:`Clickstream` is folded from its
        :meth:`~Clickstream.encoding`, building no :class:`Session`; other
        sessions are read into one stream first, so an unhashable id
        raises ``TypeError`` before any statistic changes.
        """
        if not isinstance(sessions, Clickstream):
            columns = SessionColumns()
            for position, session in enumerate(sessions):
                columns.add(position, session.clicks, session.purchase)
            sessions = Clickstream.from_columns(columns)
        self._observed_sessions += len(sessions)
        self._fold(sessions)

    def _fold(self, stream: Clickstream) -> None:
        """Fold the purchasing sessions of ``stream`` from its encoding,
        as counting them one session at a time would.

        New codes, purchased and clicked items and pairs are appended in
        the order sessions meet them.  Each value receives its additions
        in session order: a run of ``+= 1.0`` at once while the value is
        an integer, and the Normalized ``1/t`` shares one by one.
        """
        encoding = stream.encoding()
        items = names = encoding.items
        if stream.aliased:
            # Equal ids share a code, named by the first one read; a
            # purchased item is named by the one first purchased.
            first = {item: item for item in stream.purchase_counts()}
            names = [first.get(item, item) for item in items]
        table = self._code
        code = np.fromiter(
            (table.setdefault(item, len(table)) for item in items),
            np.int64, len(items),
        )
        self._counts = np.concatenate(
            (self._counts, np.zeros(len(table) - self._counts.size))
        )

        purchases = encoding.purchase_counts()
        order = encoding.first_purchase_order()
        bought = code[order]
        fresh = ~np.isin(bought, self._bought)
        self._purchased.update(zip(
            map(names.__getitem__, order[fresh].tolist()),
            count(len(self._purchased)),
        ))
        self._bought = np.concatenate((self._bought, bought[fresh]))
        self._counts[bought] = _plus_ones(
            self._counts[bought], purchases[order]
        )

        pairs = encoding.pairs()
        keys = code[pairs.source] << _SHIFT | code[pairs.target]
        m = self._keys.size
        at = key_positions(self._keys[self._order], keys)  # sorted: fast
        found = at >= 0
        at[found] = self._order[at[found]]
        new = np.flatnonzero(~found)
        new = new[np.argsort(pairs.first[new])]  # first-occurrence order
        at[new] = np.arange(m, m + new.size)
        self._keys = np.concatenate((self._keys, keys[new]))
        # One sorted run, then the new keys: a stable sort merges them.
        order = np.concatenate((self._order, at[new]))
        self._order = order[np.argsort(self._keys[order], kind="stable")]
        self._mass = np.concatenate((self._mass, np.zeros(new.size)))
        self._support = np.concatenate((self._support, np.zeros(new.size)))
        self._support[at] = _plus_ones(self._support[at], pairs.support)
        if self.config.variant is Variant.NORMALIZED:
            # The 1/t shares, entry by entry in session order.
            lengths = encoding.lengths()
            lengths = lengths[lengths > 0]
            np.add.at(
                self._mass, at[pairs.entry_pair],
                np.repeat(1.0 / lengths, lengths),
            )
        else:
            self._mass[at] = _plus_ones(self._mass[at], pairs.support)

        # Items the fold clicks but never purchases, in first-click
        # order: they were first seen as a click, and codes follow that.
        local = np.flatnonzero(purchases == 0)
        fresh = ~np.isin(code[local], self._clicked)
        self._clicked = np.concatenate((self._clicked, code[local[fresh]]))
        self._clicked_as += map(names.__getitem__, local[fresh].tolist())

    def new_period(self) -> None:
        """Apply the decay factor once (sliding-window semantics)."""
        if self.decay < 1.0:
            for statistic in (self._counts, self._mass, self._support):
                statistic *= self.decay

    # ------------------------------------------------------------------
    def snapshot(self) -> PreferenceGraph:
        """The preference graph implied by the statistics so far.

        Equivalent to running the batch engine over every observed
        session (scaled by decay, when enabled).  The graph is emitted
        in bulk form, with its own item list and index, and equals the
        one ``add_item`` over the purchased items (then the click-only
        ones) and ``add_edge`` over the kept pairs, in pair order, would
        build.
        """
        config = self.config
        counts = self._counts[self._bought]
        # Builtin sum in first-purchase order, as a running total adds.
        total = sum(counts.tolist())
        if total <= 0:
            raise AdaptationError(
                "no purchasing sessions observed yet; cannot snapshot"
            )
        node_weight = counts / total
        index = self._purchased.copy()
        position = np.full(self._counts.size, -1, dtype=np.int64)
        position[self._bought] = np.arange(counts.size)
        if config.include_unpurchased:
            only = np.flatnonzero(position[self._clicked] < 0)
            span = np.arange(counts.size, counts.size + only.size)
            position[self._clicked[only]] = span
            index.update(zip(
                map(self._clicked_as.__getitem__, only.tolist()),
                span.tolist(),
            ))
            node_weight = np.concatenate((node_weight, np.zeros(only.size)))
        source = self._keys >> _SHIFT
        src = position[source]
        dst = position[self._keys & ((1 << _SHIFT) - 1)]
        # Every desired item was purchased; a clicked one need not be.
        kept = (src >= 0) & (dst >= 0) & ~(
            self._support < config.min_edge_sessions
        )
        weight = config.correction_factor * self._mass[kept] / (
            self._counts[source[kept]] + config.laplace_alpha
        )
        src, dst = src[kept], dst[kept]
        kept = ~(weight <= config.min_edge_weight)
        return PreferenceGraph._from_arrays(
            list(index), node_weight, src[kept], dst[kept],
            np.minimum(weight[kept], 1.0), index,
        )
