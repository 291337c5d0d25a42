"""Clickstream data model (paper Section 5.2).

E-commerce platforms record browsing history as a *clickstream*: events
(clicks and purchases) grouped by session.  Following the paper, we
assume only the minimal information available on most platforms — clicks
and purchases per session — and model a session as the set of items
clicked plus the (at most one) item purchased.  Sessions ending in a
purchase are the signal the Data Adaptation Engine consumes: the
purchased item is the *desired* item, and clicked items are the
alternatives the consumer considered.

:class:`PurchaseEncoding` is the integer form of those purchasing
sessions that the adaptation layer computes on: item ids interned to
codes, one purchase code per session and the alternatives as CSR
offsets plus codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

import numpy as np

from ..errors import ClickstreamFormatError

ItemId = Hashable


@dataclass(frozen=True)
class Session:
    """One browsing session.

    Attributes:
        session_id: opaque identifier.
        clicks: item ids clicked during the session, in click order.
            May include the purchased item; the adaptation engine ignores
            clicks on the purchased item itself.
        purchase: the single purchased item, or ``None`` for a browse-only
            session (the paper argues such sessions are not driven by an
            intention to buy and do not affect the model).
    """

    session_id: Hashable
    clicks: Tuple[ItemId, ...]
    purchase: Optional[ItemId] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "clicks", tuple(self.clicks))

    @property
    def has_purchase(self) -> bool:
        """Whether the session ended with a purchase."""
        return self.purchase is not None

    def alternatives(self) -> Tuple[ItemId, ...]:
        """Distinct clicked items other than the purchase, in click order.

        These are the items the paper's construction treats as considered
        alternatives to the desired (purchased) item.
        """
        seen = set()
        result = []
        for item in self.clicks:
            if item == self.purchase or item in seen:
                continue
            seen.add(item)
            result.append(item)
        return tuple(result)


class AlternativePairs(NamedTuple):
    """The distinct (purchase, alternative) pairs of a :class:`PurchaseEncoding`.

    Pair ``j`` is ``source[j] -> target[j]`` (item codes); pairs are
    sorted by ``(source, target)``.  ``support[j]`` counts the
    purchasing sessions with the pair and ``first[j]`` is the position
    in :attr:`PurchaseEncoding.alternatives` of its first occurrence, so
    ``argsort(first)`` is first-occurrence order.  ``entry_pair[e]`` is
    the pair of alternative entry ``e``.
    """

    source: np.ndarray
    target: np.ndarray
    support: np.ndarray
    first: np.ndarray
    entry_pair: np.ndarray


def _code_dtype(n: int):
    """The smallest of int32/int64 holding the codes ``0..n-1``."""
    return np.int32 if n < np.iinfo(np.int32).max else np.int64


class PurchaseEncoding:
    """Integer encoding of the purchasing sessions of a clickstream.

    Item ids are interned to codes ``0..n_items-1`` in first-seen order,
    reading each purchasing session's purchase and then its
    alternatives.  Row ``i`` is the ``i``-th purchasing session in
    stream order: ``purchase[i]`` is its purchase code and
    ``alternatives[offsets[i]:offsets[i + 1]]`` are the codes of
    :meth:`Session.alternatives`, in the same order.  Browse-only
    sessions have no row.  Ids that compare equal (``1`` and ``True``)
    share one code, as they share one dict key.
    """

    def __init__(
        self,
        items: Tuple[ItemId, ...],
        purchase: np.ndarray,
        offsets: np.ndarray,
        alternatives: np.ndarray,
    ) -> None:
        self.items = items
        self.purchase = purchase
        self.offsets = offsets
        self.alternatives = alternatives
        self._pairs: Optional[AlternativePairs] = None
        # Frozen: one encoding is shared by every caller of its stream.
        for array in (purchase, offsets, alternatives):
            array.setflags(write=False)

    @classmethod
    def from_sessions(cls, sessions: Iterable[Session]) -> "PurchaseEncoding":
        """Encode ``sessions``, calling :meth:`Session.alternatives` once each."""
        sequence: List[ItemId] = []  # purchase, then alternatives, per row
        lengths: List[int] = []
        for session in sessions:
            purchase = session.purchase
            if purchase is None:
                continue
            alternatives = session.alternatives()
            sequence.append(purchase)
            sequence.extend(alternatives)
            lengths.append(len(alternatives))
        index: Dict[ItemId, int] = dict.fromkeys(sequence)
        for code, item in enumerate(index):
            index[item] = code
        codes = np.fromiter(
            map(index.__getitem__, sequence), dtype=_code_dtype(len(index)),
            count=len(sequence),
        )
        del sequence  # release the id list before the array copies
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(np.array(lengths, dtype=np.int64), out=offsets[1:])
        is_alternative = np.ones(codes.size, dtype=bool)
        rows = offsets[:-1] + np.arange(len(lengths))  # purchase positions
        is_alternative[rows] = False
        return cls(tuple(index), codes[rows], offsets, codes[is_alternative])

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of distinct item codes."""
        return len(self.items)

    @property
    def n_purchases(self) -> int:
        """Number of purchasing sessions (rows)."""
        return self.purchase.shape[0]

    def lengths(self) -> np.ndarray:
        """Number of alternatives of each row."""
        return np.diff(self.offsets)

    def purchase_counts(self) -> np.ndarray:
        """Purchasing sessions per item code."""
        return np.bincount(self.purchase, minlength=self.n_items)

    def first_purchase_order(self) -> np.ndarray:
        """Codes of the purchased items, in order of first purchase."""
        codes, first = np.unique(self.purchase, return_index=True)
        return codes[np.argsort(first)]

    def pairs(self) -> AlternativePairs:
        """The distinct (purchase, alternative) pairs; computed once."""
        if self._pairs is None:
            self._pairs = self._group_pairs()
            for array in self._pairs:
                array.setflags(write=False)
        return self._pairs

    def _group_pairs(self) -> AlternativePairs:
        n = self.n_items
        # Key each entry by (source, target); keys stay under n * n.
        keys = np.repeat(
            self.purchase.astype(_code_dtype(n * n)), self.lengths()
        )
        keys *= n
        keys += self.alternatives
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        is_new = np.empty(keys.size, dtype=bool)
        is_new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=is_new[1:])
        starts = np.flatnonzero(is_new)
        dtype = _code_dtype(starts.size)
        entry_pair = np.empty(keys.size, dtype=dtype)
        entry_pair[order] = np.cumsum(is_new, dtype=dtype) - 1
        unique = keys[starts]
        return AlternativePairs(
            source=unique // n,
            target=unique % n,
            support=np.diff(starts, append=keys.size),
            first=order[starts],
            entry_pair=entry_pair,
        )


class Clickstream:
    """A collection of sessions with summary accessors.

    Iterable and indexable; construction validates that session ids are
    unique so downstream joins are unambiguous.
    """

    def __init__(self, sessions: Iterable[Session]) -> None:
        self._sessions: List[Session] = list(sessions)
        self._encoding: Optional[PurchaseEncoding] = None
        ids = set()
        for session in self._sessions:
            if session.session_id in ids:
                raise ClickstreamFormatError(
                    f"duplicate session id {session.session_id!r}"
                )
            ids.add(session.session_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self._sessions)

    def __getitem__(self, index: int) -> Session:
        return self._sessions[index]

    @property
    def n_sessions(self) -> int:
        """Total number of sessions (with or without purchase)."""
        return len(self._sessions)

    @property
    def n_purchases(self) -> int:
        """Number of sessions ending with a purchase."""
        return sum(1 for s in self._sessions if s.has_purchase)

    def purchasing_sessions(self) -> "Clickstream":
        """The sub-stream of sessions that ended with a purchase."""
        return Clickstream(s for s in self._sessions if s.has_purchase)

    def items(self) -> List[ItemId]:
        """All distinct item ids appearing anywhere, in first-seen order."""
        seen: Dict[ItemId, None] = {}
        for session in self._sessions:
            for item in session.clicks:
                seen.setdefault(item, None)
            if session.purchase is not None:
                seen.setdefault(session.purchase, None)
        return list(seen)

    def purchase_counts(self) -> Counter:
        """Counter of purchases per item."""
        counts: Counter = Counter()
        for session in self._sessions:
            if session.purchase is not None:
                counts[session.purchase] += 1
        return counts

    def encoding(self) -> PurchaseEncoding:
        """Integer encoding of the purchasing sessions.

        Built on the first call and kept, which is safe because a
        clickstream has no mutators: the variant-fitness tests and the
        adaptation engine share one encoding per stream.
        """
        if self._encoding is None:
            self._encoding = PurchaseEncoding.from_sessions(self._sessions)
        return self._encoding

    def stats(self) -> Dict[str, int]:
        """Table 2-style summary: sessions, purchases, items."""
        return {
            "sessions": self.n_sessions,
            "purchases": self.n_purchases,
            "items": len(self.items()),
        }

    def extend(self, other: "Clickstream") -> "Clickstream":
        """Concatenate two clickstreams into a new one."""
        return Clickstream(list(self._sessions) + list(other._sessions))

    def __repr__(self) -> str:
        return (
            f"Clickstream(sessions={self.n_sessions}, "
            f"purchases={self.n_purchases})"
        )


def sessions_from_dicts(records: Iterable[dict]) -> Clickstream:
    """Build a clickstream from ``{"clicks": [...], "purchase": ...}`` dicts.

    Missing ``session_id`` fields are auto-numbered.  This is the format
    used by :func:`repro.examples_data.figure3_sessions`.
    """
    sessions = []
    for i, record in enumerate(records):
        if "clicks" not in record:
            raise ClickstreamFormatError(
                f"session record {i} lacks a 'clicks' field"
            )
        sessions.append(
            Session(
                session_id=record.get("session_id", i),
                clicks=tuple(record["clicks"]),
                purchase=record.get("purchase"),
            )
        )
    return Clickstream(sessions)
