"""Clickstream data model (paper Section 5.2).

E-commerce platforms record browsing history as a *clickstream*: events
(clicks and purchases) grouped by session.  Following the paper, we
assume only the minimal information available on most platforms — clicks
and purchases per session — and model a session as the set of items
clicked plus the (at most one) item purchased.  Sessions ending in a
purchase are the signal the Data Adaptation Engine consumes: the
purchased item is the *desired* item, and clicked items are the
alternatives the consumer considered.

A :class:`Clickstream` stores its sessions as columns: session ids, the
item codes of all clicks with per-session offsets, one purchase code
per session and the table of item ids by code.  :class:`Session`
objects are built only when a stream is iterated or indexed.

:class:`PurchaseEncoding` is the integer form of the purchasing
sessions that the adaptation layer computes on: item ids interned to
codes, one purchase code per session and the alternatives as CSR
offsets plus codes.  :meth:`Clickstream.encoding` computes it from the
columns with numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
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
        alternatives to the desired (purchased) item.  Ids are compared
        as dict keys are, so a click on the purchase object itself is
        skipped even when it is a NaN, which never equals itself.
        """
        seen = {self.purchase}
        result = []
        for item in self.clicks:
            if item in seen:
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
    share one code, as they share one dict key; ``items`` holds the
    first of them in that reading order.
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


# ----------------------------------------------------------------------
# Session records and columns
# ----------------------------------------------------------------------
#: Types accepted as item / session identifiers.  A *string* ``clicks``
#: value is specifically rejected: ``tuple("abc")`` silently explodes
#: into per-character items.
_SCALAR_TYPES = (str, int, float, bool)

#: Marks a record field that must be present.
_REQUIRED = object()

#: First element of the interning key of an item id that is not a str.
_TAGGED = object()

#: The purchase of a browse-only session in :attr:`SessionColumns.sequence`.
_NO_PURCHASE = object()


class RecordError(ClickstreamFormatError):
    """A session record failed a shape check.

    ``reason`` is the tag a lenient reader counts the record under; the
    caller adds the record's location to the message.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def record_fields(
    record: Mapping, default_id=_REQUIRED
) -> Tuple[Hashable, list, Optional[ItemId]]:
    """Check one session record; return its id, clicks and purchase.

    ``clicks`` must be a list of scalar item ids (a *string* value would
    silently explode into per-character items), ``session_id`` and
    ``purchase`` must be scalars, and ``purchase`` may be missing or
    null.  A missing ``session_id`` takes ``default_id`` when one is
    given.  Raises :class:`RecordError` on the first defect.
    """
    session_id = record.get("session_id", default_id)
    clicks = record.get("clicks", _REQUIRED)
    if session_id is _REQUIRED or clicks is _REQUIRED:
        raise RecordError(
            "missing-fields",
            "session must have 'session_id' and 'clicks'"
            if default_id is _REQUIRED else "session must have 'clicks'",
        )
    if not isinstance(session_id, _SCALAR_TYPES):
        raise RecordError(
            "non-scalar-session-id",
            f"'session_id' must be a scalar, got "
            f"{type(session_id).__name__}",
        )
    if not isinstance(clicks, list):
        raise RecordError(
            "clicks-not-a-list",
            f"'clicks' must be a list of item ids, got "
            f"{type(clicks).__name__}",
        )
    for click in clicks:
        if not isinstance(click, _SCALAR_TYPES):
            raise RecordError(
                "non-scalar-click",
                f"click item ids must be scalars, got "
                f"{type(click).__name__}",
            )
    purchase = record.get("purchase")
    if purchase is not None and not isinstance(purchase, _SCALAR_TYPES):
        raise RecordError(
            "non-scalar-purchase",
            f"'purchase' must be a scalar item id or null, got "
            f"{type(purchase).__name__}",
        )
    return session_id, clicks, purchase


class _Interner(dict):
    """Item id -> code, assigned in first-seen order.

    A str id is its own key.  Any other id is keyed by its type as well
    (a float also by its sign), so ids that compare equal without being
    the same value (``1``, ``1.0`` and ``True``; ``0.0`` and ``-0.0``)
    keep separate codes and every session reads back as it was added.
    :meth:`classes` merges them for the encoding.  ``_NO_PURCHASE``
    has code ``-1``.
    """

    def __init__(self) -> None:
        super().__init__()
        self[_NO_PURCHASE] = -1
        self.ids: List[ItemId] = []
        self.tagged = False

    def __missing__(self, item: ItemId) -> int:
        if type(item) is str:
            key = item
        else:
            sign = math.copysign(1.0, item) if isinstance(item, float) else 0
            key = (_TAGGED, type(item), item, sign)
            code = self.get(key)
            if code is not None:
                return code
            self.tagged = True
        code = self[key] = len(self.ids)
        self.ids.append(item)
        return code

    def classes(self) -> Optional[np.ndarray]:
        """Code -> code of its equality class, in first-seen order.

        ``None`` when no two ids compare equal, so that each code is its
        own class.
        """
        if not self.tagged:
            return None
        index: Dict[ItemId, int] = {}
        classes = [index.setdefault(item, len(index)) for item in self.ids]
        if len(index) == len(classes):
            return None
        return np.array(classes, dtype=_code_dtype(len(classes)))


class SessionColumns:
    """Sessions as appended, before :class:`Clickstream` interns them.

    ``sequence`` holds each session's clicks and then its purchase
    (``_NO_PURCHASE`` when it bought nothing), and ``lengths[i]`` is
    the number of clicks of session ``i``.
    """

    def __init__(self) -> None:
        self.session_ids: List[Hashable] = []
        self.sequence: List[ItemId] = []
        self.lengths: List[int] = []

    def add(
        self,
        session_id: Hashable,
        clicks: Sequence[ItemId],
        purchase: Optional[ItemId],
    ) -> None:
        """Append one session."""
        sequence = self.sequence
        self.session_ids.append(session_id)
        sequence.extend(clicks)
        sequence.append(_NO_PURCHASE if purchase is None else purchase)
        self.lengths.append(len(clicks))


class Clickstream:
    """A collection of sessions, stored as columns.

    Iterable and indexable: both build :class:`Session` objects on
    demand.  The counts, :meth:`items`, :meth:`purchase_counts` and
    :meth:`encoding` read the columns and build none.  Construction
    validates that session ids are unique so downstream joins are
    unambiguous.
    """

    def __init__(self, sessions: Iterable[Session]) -> None:
        columns = SessionColumns()
        add = columns.add
        for session in sessions:
            add(session.session_id, session.clicks, session.purchase)
        self._load(columns)

    @classmethod
    def from_columns(cls, columns: SessionColumns) -> "Clickstream":
        """The clickstream of ``columns``; what the readers build."""
        stream = cls.__new__(cls)
        stream._load(columns)
        return stream

    def _load(self, columns: SessionColumns) -> None:
        session_ids = columns.session_ids
        if len(set(session_ids)) != len(session_ids):
            seen = set()
            for session_id in session_ids:
                if session_id in seen:
                    raise ClickstreamFormatError(
                        f"duplicate session id {session_id!r}"
                    )
                seen.add(session_id)
        # Item ids get codes in first-seen order, reading each session's
        # clicks and then its purchase: the order of items().
        interner = _Interner()
        sequence = columns.sequence
        codes = np.fromiter(
            map(interner.__getitem__, sequence),
            dtype=_code_dtype(len(sequence)), count=len(sequence),
        )
        n = len(session_ids)
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.array(columns.lengths, dtype=np.int64), out=self._offsets[1:]
        )
        slots = self._offsets[1:] + np.arange(n)  # each session's purchase
        self._session_ids = session_ids
        self._ids = interner.ids
        self._classes = interner.classes()
        self._purchases = codes[slots]
        is_click = np.ones(codes.size, dtype=bool)
        is_click[slots] = False
        self._clicks = codes[is_click]
        self._encoding: Optional[PurchaseEncoding] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._session_ids)

    def __iter__(self) -> Iterator[Session]:
        table = [*self._ids, None]  # purchase code -1 reads as None
        clicks = list(map(table.__getitem__, self._clicks.tolist()))
        begin = 0
        for session_id, end, purchase in zip(
            self._session_ids, self._offsets[1:].tolist(),
            self._purchases.tolist(),
        ):
            yield Session(session_id, tuple(clicks[begin:end]), table[purchase])
            begin = end

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        session_id = self._session_ids[index]
        if index < 0:
            index += len(self)
        begin, end = self._offsets[index:index + 2].tolist()
        ids = self._ids
        purchase = int(self._purchases[index])
        return Session(
            session_id,
            tuple(map(ids.__getitem__, self._clicks[begin:end].tolist())),
            None if purchase < 0 else ids[purchase],
        )

    @property
    def n_sessions(self) -> int:
        """Total number of sessions (with or without purchase)."""
        return len(self._session_ids)

    @property
    def n_purchases(self) -> int:
        """Number of sessions ending with a purchase."""
        return int(np.count_nonzero(self._purchases >= 0))

    @property
    def aliased(self) -> bool:
        """Whether two distinct item ids compare equal (``1``, ``True``)."""
        return self._classes is not None

    def purchasing_sessions(self) -> "Clickstream":
        """The sub-stream of sessions that ended with a purchase."""
        return Clickstream(s for s in self if s.has_purchase)

    def items(self) -> List[ItemId]:
        """All distinct item ids appearing anywhere, in first-seen order.

        Of ids that compare equal, the first one seen stands for all.
        """
        if self._classes is None:
            return list(self._ids)
        _, first = np.unique(self._classes, return_index=True)
        return [self._ids[code] for code in first.tolist()]

    def purchase_counts(self) -> Counter:
        """Counter of purchases per item, in order of first purchase."""
        purchased = self._purchases[self._purchases >= 0]
        classes = (
            purchased if self._classes is None else self._classes[purchased]
        )
        _, first, counts = np.unique(
            classes, return_index=True, return_counts=True
        )
        order = np.argsort(first)
        ids = self._ids
        return Counter({
            ids[code]: count for code, count in zip(
                purchased[first[order]].tolist(), counts[order].tolist()
            )
        })

    def encoding(self) -> PurchaseEncoding:
        """Integer encoding of the purchasing sessions.

        Built on the first call and kept, which is safe because a
        clickstream has no mutators: the variant-fitness tests and the
        adaptation engine share one encoding per stream.
        """
        if self._encoding is None:
            self._encoding = self._encode()
        return self._encoding

    def _encode(self) -> PurchaseEncoding:
        """The encoding of the purchasing sessions, from the columns.

        A row keeps the first click on each item other than its
        purchase, ids that compare equal share a code, and codes follow
        first appearance in the rows' (purchase, alternatives) sequence.
        Temporaries are as narrow as the codes and are dropped once used.
        """
        classes = self._classes
        n_classes = len(self._ids) if classes is None else int(classes.max()) + 1
        purchases = self._purchases
        is_row = purchases >= 0
        n_rows = int(np.count_nonzero(is_row))
        lengths = np.diff(self._offsets)
        clicks = self._clicks[np.repeat(is_row, lengths)]
        row = np.repeat(
            np.arange(n_rows, dtype=_code_dtype(n_rows)), lengths[is_row]
        )
        purchase = purchases[is_row]
        del is_row, lengths
        if classes is None:
            click_class, purchase_class = clicks, purchase
        else:
            click_class, purchase_class = classes[clicks], classes[purchase]

        # Drop the clicks on a row's own purchase.
        keep = click_class != purchase_class[row]
        clicks, row = clicks[keep], row[keep]
        click_class = clicks if classes is None else click_class[keep]

        # Keep a row's first click on each item: a stable sort by
        # (row, item) puts repeated clicks right after the first one.
        key = row.astype(_code_dtype(n_rows * n_classes))
        key *= n_classes
        key += click_class
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        del key
        keep = np.empty_like(first)
        keep[order] = first
        del order, first
        clicks, row = clicks[keep], row[keep]
        click_class = clicks if classes is None else click_class[keep]
        del keep
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n_rows), out=offsets[1:])

        # Codes follow first appearance in the sequence of rows, each its
        # purchase and then its alternatives: the purchase of row r sits
        # at offsets[r] + r and alternative j at j + row[j] + 1.
        end = n_rows + clicks.size
        first_at = np.full(n_classes, end, dtype=np.int64)
        purchase_at = offsets[:-1] + np.arange(n_rows)
        np.minimum.at(first_at, purchase_class, purchase_at)
        alternative_at = np.arange(1, clicks.size + 1, dtype=np.int64)
        alternative_at += row
        del row
        np.minimum.at(first_at, click_class, alternative_at)
        seen = np.flatnonzero(first_at < end)
        seen = seen[np.argsort(first_at[seen])]
        dtype = _code_dtype(seen.size)
        code = np.empty(n_classes, dtype=dtype)
        code[seen] = np.arange(seen.size, dtype=dtype)
        if classes is not None:
            # Of ids that compare equal, the one read first stands for all.
            sequence = np.empty(end, dtype=clicks.dtype)
            sequence[purchase_at] = purchase
            sequence[alternative_at] = clicks
            seen = sequence[first_at[seen]]
        items = tuple(map(self._ids.__getitem__, seen.tolist()))
        return PurchaseEncoding(
            items, code[purchase_class], offsets, code[click_class]
        )

    def stats(self) -> Dict[str, int]:
        """Table 2-style summary: sessions, purchases, items."""
        return {
            "sessions": self.n_sessions,
            "purchases": self.n_purchases,
            "items": len(self.items()),
        }

    def extend(self, other: "Clickstream") -> "Clickstream":
        """Concatenate two clickstreams into a new one."""
        return Clickstream([*self, *other])

    def __repr__(self) -> str:
        return (
            f"Clickstream(sessions={self.n_sessions}, "
            f"purchases={self.n_purchases})"
        )


def sessions_from_dicts(records: Iterable[Mapping]) -> Clickstream:
    """Build a clickstream from ``{"clicks": [...], "purchase": ...}`` dicts.

    Missing ``session_id`` fields are auto-numbered.  This is the format
    used by :func:`repro.examples_data.figure3_sessions`.  Records get
    the checks of :func:`~repro.clickstream.io.read_jsonl`
    (:func:`record_fields`); a defect raises
    :class:`ClickstreamFormatError` naming the record index, with the
    reader's reason tag as ``.reason``.
    """
    columns = SessionColumns()
    for index, record in enumerate(records):
        try:
            if not isinstance(record, Mapping):
                raise RecordError(
                    "not-an-object",
                    f"expected a mapping, got {type(record).__name__}",
                )
            fields = record_fields(record, default_id=index)
        except RecordError as defect:
            raise RecordError(
                defect.reason, f"session record {index}: {defect}"
            ) from None
        columns.add(*fields)
    return Clickstream.from_columns(columns)
