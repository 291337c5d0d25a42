"""Clickstream serialization.

Two formats are supported:

* **YooChoose CSV** — the RecSys 2015 challenge layout the paper's public
  YC dataset ships in: a clicks file (``session,timestamp,item,category``)
  and a buys file (``session,timestamp,item,price,quantity``).  The
  reader reassembles sessions by joining the two files on session id, so
  the genuine ``yoochoose-clicks.dat`` / ``yoochoose-buys.dat`` files can
  be dropped into this reproduction unchanged.
* **JSON lines** — one session per line
  (``{"session_id": ..., "clicks": [...], "purchase": ...}``), the
  compact native format used by the examples and tests.

Both readers support *lenient ingestion*: real export pipelines produce
truncated lines, schema drift and binary junk, and a multi-hour solve
should not die on line 48 million of a clickstream dump.  ``on_error``
selects the policy — ``"raise"`` (default, fail on the first bad
record), ``"skip"`` (drop bad records, count them) or ``"quarantine"``
(drop, count *and* keep a bounded sample of the offending lines).  In
the lenient modes a :class:`QuarantineReport` is attached to the
returned :class:`~repro.clickstream.models.Clickstream` as
``.quarantine``, and an ``error_budget`` fraction bounds how much of
the input may be bad before ingestion aborts anyway — silently
accepting a 90%-corrupt file would poison the graph, not save the run.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import ClickstreamFormatError
from ..observability import coerce_tracer
from ..resilience.faults import active_faults
from .models import (
    Clickstream, RecordError, Session, SessionColumns, record_fields,
)

PathLike = Union[str, Path]

#: Accepted ``on_error`` ingestion policies.
ON_ERROR = ("raise", "skip", "quarantine")

#: Offending-line samples kept per quarantine report.
_SAMPLE_LIMIT = 5

#: Records to observe before the error budget may abort mid-stream
#: (prevents a bad first line from tripping a fractional budget).
_BUDGET_MIN_RECORDS = 20


def _reject_constant(name: str):
    """Refuse ``NaN``, ``Infinity`` and ``-Infinity``, which RFC 8259 lacks."""
    raise ValueError(f"{name} is not a JSON value")


#: Decodes one JSONL record (see :func:`_decode_line`).
_raw_decode = json.JSONDecoder(parse_constant=_reject_constant).raw_decode

#: Encodes one JSONL record; a NaN or infinite id raises ``ValueError``.
_encode = json.JSONEncoder(allow_nan=False).encode


def _bad_record(
    path: PathLike, line_no: int, reason: str, detail: str
) -> ClickstreamFormatError:
    """A format error that names the offending line and carries a tag."""
    error = ClickstreamFormatError(f"{path}:{line_no}: {detail}")
    error.reason = reason
    error.line_no = line_no
    return error


@dataclass
class QuarantineReport:
    """Tally of records rejected by a lenient ingestion pass.

    Attributes:
        source: the file(s) the report covers.
        mode: the ``on_error`` policy that produced it.
        error_budget: the abort fraction in force (``None`` = unlimited).
        total: records examined (blank lines excluded).
        quarantined: records rejected.
        reasons: rejection tally keyed by reason tag
            (``invalid-json``, ``clicks-not-a-list``,
            ``buys-short-row``, ...).
        samples: up to ``5`` human-readable ``location: detail`` entries
            for the first offending records.  Retention is bounded: once
            the cap is hit further offenders only bump ``suppressed``,
            so a pathological input cannot balloon the report.
        suppressed: rejected records whose sample was dropped because
            the ``samples`` cap was already reached.
    """

    source: str
    mode: str = "quarantine"
    error_budget: Optional[float] = None
    total: int = 0
    quarantined: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)
    samples: List[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def bad_fraction(self) -> float:
        """Fraction of examined records that were rejected."""
        return self.quarantined / self.total if self.total else 0.0

    def record(self, error: ClickstreamFormatError) -> None:
        """Count one rejected record (sample kept in quarantine mode)."""
        self.quarantined += 1
        reason = getattr(error, "reason", "invalid")
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if self.mode != "quarantine":
            return
        if len(self.samples) < _SAMPLE_LIMIT:
            self.samples.append(str(error))
        else:
            self.suppressed += 1

    def check_budget(self, *, final: bool = False) -> None:
        """Abort ingestion when too much of the input is bad.

        Mid-stream the check waits for a minimum sample size so one bad
        leading line cannot trip a fractional budget; the ``final``
        check applies regardless.
        """
        if self.error_budget is None or self.total == 0:
            return
        if not final and self.total < _BUDGET_MIN_RECORDS:
            return
        if self.bad_fraction > self.error_budget:
            raise ClickstreamFormatError(
                f"{self.source}: error budget exceeded: "
                f"{self.quarantined}/{self.total} records "
                f"({self.bad_fraction:.1%}) rejected, budget "
                f"{self.error_budget:.1%}; reasons: "
                f"{dict(sorted(self.reasons.items()))}"
            )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"quarantined {self.quarantined}/{self.total} records "
            f"({self.bad_fraction:.1%}) from {self.source}"
        ]
        for reason, count in sorted(self.reasons.items()):
            lines.append(f"  {reason}: {count}")
        for sample in self.samples:
            lines.append(f"  e.g. {sample}")
        if self.suppressed:
            lines.append(f"  ... {self.suppressed} more suppressed")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "source": self.source,
            "mode": self.mode,
            "total": self.total,
            "quarantined": self.quarantined,
            "bad_fraction": self.bad_fraction,
            "reasons": dict(sorted(self.reasons.items())),
            "samples": list(self.samples),
            "suppressed": self.suppressed,
        }


def _check_on_error(on_error: str) -> None:
    if on_error not in ON_ERROR:
        raise ClickstreamFormatError(
            f"unknown on_error policy {on_error!r}; expected one of "
            f"{ON_ERROR}"
        )


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def write_jsonl(clickstream: Clickstream, path: PathLike) -> None:
    """Write one session per line as JSON.

    A NaN or infinite id raises :class:`ClickstreamFormatError`: JSON
    has no such values, and :func:`read_jsonl` rejects them.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for session in clickstream:
            record = {
                "session_id": session.session_id,
                "clicks": list(session.clicks),
                "purchase": session.purchase,
            }
            try:
                line = _encode(record)
            except ValueError as exc:
                raise ClickstreamFormatError(
                    f"session {session.session_id!r}: {exc}"
                ) from exc
            handle.write(line + "\n")


def _decode_line(path: PathLike, line_no: int, line: str):
    """Decode one stripped JSONL line exactly as ``json.loads`` would.

    ``raw_decode`` skips the wrapper and whitespace scans of
    ``json.loads``; any line it rejects or does not consume whole is
    decoded again by ``json.loads``, so every rejection keeps its
    message.  Both attempts refuse ``NaN`` and ``Infinity``.
    """
    try:
        record, end = _raw_decode(line)
        if end == len(line):
            return record
    except ValueError:
        pass
    try:
        return json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        raise _bad_record(
            path, line_no, "invalid-json", f"invalid JSON: {exc}"
        ) from exc


def _fields_from_jsonl(path: PathLike, line_no: int, line: str):
    """Decode and check one JSONL record (raises on any defect)."""
    record = _decode_line(path, line_no, line)
    if not isinstance(record, dict):
        raise _bad_record(
            path, line_no, "not-an-object",
            f"expected a JSON object per line, got "
            f"{type(record).__name__}",
        )
    try:
        return record_fields(record)
    except RecordError as defect:
        raise _bad_record(path, line_no, defect.reason, str(defect)) from None


def read_jsonl(
    path: PathLike,
    *,
    on_error: str = "raise",
    error_budget: Optional[float] = 0.05,
    tracer=None,
) -> Clickstream:
    """Read a JSON-lines clickstream written by :func:`write_jsonl`.

    Every record is validated before it joins the stream (see
    :func:`~repro.clickstream.models.record_fields`): ``clicks`` must be
    a list of scalar item ids (a *string* value would silently explode
    into per-character items), ``session_id``/``purchase`` must be
    scalars, and ``NaN``/``Infinity`` are not JSON.  Defects raise
    :class:`ClickstreamFormatError` naming the line under
    ``on_error="raise"``; the lenient policies (``"skip"`` /
    ``"quarantine"``) drop bad records, attach a
    :class:`QuarantineReport` to the result as ``.quarantine``, and
    abort only when more than ``error_budget`` of the input is bad.
    Records go straight into the stream's columns; no
    :class:`~repro.clickstream.models.Session` is built.
    """
    _check_on_error(on_error)
    tracer = coerce_tracer(tracer)
    faults = active_faults()
    report = QuarantineReport(
        source=str(path), mode=on_error,
        error_budget=error_budget if on_error != "raise" else None,
    )
    columns = SessionColumns()
    add = columns.add
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if faults is not None:
                line = faults.corrupt_record(line)
            report.total += 1
            try:
                session_id, clicks, purchase = _fields_from_jsonl(
                    path, line_no, line
                )
            except ClickstreamFormatError as error:
                if on_error == "raise":
                    raise
                report.record(error)
                if tracer.enabled:
                    tracer.incr("ingest.quarantined")
                report.check_budget()
                continue
            add(session_id, clicks, purchase)
    report.check_budget(final=True)
    stream = Clickstream.from_columns(columns)
    stream.quarantine = report if on_error != "raise" else None
    return stream


# ----------------------------------------------------------------------
# YooChoose CSV
# ----------------------------------------------------------------------
def write_yoochoose(
    clickstream: Clickstream,
    clicks_path: PathLike,
    buys_path: PathLike,
) -> None:
    """Write YooChoose-format clicks and buys files.

    Timestamps are synthesized as per-session sequence numbers (the
    adaptation engine never uses them); category, price and quantity
    columns are filled with placeholder zeros.
    """
    with open(clicks_path, "w", newline="", encoding="utf-8") as clicks_file:
        writer = csv.writer(clicks_file)
        for session in clickstream:
            for seq, item in enumerate(session.clicks):
                timestamp = f"2014-04-01T00:00:{seq:02d}.000Z"
                writer.writerow([session.session_id, timestamp, item, 0])
    with open(buys_path, "w", newline="", encoding="utf-8") as buys_file:
        writer = csv.writer(buys_file)
        for session in clickstream:
            if session.purchase is not None:
                timestamp = "2014-04-01T00:01:00.000Z"
                writer.writerow(
                    [session.session_id, timestamp, session.purchase, 0, 1]
                )


def read_yoochoose(
    clicks_path: PathLike,
    buys_path: PathLike,
    *,
    max_sessions: Optional[int] = None,
    on_error: str = "raise",
    error_budget: Optional[float] = 0.05,
    tracer=None,
) -> Clickstream:
    """Read YooChoose clicks/buys files into a clickstream.

    Sessions with multiple distinct purchased items are kept with the
    *first* purchase (the paper works with single-purchase sessions; the
    real dataset is customarily filtered this way).  ``max_sessions``
    truncates for quick experiments.

    Row validation follows the challenge layout: clicks rows need at
    least 3 columns (``session,timestamp,item``; category optional) and
    buys rows all 5 (``session,timestamp,item,price,quantity``) — a
    3–4 column buys row is a truncated export, not a purchase, and is
    rejected rather than silently counted as demand.  ``on_error`` and
    ``error_budget`` behave as in :func:`read_jsonl`; in the lenient
    modes the attached :class:`QuarantineReport` spans both files.
    """
    _check_on_error(on_error)
    tracer = coerce_tracer(tracer)
    report = QuarantineReport(
        source=f"{clicks_path} + {buys_path}", mode=on_error,
        error_budget=error_budget if on_error != "raise" else None,
    )

    def reject(error: ClickstreamFormatError) -> None:
        if on_error == "raise":
            raise error
        report.record(error)
        if tracer.enabled:
            tracer.incr("ingest.quarantined")
        report.check_budget()

    purchases: Dict[str, str] = {}
    with open(buys_path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            report.total += 1
            if len(row) < 5:
                reject(_bad_record(
                    buys_path, line_no, "buys-short-row",
                    f"buys rows need 5 columns (session,timestamp,item,"
                    f"price,quantity), got {len(row)}",
                ))
                continue
            session_id, _timestamp, item = row[0], row[1], row[2]
            purchases.setdefault(session_id, item)

    clicks: Dict[str, List[str]] = defaultdict(list)
    session_order: List[str] = []
    with open(clicks_path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            report.total += 1
            if len(row) < 3:
                reject(_bad_record(
                    clicks_path, line_no, "clicks-short-row",
                    f"clicks rows need >=3 columns (session,timestamp,"
                    f"item[,category]), got {len(row)}",
                ))
                continue
            session_id, _timestamp, item = row[0], row[1], row[2]
            if session_id not in clicks:
                session_order.append(session_id)
            clicks[session_id].append(item)
    report.check_budget(final=True)

    # Purchases without any click row still form (click-less) sessions.
    for session_id in purchases:
        if session_id not in clicks:
            session_order.append(session_id)
            clicks[session_id] = []

    sessions = []
    for session_id in session_order:
        sessions.append(
            Session(
                session_id=session_id,
                clicks=tuple(clicks[session_id]),
                purchase=purchases.get(session_id),
            )
        )
        if max_sessions is not None and len(sessions) >= max_sessions:
            break
    stream = Clickstream(sessions)
    stream.quarantine = report if on_error != "raise" else None
    return stream
