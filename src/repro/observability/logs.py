"""Structured JSON-lines logging with context-var trace correlation.

The operations plane needs to answer "what happened to *this* query?"
across the serving frontend's micro-batcher, the service's snapshot
reads and the runtime's retry/breaker episodes.  Two pieces make that a
single grep:

* **:class:`TraceContext`** — an immutable ``(trace_id, span_id,
  component)`` triple held in a :mod:`contextvars` variable, so it
  follows ``await`` chains for free.  :func:`span` pushes a child
  context (fresh ``span_id``, inherited ``trace_id``); the frontend
  additionally stamps a ``trace_ids`` group on batch-scoped contexts so
  records emitted *for a whole batch* still match every member query.
* **:func:`get_logger` / :class:`EventLogger`** — emits one JSON object
  per line, automatically stamped with the current trace context.

The sink is **off by default** and the disabled path costs one module
attribute check per event, so library users pay nothing.  ``repro
serve --log PATH`` (or the ``REPRO_LOG`` environment variable) turns it
on; ``repro events`` reads the file back.

Record schema (one JSON object per line)::

    {"ts": <unix seconds>, "level": "info", "component": "frontend",
     "event": "batch_seal", "trace_id": "...", "span_id": "...",
     ["trace_ids": [...],] ...event fields...}
"""

from __future__ import annotations

import contextvars
import io
import json
import os
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, TextIO, Tuple

#: Environment variable enabling the structured log sink
#: (path, or ``-``/``stderr`` for standard error).
LOG_ENV = "REPRO_LOG"

_LEVELS = ("debug", "info", "warning", "error")


def new_trace_id() -> str:
    """A fresh 16-hex-character trace (or span) identifier."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """Immutable correlation triple carried through a request's path.

    ``trace_ids`` is the batch fan-in group: when one physical action
    (a sealed micro-batch, a vectorized snapshot read) serves many
    logical queries, records emitted under the batch context list every
    member ``trace_id`` so filtering by any of them finds the shared
    steps too.
    """

    trace_id: str
    span_id: str = field(default_factory=new_trace_id)
    component: str = "repro"
    trace_ids: Tuple[str, ...] = ()

    def child(self, component: Optional[str] = None) -> "TraceContext":
        """A child context: same trace, fresh span."""
        return replace(
            self,
            span_id=new_trace_id(),
            component=component if component is not None else self.component,
        )


_CONTEXT: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_trace() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None`` outside any span."""
    return _CONTEXT.get()


def current_trace_id() -> Optional[str]:
    """The active trace id, or ``None`` outside any span."""
    context = _CONTEXT.get()
    return context.trace_id if context else None


def activate(context: TraceContext) -> contextvars.Token:
    """Install ``context`` directly; returns the reset token."""
    return _CONTEXT.set(context)


def deactivate(token: contextvars.Token) -> None:
    """Undo a previous :func:`activate`."""
    _CONTEXT.reset(token)


@contextmanager
def span(
    component: str,
    trace_id: Optional[str] = None,
    *,
    trace_ids: Tuple[str, ...] = (),
) -> Iterator[TraceContext]:
    """Enter a traced span for the enclosed block.

    Inherits the surrounding trace when one is active (child span);
    otherwise starts a new trace (``trace_id`` lets callers pin an
    externally supplied id).  ``trace_ids`` attaches a batch fan-in
    group to the span.
    """
    parent = _CONTEXT.get()
    if parent is not None and trace_id is None:
        context = parent.child(component)
        if trace_ids:
            context = replace(context, trace_ids=tuple(trace_ids))
    else:
        context = TraceContext(
            trace_id=trace_id if trace_id else new_trace_id(),
            component=component,
            trace_ids=tuple(trace_ids),
        )
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


# -- sink ---------------------------------------------------------------

_SINK: Optional["_LogSink"] = None
_SINK_LOCK = threading.Lock()


class _LogSink:
    """Serialized writer of JSON-line records to one stream."""

    __slots__ = ("stream", "level_index", "path", "_lock", "_owns_stream")

    def __init__(
        self, stream: TextIO, level: str, path: Optional[str],
        owns_stream: bool,
    ) -> None:
        self.stream = stream
        self.level_index = _LEVELS.index(level)
        self.path = path
        self._lock = threading.Lock()
        self._owns_stream = owns_stream

    def emit(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            try:
                self.stream.write(line + "\n")
                self.stream.flush()
            except (ValueError, OSError):
                pass  # closed stream — logging must never break serving

    def close(self) -> None:
        if self._owns_stream:
            try:
                self.stream.close()
            except OSError:
                pass


def configure_logging(
    target: Optional[str] = None, level: str = "info"
) -> None:
    """Enable the structured log sink.

    ``target`` is a file path (appended, created if missing) or
    ``"-"``/``"stderr"`` for standard error; ``None`` reads the
    ``REPRO_LOG`` environment variable and is a no-op when that is
    unset too.
    """
    global _SINK
    if target is None:
        target = os.environ.get(LOG_ENV) or None
        if target is None:
            return
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r}; use one of {_LEVELS}")
    with _SINK_LOCK:
        old = _SINK
        if target in ("-", "stderr"):
            _SINK = _LogSink(sys.stderr, level, None, owns_stream=False)
        else:
            stream = io.open(target, "a", encoding="utf-8")
            _SINK = _LogSink(stream, level, target, owns_stream=True)
        if old is not None:
            old.close()


def reset_logging() -> None:
    """Disable the sink (returns the library to its silent default)."""
    global _SINK
    with _SINK_LOCK:
        if _SINK is not None:
            _SINK.close()
        _SINK = None


def logging_enabled() -> bool:
    """Whether a sink is configured (events are being written)."""
    return _SINK is not None


def log_path() -> Optional[str]:
    """The sink's file path, if it writes to a file."""
    sink = _SINK
    return sink.path if sink else None


class EventLogger:
    """Component-scoped emitter of structured events.

    ``get_logger("frontend").event("batch_seal", size=4)`` writes one
    JSON line stamped with the current :class:`TraceContext`.  With no
    sink configured every method is a single ``None`` check.
    """

    __slots__ = ("component",)

    def __init__(self, component: str) -> None:
        self.component = component

    def event(self, name: str, *, level: str = "info", **fields) -> None:
        """Emit one structured record (no-op without a sink)."""
        sink = _SINK
        if sink is None:
            return
        try:
            if _LEVELS.index(level) < sink.level_index:
                return
        except ValueError:
            level = "info"
            if sink.level_index > _LEVELS.index("info"):
                return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": name,
        }
        context = _CONTEXT.get()
        if context is not None:
            record["trace_id"] = context.trace_id
            record["span_id"] = context.span_id
            if context.trace_ids:
                record["trace_ids"] = list(context.trace_ids)
        record.update(fields)
        sink.emit(record)

    def debug(self, name: str, **fields) -> None:
        self.event(name, level="debug", **fields)

    def warning(self, name: str, **fields) -> None:
        self.event(name, level="warning", **fields)

    def error(self, name: str, **fields) -> None:
        self.event(name, level="error", **fields)


def get_logger(component: str) -> EventLogger:
    """The :class:`EventLogger` for ``component``."""
    return EventLogger(component)


def record_matches_trace(record: dict, trace_id: str) -> bool:
    """Whether a parsed log record belongs to ``trace_id``.

    Matches the record's own ``trace_id`` or membership in its batch
    fan-in ``trace_ids`` group — the rule ``repro events --trace-id``
    applies.
    """
    if record.get("trace_id") == trace_id:
        return True
    return trace_id in record.get("trace_ids", ())
