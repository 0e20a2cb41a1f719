"""Structured tracing: spans and events over the query lifecycle.

A :class:`Tracer` lives on every :class:`~repro.engine.Database` and is
consulted by the layers a query travels through — parse, AD rewrites,
statistics lookup, join-order search, physical planning, execution — plus the
background machinery around them (plan-cache hits and misses, ANALYZE runs,
auto-ANALYZE triggers).  Spans *nest*: each carries its parent's id, a start
and end timestamp (``time.perf_counter`` relative to the tracer's epoch, so
durations are exact and records are deterministic to diff), and free-form
attributes.  Events are point-in-time records attached to the span that was
open when they fired.

**Tracing is off unless a sink is attached.**  The disabled fast path is one
attribute check returning a shared no-op context manager — no span objects, no
clock reads, no allocation — so leaving the tracer in place costs nothing on
the hot query path (the E15 benchmark gates the whole observability layer at
≤5% overhead).

::

    sink = db.tracer.attach(JsonTraceSink())
    db.query("SELECT name FROM employees WHERE jobtype = 'secretary'")
    db.tracer.detach()
    sink.dump("trace.json")         # offline inspection

The engine is single-threaded (see ROADMAP item 1); the tracer keeps one
current-span stack and is not thread-safe.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class TraceSink:
    """Destination of finished trace records (spans and events)."""

    def record(self, record: Dict[str, object]) -> None:
        raise NotImplementedError


class JsonTraceSink(TraceSink):
    """Collects records in memory and serializes them as a JSON array.

    Records arrive in *finish* order (a span is emitted when it closes, so
    children precede their parents); the ``id`` / ``parent`` fields rebuild
    the tree offline.
    """

    def __init__(self):
        self.records: List[Dict[str, object]] = []

    def record(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def spans(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r["type"] == "span"]

    def events(self) -> List[Dict[str, object]]:
        return [r for r in self.records if r["type"] == "event"]

    def named(self, name: str) -> List[Dict[str, object]]:
        """Every record (span or event) with the given name."""
        return [r for r in self.records if r["name"] == name]

    def dumps(self) -> str:
        return json.dumps(self.records, indent=2, sort_keys=True, default=str)

    def dump(self, path: str) -> str:
        """Write the collected records to ``path`` as JSON; returns the path."""
        with open(path, "w") as handle:
            handle.write(self.dumps())
            handle.write("\n")
        return path

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return "JsonTraceSink({} records)".format(len(self.records))


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        return False

    def set(self, **attributes) -> "_NoopSpan":
        return self


#: the singleton no-op span (identity-checkable in tests)
NOOP_SPAN = _NoopSpan()


class Span:
    """One live span: a named, attributed interval in the query lifecycle.

    Use as a context manager — entering records the start time and pushes the
    span on the tracer's stack, exiting records the end time, pops it, and
    emits the finished record to the sink.  ``set(**attributes)`` adds or
    overwrites attributes at any point while the span is open (e.g. recording
    the chosen join order once the search finished).
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attributes",
                 "start", "end")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], attributes: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    def set(self, **attributes) -> "Span":
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.end = self._tracer._now()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def as_record(self) -> Dict[str, object]:
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": (self.end - self.start
                         if self.start is not None and self.end is not None
                         else None),
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return "Span({!r}, id={}, parent={})".format(
            self.name, self.span_id, self.parent_id)


class Tracer:
    """Span/event factory with an attachable sink (disabled without one)."""

    def __init__(self):
        self._sink: Optional[TraceSink] = None
        self._stack: List[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    @property
    def enabled(self) -> bool:
        """True while a sink is attached (the only state that records anything)."""
        return self._sink is not None

    def attach(self, sink: Optional[TraceSink] = None) -> TraceSink:
        """Attach (and return) a sink, enabling tracing; default a fresh
        :class:`JsonTraceSink`."""
        if sink is None:
            sink = JsonTraceSink()
        self._sink = sink
        return sink

    def detach(self) -> Optional[TraceSink]:
        """Detach the current sink (disabling tracing) and return it."""
        sink, self._sink = self._sink, None
        self._stack = []
        return sink

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def span(self, name: str, **attributes):
        """A context manager for one nested span (no-op while disabled)."""
        if self._sink is None:
            return NOOP_SPAN
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent_id = self._stack[-1].span_id if self._stack else None
        return Span(self, name, span_id, parent_id, dict(attributes))

    def event(self, name: str, **attributes) -> None:
        """Record a point-in-time event under the currently open span."""
        if self._sink is None:
            return
        self._sink.record({
            "type": "event",
            "name": name,
            "span": self._stack[-1].span_id if self._stack else None,
            "time": self._now(),
            "attributes": dict(attributes),
        })

    # -- span bookkeeping (called by Span) ----------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # unbalanced exit (an inner span leaked)
            self._stack.remove(span)
        if self._sink is not None:
            self._sink.record(span.as_record())

    def __repr__(self) -> str:
        return "Tracer(enabled={}, depth={})".format(self.enabled, len(self._stack))
