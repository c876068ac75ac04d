"""Lightweight span/trace recording for the query path.

A :class:`TraceRecorder` hands out :class:`Span` objects through a
context manager; spans opened while another span is active become its
children (``parent_id`` linkage), giving nested build → query → rebuild
traces without any external dependency.  Finished spans land in a
bounded ring buffer so a long-lived engine never grows its trace memory
without bound.

The recorder is deliberately tiny — opening a span is two clock reads
and a list append — so it can stay enabled on the hot path; disable it
(``enabled = False``) to reduce the cost to a single branch.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError
from repro.observability.clock import SystemClock

#: Default capacity of the finished-span ring buffer.
DEFAULT_SPAN_CAPACITY = 2048


@dataclass
class Span:
    """One timed operation, optionally nested under a parent span."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Seconds between start and end; ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attributes) -> None:
        """Attach attributes discovered while the span is running."""
        self.attributes.update(attributes)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Stand-in yielded while recording is disabled."""

    __slots__ = ()
    attributes: dict = {}

    def set(self, **attributes) -> None:
        del attributes


NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects nested spans into a bounded ring buffer.

    Thread-compatible: the parent stack is thread-local, so spans
    opened by different threads (the serving tier's worker next to
    direct engine callers) nest correctly within their own thread and
    never corrupt each other's parentage.  The finished ring buffer is
    shared; its appends are atomic.
    """

    def __init__(self, clock=None, capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        if capacity < 1:
            raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock if clock is not None else SystemClock()
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._finished: deque[Span] = deque(maxlen=capacity)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes):
        """Open a span; nested calls become children of the current span."""
        if not self.enabled:
            yield NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.now(),
            attributes=dict(attributes),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock.now()
            stack.pop()
            self._finished.append(record)

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans in completion order, optionally filtered by name."""
        if name is None:
            return list(self._finished)
        return [span for span in self._finished if span.name == name]

    def export(self) -> list[dict]:
        """Finished spans as JSON-ready dicts."""
        return [span.as_dict() for span in self._finished]

    def clear(self) -> None:
        self._finished.clear()

    def __len__(self) -> int:
        return len(self._finished)
