"""Hierarchical span tracing on a monotonic clock.

A :class:`SpanTracer` hands out context-manager span handles; the tracer
keeps the open-span stack so nesting (parent/child ids) falls out of
lexical structure — ``execute_trial`` opens a ``trial`` span and
the framework training loop opens ``rollout`` / ``update`` /
``weight_sync`` children inside it without either knowing about the
other. Timestamps come from ``time.perf_counter()``; finished spans are
forwarded to the tracer's emit callback as ``{"type": "span", ...}``
records (see :mod:`repro.obs.events`).

:class:`NullTracer` is the disabled counterpart: ``span()`` returns a
shared no-op handle, so un-instrumented runs pay one attribute lookup
and one method call per phase — nothing else.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One open (then finished) real-time interval.

    Usable as a context manager; ``duration`` is valid after exit. Extra
    key/values can be attached while open via :meth:`set`.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "t_start", "t_end", "fields")

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        fields: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.t_start = 0.0
        self.t_end = 0.0
        self.fields = fields

    def set(self, **fields: Any) -> "Span":
        self.fields.update(fields)
        return self

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __enter__(self) -> "Span":
        self.t_start = self.tracer.clock()
        self.tracer._push(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.t_end = self.tracer.clock()
        self.tracer._pop(self)

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "fields": dict(self.fields),
        }


class SpanTracer:
    """Issues spans, tracks the open stack, emits finished records."""

    enabled = True

    def __init__(
        self,
        emit: Callable[[dict[str, Any]], None] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._emit = emit
        self.clock = clock
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------- issuing
    def span(self, name: str, **fields: Any) -> Span:
        """A new span; enter it with ``with`` to start the clock."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, span_id, parent, fields)

    def record(
        self,
        name: str,
        t_start: float,
        t_end: float,
        parent_id: int | None = None,
        **fields: Any,
    ) -> Span:
        """Log an already-measured interval (no stack interaction).

        Used where phases interleave too finely to wrap lexically — e.g.
        the SAC loop coalesces its per-step updates into one ``update``
        span per block. ``parent_id`` defaults to the innermost open span.
        """
        span_id = self._next_id
        self._next_id += 1
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(self, name, span_id, parent_id, fields)
        span.t_start = t_start
        span.t_end = t_end
        self._finish(span)
        return span

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive span ids; returns the first.

        Used when folding a worker's buffered spans into this tracer's
        id space (:meth:`repro.obs.Telemetry.merge_records`) so remapped
        ids can never collide with home-grown ones.
        """
        base = self._next_id
        self._next_id += max(0, int(count))
        return base

    @property
    def current_id(self) -> int | None:
        return self._stack[-1].span_id if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------ internals
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misnested exit, keep going anyway
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        self._finish(span)

    def _finish(self, span: Span) -> None:
        if self._emit is not None:
            self._emit(span.to_record())


class _NullSpan:
    """Shared do-nothing span handle."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    t_start = 0.0
    t_end = 0.0
    duration = 0.0
    fields: dict[str, Any] = {}

    def set(self, **fields: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that does nothing (the zero-overhead default)."""

    enabled = False
    current_id = None
    depth = 0

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, t_start: float, t_end: float, **kw: Any) -> _NullSpan:
        return _NULL_SPAN


#: shared no-op tracer instance
NULL_TRACER = NullTracer()
