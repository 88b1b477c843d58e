"""The telemetry facade handed through the layers.

One :class:`Telemetry` object travels trial → case study → framework.
It bundles the three instruments (event emission, span tracing, meters)
behind a single handle and injects the ambient *context* (current trial
id, seed) into every record. Each trial attempt records into its own
``Telemetry``; the campaign folds the attempt's records and meters into
its own with :meth:`Telemetry.merge_records` and
:meth:`MeterRegistry.merge`.

``Telemetry.disabled()`` returns the shared :class:`NullTelemetry`,
whose every operation is a no-op — hot paths guard per-step work with
``if telemetry.enabled`` and otherwise call straight through, so an
un-instrumented run pays nothing measurable (see the benchmark in
CHANGES.md).
"""

from __future__ import annotations

import time
from typing import Any

from .events import Event, NullSink, RingBufferSink, Sink
from .meters import NULL_METERS, MeterRegistry, NullMeterRegistry
from .spans import NULL_TRACER, NullTracer, Span, SpanTracer, _NullSpan

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class Telemetry:
    """Live telemetry: events + spans + meters over one sink."""

    enabled = True

    def __init__(self, sink: Sink | None = None) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        self.tracer = SpanTracer(emit=self._emit)
        #: a trial's meters, or a campaign's with every attempt's merged in
        self.meters = MeterRegistry()
        self._context: dict[str, Any] = {}

    # ------------------------------------------------------------- events
    def event(self, name: str, **fields: Any) -> None:
        """Emit a structured event record (context merged into fields)."""
        if self._context:
            fields = {**self._context, **fields}
        self.sink.emit(Event(name=name, fields=fields).to_record())

    # -------------------------------------------------------------- spans
    def span(self, name: str, **fields: Any) -> Span:
        """A context-manager span nested under the innermost open one."""
        return self.tracer.span(name, **fields)

    # ------------------------------------------------------------ context
    def set_context(self, **fields: Any) -> None:
        """Ambient key/values injected into every later record."""
        self._context.update(fields)

    # ------------------------------------------------------------- records
    def emit_record(self, record: dict[str, Any]) -> None:
        """Forward a pre-built record (e.g. cluster vspans) with context."""
        if self._context:
            record = {**record, "ctx": {**self._context, **record.get("ctx", {})}}
        self.sink.emit(record)

    def emit_records(self, records: Any) -> None:
        for record in records:
            self.emit_record(record)

    def merge_records(
        self,
        records: list[dict[str, Any]],
        worker: str = "main",
        clock_delta: float = 0.0,
    ) -> None:
        """Fold a worker's buffered telemetry records into this stream.

        Every trial attempt records into a private sink and ships the
        records home on its outcome; this folds them in: span ids are
        re-based onto a freshly reserved block of this tracer's id space
        (so they cannot collide with home-grown spans — parent links are
        remapped consistently),
        monotonic timestamps are shifted by ``clock_delta`` onto this
        process's ``perf_counter`` clock, and every record is tagged
        with the producing ``worker`` in its context.
        """
        span_ids = sorted(
            {r["id"] for r in records if r.get("type") == "span" and "id" in r}
        )
        base = self.tracer.reserve(len(span_ids))
        remap = {old: base + i for i, old in enumerate(span_ids)}
        for record in records:
            record = dict(record)
            kind = record.get("type")
            if kind == "span":
                record["id"] = remap.get(record.get("id"), record.get("id"))
                if record.get("parent") is not None:
                    record["parent"] = remap.get(record["parent"], record["parent"])
                if clock_delta:
                    record["t_start"] = record.get("t_start", 0.0) + clock_delta
                    record["t_end"] = record.get("t_end", 0.0) + clock_delta
            elif clock_delta and "t_mono" in record:
                record["t_mono"] = record["t_mono"] + clock_delta
            record["ctx"] = {**record.get("ctx", {}), "worker": worker}
            self.sink.emit(record)

    def _emit(self, record: dict[str, Any]) -> None:
        """Span-tracer emit hook: attach context, forward to the sink."""
        if self._context:
            record = {**record, "ctx": dict(self._context)}
        self.sink.emit(record)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @staticmethod
    def clock() -> float:
        """The monotonic clock spans and events share."""
        return time.perf_counter()

    @staticmethod
    def disabled() -> "NullTelemetry":
        return NULL_TELEMETRY

    @staticmethod
    def or_null(telemetry: "Telemetry | None") -> "Telemetry":
        """Normalize an optional telemetry argument to a usable handle."""
        return telemetry if telemetry is not None else NULL_TELEMETRY


class NullTelemetry(Telemetry):
    """Disabled telemetry: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:
        self.sink = NullSink()
        self.tracer: NullTracer = NULL_TRACER
        self.meters: NullMeterRegistry = NULL_METERS
        self._context: dict[str, Any] = {}

    def event(self, name: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **fields: Any) -> _NullSpan:  # type: ignore[override]
        return NULL_TRACER.span(name)

    def set_context(self, **fields: Any) -> None:
        pass

    def emit_record(self, record: dict[str, Any]) -> None:
        pass

    def emit_records(self, records: Any) -> None:
        pass

    def merge_records(
        self,
        records: list[dict[str, Any]],
        worker: str = "main",
        clock_delta: float = 0.0,
    ) -> None:
        pass

    def close(self) -> None:
        pass


#: shared disabled instance — safe to pass anywhere a Telemetry is expected
NULL_TELEMETRY = NullTelemetry()
