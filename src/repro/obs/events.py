"""Structured telemetry events and pluggable sinks.

Everything observable in a campaign flows through a :class:`Sink` as a
plain JSON-serializable *record* dict. Three record types share one
stream so a single JSONL file captures a whole campaign:

``{"type": "event", ...}``
    point-in-time facts (trial started/finished/failed/pruned, explorer
    ask/tell, checkpoint reports) — see the ``EVT_*`` constants;
``{"type": "span", ...}``
    real-time phase intervals from :mod:`repro.obs.spans`;
``{"type": "vspan", ...}``
    the cluster simulator's virtual-time :class:`~repro.cluster.TaskSpan`
    / :class:`~repro.cluster.TransferSpan` records
    (:meth:`repro.cluster.Trace.to_records`).

Sinks are deliberately dumb (no buffering policy beyond their own): the
no-op :class:`NullSink` keeps the disabled path free, the
:class:`RingBufferSink` keeps the last *N* records in memory for tests
and interactive use, and :class:`JsonlSink` streams records to disk for
the ``repro telemetry`` tooling.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "EVT_CAMPAIGN_STARTED",
    "EVT_CAMPAIGN_FINISHED",
    "EVT_TRIAL_STARTED",
    "EVT_TRIAL_FINISHED",
    "EVT_TRIAL_FAILED",
    "EVT_TRIAL_PRUNED",
    "EVT_TRIAL_RETRIED",
    "EVT_TRIAL_CACHE_HIT",
    "EVT_EXPLORER_ASK",
    "EVT_EXPLORER_TELL",
    "EVT_CHECKPOINT",
    "EVT_WORKER_JOINED",
    "EVT_WORKER_LOST",
    "EVT_WORKER_REJOINED",
    "EVT_WORKER_QUARANTINED",
    "Event",
    "Sink",
    "NullSink",
    "NULL_SINK",
    "RingBufferSink",
    "JsonlSink",
    "MultiSink",
]

EVT_CAMPAIGN_STARTED = "campaign_started"
EVT_CAMPAIGN_FINISHED = "campaign_finished"
EVT_TRIAL_STARTED = "trial_started"
EVT_TRIAL_FINISHED = "trial_finished"
EVT_TRIAL_FAILED = "trial_failed"
EVT_TRIAL_PRUNED = "trial_pruned"
EVT_TRIAL_RETRIED = "trial_retried"
EVT_TRIAL_CACHE_HIT = "trial_cache_hit"
EVT_EXPLORER_ASK = "explorer_ask"
EVT_EXPLORER_TELL = "explorer_tell"
EVT_CHECKPOINT = "checkpoint_reported"
EVT_WORKER_JOINED = "worker_joined"
EVT_WORKER_LOST = "worker_lost"
EVT_WORKER_REJOINED = "worker_rejoined"
EVT_WORKER_QUARANTINED = "worker_quarantined"


@dataclass(frozen=True)
class Event:
    """One structured point-in-time fact.

    ``t_wall`` is epoch seconds (for humans and cross-process alignment);
    ``t_mono`` is ``time.perf_counter()`` seconds (monotonic, shares the
    clock of the span tracer so events can be placed inside spans).
    """

    name: str
    t_wall: float = field(default_factory=time.time)
    t_mono: float = field(default_factory=time.perf_counter)
    fields: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "t_wall": self.t_wall,
            "t_mono": self.t_mono,
            "fields": dict(self.fields),
        }


class Sink:
    """Destination for telemetry records."""

    def emit(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class NullSink(Sink):
    """Discards everything; the zero-overhead default."""

    def emit(self, record: dict[str, Any]) -> None:
        pass


#: shared no-op sink instance
NULL_SINK = NullSink()


class RingBufferSink(Sink):
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._buffer: deque[dict[str, Any]] = deque(maxlen=int(capacity))

    def emit(self, record: dict[str, Any]) -> None:
        self._buffer.append(record)

    @property
    def records(self) -> list[dict[str, Any]]:
        return list(self._buffer)

    def events(self, name: str | None = None) -> list[dict[str, Any]]:
        """Event records, optionally filtered by event name."""
        out = [r for r in self._buffer if r.get("type") == "event"]
        if name is not None:
            out = [r for r in out if r.get("name") == name]
        return out

    def spans(self) -> list[dict[str, Any]]:
        return [r for r in self._buffer if r.get("type") == "span"]

    def clear(self) -> None:
        self._buffer.clear()


class JsonlSink(Sink):
    """Appends one JSON object per record to ``path``."""

    def __init__(self, path: str, mode: str = "w") -> None:
        self.path = path
        # long-lived sink handle, closed in close(); a with-block would
        # force re-opening the file once per emitted record
        self._handle = open(path, mode, encoding="utf-8")  # noqa: SIM115

    def emit(self, record: dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=_json_default))
        self._handle.write("\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class MultiSink(Sink):
    """Fans every record out to several sinks."""

    def __init__(self, sinks: Iterable[Sink]) -> None:
        self.sinks = list(sinks)

    def emit(self, record: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _json_default(value: Any) -> Any:
    """Last-resort coercion for numpy scalars and exotic values."""
    if hasattr(value, "item") and callable(value.item):
        try:
            return value.item()
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist") and callable(value.tolist):
        try:
            return value.tolist()
        except (ValueError, TypeError):
            pass
    return str(value)
