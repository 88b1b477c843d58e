"""Counters, gauges and histograms with snapshot/merge semantics.

A :class:`MeterRegistry` is a namespace of meters created on first use.
The campaign gives every trial a fresh registry (so per-trial summaries
land in ``TrialResult.extras["telemetry"]``) and merges it into the
campaign-level registry afterwards (so aggregate statistics land in
``DecisionReport.meta["telemetry"]``). ``merge`` is exact: counters add,
gauges keep the most recent set, histograms pool their observations, so
the campaign percentiles are computed over all trials' samples rather
than averaging per-trial percentiles.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MeterRegistry", "NullMeterRegistry", "NULL_METERS"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-set value (``None`` until first set)."""

    __slots__ = ("value", "_set_seq")

    def __init__(self) -> None:
        self.value: float | None = None
        self._set_seq = 0  # merge tie-break: higher wins

    def set(self, value: float) -> None:
        self.value = float(value)
        self._set_seq += 1


class Histogram:
    """Pool of observations summarized as count/mean/p50/p95/max."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def snapshot(self) -> dict[str, float]:
        if not self.values:
            return {"count": 0}
        arr = np.asarray(self.values)
        ordered = np.sort(arr)
        return {
            "count": int(arr.size),
            "sum": float(arr.sum()),
            "mean": float(arr.mean()),
            "p50": _percentile(ordered, 50),
            "p95": _percentile(ordered, 95),
            "max": float(arr.max()),
        }


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile`` (its default, linear method) of sorted values, bit
    for bit, written out: ``np.percentile`` reaches ``np.unique``, which
    imports all of ``numpy.ma`` into every process that snapshots."""
    if np.isnan(ordered[-1]):  # NaNs sort last, and numpy returns NaN
        return float("nan")
    last = len(ordered) - 1
    index = last * (q / 100)
    below, above = (math.floor(index), math.floor(index) + 1) if index < last else (-1, -1)
    gamma = index - below
    a, b = ordered[below], ordered[above]
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


class MeterRegistry:
    """Named meters, created on first access."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------- access
    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            meter = self.counters[name] = Counter()
            return meter

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            meter = self.gauges[name] = Gauge()
            return meter

    def histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            meter = self.histograms[name] = Histogram()
            return meter

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # ----------------------------------------------------------- snapshot
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict summary (JSON-safe) of every meter."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {
                k: g.value for k, g in sorted(self.gauges.items()) if g.value is not None
            },
            "histograms": {k: h.snapshot() for k, h in sorted(self.histograms.items())},
        }

    def merge(self, other: "MeterRegistry") -> "MeterRegistry":
        """Fold ``other``'s meters into this registry (exact, not lossy)."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            if gauge.value is not None:
                mine = self.gauge(name)
                if gauge._set_seq >= mine._set_seq:
                    mine.value = gauge.value
                    mine._set_seq = gauge._set_seq
        for name, hist in other.histograms.items():
            self.histogram(name).values.extend(hist.values)
        return self

    def merge_snapshot(self, snapshot: dict[str, Any]) -> "MeterRegistry":
        """Fold a serialized :meth:`snapshot` dict into this registry.

        Counters add and gauges overwrite, exactly as live ``merge``
        does; histograms are *skipped* — a snapshot keeps summary
        percentiles, not raw observations, so pooling is impossible and
        silently re-observing the mean would fabricate data. Used by
        long-lived processes (``repro serve``) to fold meters persisted
        by a previous incarnation into their live aggregate.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(float(value))
        return self


class _NullMeter:
    """Accepts any update, records nothing."""

    __slots__ = ()
    value = 0.0
    values: list[float] = []

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict[str, float]:
        return {"count": 0}


_NULL_METER = _NullMeter()


class NullMeterRegistry:
    """Registry whose meters are shared no-ops (disabled telemetry)."""

    def counter(self, name: str) -> _NullMeter:
        return _NULL_METER

    def gauge(self, name: str) -> _NullMeter:
        return _NULL_METER

    def histogram(self, name: str) -> _NullMeter:
        return _NULL_METER

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, other: Any) -> "NullMeterRegistry":
        return self


#: shared no-op registry instance
NULL_METERS = NullMeterRegistry()
