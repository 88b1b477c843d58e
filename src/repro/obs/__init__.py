"""Observability: structured events, hierarchical spans, meters, export.

The telemetry layer the campaign, the framework training loops and the
cluster simulator all report into. Off by default — construct a
:class:`Telemetry` (optionally over a :class:`JsonlSink`) and pass it to
:class:`~repro.core.Campaign` (or ``repro campaign --telemetry FILE``)
to turn it on; the ``repro telemetry`` subcommand summarizes a log or
converts it to Perfetto-loadable Chrome trace JSON.
"""

from .events import (
    EVT_CAMPAIGN_FINISHED,
    EVT_CAMPAIGN_STARTED,
    EVT_CHECKPOINT,
    EVT_EXPLORER_ASK,
    EVT_EXPLORER_TELL,
    EVT_TRIAL_FAILED,
    EVT_TRIAL_FINISHED,
    EVT_TRIAL_PRUNED,
    EVT_TRIAL_CACHE_HIT,
    EVT_TRIAL_RETRIED,
    EVT_TRIAL_STARTED,
    EVT_WORKER_JOINED,
    EVT_WORKER_LOST,
    EVT_WORKER_QUARANTINED,
    EVT_WORKER_REJOINED,
    NULL_SINK,
    Event,
    JsonlSink,
    NullSink,
    RingBufferSink,
    Sink,
)
from .export import (
    chrome_trace,
    export_chrome,
    load_records,
    span_tree,
    summarize,
    validate_chrome_trace,
)
from .meters import NULL_METERS, Counter, Gauge, Histogram, MeterRegistry
from .spans import NULL_TRACER, NullTracer, Span, SpanTracer
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "Event",
    "Sink",
    "NullSink",
    "NULL_SINK",
    "RingBufferSink",
    "JsonlSink",
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
    "Span",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MeterRegistry",
    "NULL_METERS",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "load_records",
    "chrome_trace",
    "export_chrome",
    "span_tree",
    "summarize",
    "validate_chrome_trace",
]
