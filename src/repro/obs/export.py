"""Telemetry log tooling: summaries and Chrome trace-event export.

The exporter turns a JSONL event log (see :mod:`repro.obs.events` for
the record types) into Chrome trace-event JSON loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``. Two processes keep
the two clocks apart:

* **pid 1 — "real-time (host)"**: the span tracer's real wall-clock
  phases (``trial`` → ``rollout``/``update``/``weight_sync``) as ``X``
  complete events, one thread per worker (each worker runs its trials
  one at a time, so Chrome's time-containment nesting reproduces the
  span hierarchy), plus every structured event as an ``i`` instant;
* **pid 2 — "virtual-time (cluster sim)"**: the simulator's
  :class:`~repro.cluster.TaskSpan` / :class:`~repro.cluster.TransferSpan`
  records, one thread per (trial, node) and per (trial, link) so each
  trial's virtual schedule reads like the DAG it is.

Real timestamps are rebased to the first record so traces start at 0.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .meters import Histogram

__all__ = [
    "load_records",
    "chrome_trace",
    "export_chrome",
    "span_tree",
    "summarize",
    "validate_chrome_trace",
]

#: microseconds per second (trace-event ``ts``/``dur`` are in µs)
_US = 1e6


def load_records(path: str) -> list[dict[str, Any]]:
    """Read a JSONL telemetry log written by :class:`~repro.obs.JsonlSink`."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _trial_of(record: dict[str, Any]) -> Any:
    ctx = record.get("ctx") or {}
    if "trial_id" in ctx:
        return ctx["trial_id"]
    return record.get("fields", {}).get("trial_id")


def chrome_trace(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Convert telemetry records to a Chrome trace-event JSON object."""
    records = list(records)
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    vspans = [r for r in records if r.get("type") == "vspan"]

    trace_events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "real-time (host)"}},
        {"ph": "M", "name": "process_sort_index", "pid": 1, "tid": 0,
         "args": {"sort_index": 1}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": {"name": "campaign"}},
    ]

    # ---------------------------------------------------------- real time
    # Every trial record carries ctx["worker"]: "main" for a serial
    # campaign's trials, which share tid 1 "campaign" with the campaign's
    # own events (those carry no worker); otherwise a thread name
    # ("trial_0", "serve-runner-1"), "proc-<pid>" or a remote worker's
    # name, each on its own lane so overlapping trials render side by side.
    worker_tids: dict[str, int] = {"main": 1}

    def _tid_of(record: dict[str, Any]) -> int:
        worker = (record.get("ctx") or {}).get("worker", "main")
        if worker not in worker_tids:
            tid = max(worker_tids.values()) + 1
            worker_tids[worker] = tid
            trace_events.append(
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                 "args": {"name": f"worker {worker}"}}
            )
            trace_events.append(
                {"ph": "M", "name": "thread_sort_index", "pid": 1, "tid": tid,
                 "args": {"sort_index": tid}}
            )
        return worker_tids[worker]

    starts = [s["t_start"] for s in spans] + [e["t_mono"] for e in events]
    base = min(starts) if starts else 0.0
    for span in spans:
        args = {**span.get("fields", {}), **(span.get("ctx") or {})}
        trace_events.append({
            "ph": "X",
            "name": span["name"],
            "cat": "real",
            "pid": 1,
            "tid": _tid_of(span),
            "ts": (span["t_start"] - base) * _US,
            "dur": (span["t_end"] - span["t_start"]) * _US,
            "args": args,
        })
    for event in events:
        trace_events.append({
            "ph": "i",
            "s": "t",
            "name": event["name"],
            "cat": "event",
            "pid": 1,
            "tid": _tid_of(event),
            "ts": (event["t_mono"] - base) * _US,
            "args": dict(event.get("fields", {})),
        })

    # ------------------------------------------------------- virtual time
    if vspans:
        trace_events.append(
            {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
             "args": {"name": "virtual-time (cluster sim)"}}
        )
        trace_events.append(
            {"ph": "M", "name": "process_sort_index", "pid": 2, "tid": 0,
             "args": {"sort_index": 2}}
        )
    tids: dict[tuple[Any, str], int] = {}
    for vspan in vspans:
        trial = _trial_of(vspan)
        kind = vspan.get("kind")
        if kind == "transfer":
            lane = f"link {vspan['src']}→{vspan['dst']}"
        elif kind == "fault":
            # injected faults get their own dedicated track per trial so
            # crashes/stragglers/partitions read against the schedule
            lane = "faults"
        else:
            lane = f"node {vspan.get('node', '?')}"
        key = (trial, lane)
        if key not in tids:
            tids[key] = tid = len(tids) + 1
            label = lane if trial is None else f"trial {trial} · {lane}"
            trace_events.append(
                {"ph": "M", "name": "thread_name", "pid": 2, "tid": tid,
                 "args": {"name": label}}
            )
            trace_events.append(
                {"ph": "M", "name": "thread_sort_index", "pid": 2, "tid": tid,
                 "args": {"sort_index": tid}}
            )
        args = {
            k: vspan[k]
            for k in ("node", "cores", "src", "dst", "n_bytes", "fault_kind")
            if k in vspan
        }
        args.update(vspan.get("ctx") or {})
        if kind == "fault" and vspan["end"] == vspan["start"]:
            # point faults (task failures) render as instants
            trace_events.append({
                "ph": "i",
                "s": "t",
                "name": vspan["name"],
                "cat": "virtual.fault",
                "pid": 2,
                "tid": tids[key],
                "ts": vspan["start"] * _US,
                "args": args,
            })
            continue
        trace_events.append({
            "ph": "X",
            "name": vspan["name"],
            "cat": f"virtual.{kind or 'task'}",
            "pid": 2,
            "tid": tids[key],
            "ts": vspan["start"] * _US,
            "dur": (vspan["end"] - vspan["start"]) * _US,
            "args": args,
        })

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.export",
            "n_spans": len(spans),
            "n_events": len(events),
            "n_vspans": len(vspans),
        },
    }


def export_chrome(records: Iterable[dict[str, Any]], path: str) -> dict[str, Any]:
    """Write the Chrome trace for ``records`` to ``path``; returns it."""
    payload = chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    return payload


def span_tree(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Nest span records by parent id: ``[{name, fields, children}, ...]``.

    Children are ordered by start time; timestamps are dropped, which is
    exactly what the golden export test wants to compare.
    """
    spans = sorted(
        (r for r in records if r.get("type") == "span"),
        key=lambda r: (r["t_start"], r["id"]),
    )
    nodes = {
        s["id"]: {"name": s["name"], "fields": dict(s.get("fields", {})), "children": []}
        for s in spans
    }
    roots: list[dict[str, Any]] = []
    for span in spans:
        node = nodes[span["id"]]
        parent = span.get("parent")
        if parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots


def summarize(records: Iterable[dict[str, Any]]) -> str:
    """Human-readable digest of a telemetry log."""
    records = list(records)
    events = [r for r in records if r.get("type") == "event"]
    spans = [r for r in records if r.get("type") == "span"]
    vspans = [r for r in records if r.get("type") == "vspan"]

    lines = [f"{len(records)} records: {len(events)} events, "
             f"{len(spans)} spans, {len(vspans)} virtual spans"]

    if events:
        lines.append("")
        lines.append("events:")
        counts: dict[str, int] = {}
        for event in events:
            counts[event["name"]] = counts.get(event["name"], 0) + 1
        for name in sorted(counts):
            lines.append(f"  {name:>20}: {counts[name]}")

    if spans:
        lines.append("")
        lines.append(f"{'span':>20}  {'count':>5} {'total_s':>9} {'mean_s':>9} "
                     f"{'p95_s':>9} {'max_s':>9}")
        by_name: dict[str, Histogram] = {}
        for span in spans:
            by_name.setdefault(span["name"], Histogram()).observe(
                span["t_end"] - span["t_start"]
            )
        for name in sorted(by_name):
            snap = by_name[name].snapshot()
            lines.append(
                f"  {name:>18}  {snap['count']:>5} {snap['sum']:>9.4f} "
                f"{snap['mean']:>9.4f} {snap['p95']:>9.4f} {snap['max']:>9.4f}"
            )

    if vspans:
        trials = sorted({t for t in (_trial_of(v) for v in vspans) if t is not None})
        makespan = max(v["end"] for v in vspans)
        n_faults = sum(1 for v in vspans if v.get("kind") == "fault")
        n_transfers = sum(1 for v in vspans if v.get("kind") == "transfer")
        n_tasks = len(vspans) - n_transfers - n_faults
        lines.append("")
        lines.append(
            f"virtual time: {n_tasks} tasks, {n_transfers} transfers "
            f"over {len(trials)} trials; max virtual end {makespan:.2f}s"
        )
        if n_faults:
            lines.append(f"injected faults: {n_faults} fault spans on the fault lane")
    return "\n".join(lines)


def validate_chrome_trace(payload: dict[str, Any]) -> list[str]:
    """Check ``payload`` against the trace-event format; [] means valid."""
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append(f"traceEvents[{i}] has unsupported ph {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"traceEvents[{i}] ({ph}) missing {key!r}")
        if ph in ("X", "i", "I", "B", "E", "C") and not isinstance(
            ev.get("ts"), (int, float)
        ):
            problems.append(f"traceEvents[{i}] ({ph}) missing numeric 'ts'")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"traceEvents[{i}] (X) missing numeric 'dur'")
        if ph == "X" and isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
            problems.append(f"traceEvents[{i}] (X) has negative duration")
    return problems
