"""Picklable trial payloads and the worker-side evaluation routine.

A :class:`TrialTask` is everything one trial evaluation needs, packaged
so it can cross a process boundary: the configuration, the resolved
seed, the case study itself and (a reference to, or pickled snapshot
of) the pruner. :func:`execute_trial` is the single evaluation routine
every executor runs — in the campaign's own thread, in a pool thread,
or in a spawned worker process — and returns a :class:`TrialOutcome`
the campaign turns back into a :class:`~repro.core.results.TrialResult`.

Telemetry crosses the boundary by *buffering*: out-of-band workers
(threads, processes) record into a private :class:`RingBufferSink` and
ship the records home inside the outcome; the campaign re-bases their
span ids and clocks into its own stream at commit time
(:meth:`repro.obs.Telemetry.merge_records`). The serial executor keeps
the historical direct path — the campaign's own ``Telemetry`` object is
attached to the task and records stream straight through it.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any

from ..obs import (
    EVT_CHECKPOINT,
    EVT_TRIAL_FAILED,
    EVT_TRIAL_FINISHED,
    EVT_TRIAL_PRUNED,
    EVT_TRIAL_STARTED,
    MeterRegistry,
    RingBufferSink,
    Telemetry,
)

__all__ = ["TrialTask", "TrialOutcome", "execute_trial", "OUTCOME_STATUSES"]


def _exception_extras(exc: BaseException) -> dict[str, Any]:
    """JSON-primitive ``extras`` a typed exception carries, sanitized so
    the dict survives journaling and the process boundary."""
    raw = getattr(exc, "extras", None)
    if not isinstance(raw, dict):
        return {}
    return {
        str(k): v
        for k, v in raw.items()
        if isinstance(v, (str, int, float, bool)) or v is None
    }

#: every way a trial attempt can end
OUTCOME_STATUSES = ("completed", "pruned", "failed", "timeout", "crashed")


@dataclass
class TrialTask:
    """One trial evaluation, packaged for any executor.

    ``pruner`` is a live shared object under in-process executors and a
    pickled snapshot under the process executor (the campaign replays
    the child's checkpoints into its own pruner afterwards, see
    :meth:`~repro.core.pruning.Pruner.absorb`). ``telemetry`` is only
    attached by the serial executor path — it is never pickled.
    """

    seq: int
    config: Any  # Configuration (picklable: plain values + trial_id)
    seed: int
    case_study: Any
    pruner: Any = None
    attempt: int = 0
    pass_telemetry: bool = False
    telemetry_on: bool = False
    #: campaign telemetry for the direct (serial) path; None => buffer
    telemetry: Any = None
    timeout_s: float | None = None
    #: pid of the submitting process, for worker attribution
    origin_pid: int = field(default_factory=os.getpid)
    #: content address of this trial in the shared TrialCache (set by the
    #: campaign on cache misses, which stores the outcome under it at
    #: commit); remote workers use it to answer warm trials locally
    #: instead of re-running env steps
    cache_key: str | None = None

    def retry(self) -> "TrialTask":
        """The same task, one attempt later."""
        return replace(self, attempt=self.attempt + 1, telemetry=self.telemetry)


@dataclass
class TrialOutcome:
    """What came back from one trial attempt."""

    seq: int
    trial_id: int | None
    attempt: int
    status: str  # one of OUTCOME_STATUSES
    measurements: dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0
    error: str | None = None
    traceback: str | None = None
    #: JSON-safe context a typed exception attached via its ``extras``
    #: attribute (e.g. the offending env step, the fault abort time)
    error_extras: dict[str, Any] = field(default_factory=dict)
    #: the original exception object (in-process executors only)
    exception: BaseException | None = None
    #: (step, value) learning-curve reports made during the attempt
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    #: buffered telemetry records (out-of-band workers only)
    records: list[dict[str, Any]] = field(default_factory=list)
    #: per-trial meter registry (out-of-band workers only)
    meters: MeterRegistry | None = None
    #: wall-minus-monotonic clock offset of the producing process
    clock_offset: float = 0.0
    worker: str = "main"

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "pruned")

    @property
    def retryable(self) -> bool:
        return self.status in ("failed", "timeout", "crashed")


def _worker_label(task: TrialTask) -> str:
    """Human-readable identity of the executing worker."""
    if os.getpid() != task.origin_pid:
        return f"proc-{os.getpid()}"
    name = threading.current_thread().name
    return "main" if name == "MainThread" else name


def execute_trial(task: TrialTask) -> TrialOutcome:
    """Run one trial attempt; never raises (errors become outcomes).

    The structure mirrors the historical ``Campaign._run_trial``: emit
    ``trial_started``, wrap the evaluation in a ``trial`` span, report
    learning-curve checkpoints to the pruner, and emit the terminal
    lifecycle event. Under buffered telemetry the records accumulate in
    a private sink shipped home on the outcome.
    """
    worker = _worker_label(task)
    buffered = task.telemetry is None and task.telemetry_on
    if buffered:
        sink = RingBufferSink()
        telem = Telemetry(sink)
    else:
        sink = None
        telem = Telemetry.or_null(task.telemetry)

    config = task.config
    trial_id = config.trial_id
    pruner = task.pruner
    pruned = False
    checkpoints: list[tuple[int, float]] = []

    def progress_hook(step: int, value: float) -> bool:
        nonlocal pruned
        checkpoints.append((int(step), float(value)))
        if telem.enabled:
            telem.event(EVT_CHECKPOINT, step=step, value=value)
        if pruner is not None and pruner.report(trial_id, step, value):
            pruned = True
            return True
        return False

    telem.set_context(trial_id=trial_id, seed=task.seed)
    trial_meters = telem.push_meters()
    telem.event(EVT_TRIAL_STARTED, config=config.as_dict(), attempt=task.attempt)
    kwargs: dict[str, Any] = {"progress": progress_hook}
    if task.pass_telemetry:
        kwargs["telemetry"] = telem
    start = time.perf_counter()
    try:
        with telem.span("trial", trial_id=trial_id, seed=task.seed):
            measurements = dict(task.case_study.evaluate(config, task.seed, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the campaign survives bad trials
        duration = time.perf_counter() - start
        telem.event(EVT_TRIAL_FAILED, error=repr(exc), duration_s=duration)
        telem.pop_meters()
        telem.clear_context("trial_id", "seed")
        # the exception object itself only travels within the process
        # (pickling arbitrary exceptions across the boundary is unsafe)
        in_process = os.getpid() == task.origin_pid
        return TrialOutcome(
            seq=task.seq,
            trial_id=trial_id,
            attempt=task.attempt,
            status="failed",
            duration_s=duration,
            error=repr(exc),
            traceback=traceback.format_exc(),
            error_extras=_exception_extras(exc),
            exception=exc if in_process else None,
            checkpoints=checkpoints,
            records=sink.records if sink is not None else [],
            meters=trial_meters if task.telemetry_on else None,
            clock_offset=time.time() - time.perf_counter(),
            worker=worker,
        )
    duration = time.perf_counter() - start
    telem.event(
        EVT_TRIAL_PRUNED if pruned else EVT_TRIAL_FINISHED,
        duration_s=duration,
    )
    telem.pop_meters()
    telem.clear_context("trial_id", "seed")
    return TrialOutcome(
        seq=task.seq,
        trial_id=trial_id,
        attempt=task.attempt,
        status="pruned" if pruned else "completed",
        measurements=measurements,
        duration_s=duration,
        checkpoints=checkpoints,
        records=sink.records if sink is not None else [],
        meters=trial_meters if task.telemetry_on else None,
        clock_offset=time.time() - time.perf_counter(),
        worker=worker,
    )
