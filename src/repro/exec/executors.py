"""Pluggable trial executors: serial, thread pool, process-per-trial.

An :class:`Executor` owns the *where* of trial evaluation and nothing
else — the campaign keeps the *what* (ask/tell, ordering, retries,
journaling). The contract is deliberately tiny:

``submit(task)``
    accept a :class:`~repro.exec.payload.TrialTask` for evaluation;
``poll(timeout)``
    return every finished :class:`~repro.exec.payload.TrialOutcome`
    (possibly empty), waiting up to ``timeout`` seconds for the first
    one (``None`` = wait until something finishes, return immediately
    if nothing is in flight);
``shutdown()``
    release workers (also via context manager).

One capability flag tells the campaign how much state is shared:
``in_process`` (the pruner and case study are the campaign's own
objects — live checkpoint reporting, mutations visible). Telemetry
takes one path under every executor: each attempt records into its own
``Telemetry`` and ships the records home on its outcome (see
:mod:`repro.exec.payload`).

Fault containment: the process executor runs **one OS process per
in-flight trial**, so a crashing or hung trial is terminated without
poisoning a shared pool (the classic ``BrokenProcessPool`` failure
mode), and a per-task deadline kills overrunning workers. Thread
workers cannot be killed — a timed-out thread trial is *abandoned*
(its eventual result is discarded) and the slot freed.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import queue
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any

from .payload import TrialOutcome, TrialTask, execute_trial

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "register_executor",
]


class Executor:
    """Where trials run. Subclasses implement submit/poll/shutdown."""

    name: str = "executor"
    #: True when trials run inside the campaign process (shared memory)
    in_process: bool = True

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = int(max_workers)

    # ------------------------------------------------------------ contract
    def submit(self, task: TrialTask) -> None:
        raise NotImplementedError

    def poll(self, timeout: float | None = None) -> list[TrialOutcome]:
        raise NotImplementedError

    @property
    def n_inflight(self) -> int:
        raise NotImplementedError

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class SerialExecutor(Executor):
    """Runs each trial inline at ``submit`` time — the historical path.

    ``max_workers`` is pinned to 1; per-trial timeouts cannot be
    enforced (there is nobody left to watch the clock), so they are
    ignored here — use the thread or process executor for deadlines.
    """

    name = "serial"
    in_process = True

    def __init__(self, max_workers: int = 1) -> None:
        super().__init__(max_workers=1)
        self._done: list[TrialOutcome] = []

    def submit(self, task: TrialTask) -> None:
        self._done.append(execute_trial(task))

    def poll(self, timeout: float | None = None) -> list[TrialOutcome]:
        if not self._done:
            if timeout:
                time.sleep(timeout)
            return []
        out, self._done = self._done, []
        return out

    @property
    def n_inflight(self) -> int:
        return len(self._done)


class ThreadExecutor(Executor):
    """A thread pool; right for case studies that release the GIL or
    block on I/O (and for exercising the concurrent code paths cheaply).

    Timeout semantics: a running thread cannot be killed, so a trial
    past its deadline is reported as ``timeout`` and *abandoned* — the
    zombie thread finishes on its own and its result is discarded.
    """

    name = "thread"
    in_process = True

    def __init__(self, max_workers: int = 4) -> None:
        super().__init__(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="trial"
        )
        #: seq -> (future, task, deadline)
        self._running: dict[int, tuple[Future, TrialTask, float | None]] = {}
        self._abandoned: set[int] = set()

    def submit(self, task: TrialTask) -> None:
        deadline = (
            time.monotonic() + task.timeout_s if task.timeout_s is not None else None
        )
        self._running[task.seq] = (self._pool.submit(execute_trial, task), task, deadline)

    def poll(self, timeout: float | None = None) -> list[TrialOutcome]:
        if not self._running:
            return []
        wait_for = timeout
        deadlines = [d for (_, _, d) in self._running.values() if d is not None]
        if deadlines:
            until_deadline = max(0.0, min(deadlines) - time.monotonic())
            wait_for = until_deadline if wait_for is None else min(wait_for, until_deadline)
        wait([f for (f, _, _) in self._running.values()], wait_for, FIRST_COMPLETED)
        now = time.monotonic()
        outcomes: list[TrialOutcome] = []
        for seq in list(self._running):
            future, task, deadline = self._running[seq]
            if future.done():
                del self._running[seq]
                outcomes.append(_outcome_of(future, task))
            elif deadline is not None and now >= deadline:
                del self._running[seq]
                if not future.cancel():
                    self._abandoned.add(seq)  # running: let it drain, ignore it
                outcomes.append(_timeout_outcome(task))
        return outcomes

    @property
    def n_inflight(self) -> int:
        return len(self._running)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class ProcessExecutor(Executor):
    """One spawned OS process per in-flight trial.

    Tasks must be picklable end to end (configuration, case study,
    pruner snapshot); results come home over a pipe. A worker that dies
    without reporting (segfault, ``os._exit``, OOM-kill) is contained
    as a ``crashed`` outcome; one past its deadline is ``terminate()``d
    and reported as ``timeout``. Neither touches the other workers.

    ``mp_context`` selects the start method (``"fork"``, ``"spawn"``,
    ``"forkserver"``); the platform default is used when ``None``.
    Payloads are kept spawn-safe either way.

    Note: the case study runs on a *copy* — in-child mutations do not
    propagate to the campaign.
    """

    name = "process"
    in_process = False

    def __init__(self, max_workers: int = 4, mp_context: str | None = None) -> None:
        super().__init__(max_workers)
        self._ctx = multiprocessing.get_context(mp_context)
        #: seq -> (process, parent_conn, task, deadline)
        self._running: dict[int, tuple[Any, Any, TrialTask, float | None]] = {}
        self._queued: queue.SimpleQueue[TrialTask] = queue.SimpleQueue()
        self._n_queued = 0

    def submit(self, task: TrialTask) -> None:
        self._queued.put(task)
        self._n_queued += 1
        self._start_queued()

    def _start_queued(self) -> None:
        while len(self._running) < self.max_workers and self._n_queued:
            task = self._queued.get()
            self._n_queued -= 1
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_process_worker, args=(child_conn, task), daemon=True
            )
            process.start()
            child_conn.close()  # the child holds its own handle
            deadline = (
                time.monotonic() + task.timeout_s if task.timeout_s is not None else None
            )
            self._running[task.seq] = (process, parent_conn, task, deadline)

    def poll(self, timeout: float | None = None) -> list[TrialOutcome]:
        self._start_queued()
        if not self._running:
            return []
        wait_for = timeout
        deadlines = [d for (_, _, _, d) in self._running.values() if d is not None]
        if deadlines:
            until_deadline = max(0.0, min(deadlines) - time.monotonic())
            wait_for = until_deadline if wait_for is None else min(wait_for, until_deadline)
        multiprocessing.connection.wait(
            [conn for (_, conn, _, _) in self._running.values()], wait_for
        )
        outcomes: list[TrialOutcome] = []
        now = time.monotonic()
        for seq in list(self._running):
            process, conn, task, deadline = self._running[seq]
            if conn.poll():
                try:
                    outcome = conn.recv()
                except (EOFError, OSError):
                    outcome = _crash_outcome(task, process)
                self._finish(seq)
                outcomes.append(outcome)
            elif not process.is_alive():
                outcome = _crash_outcome(task, process)
                self._finish(seq)
                outcomes.append(outcome)
            elif deadline is not None and now >= deadline:
                process.terminate()
                self._finish(seq)
                outcomes.append(_timeout_outcome(task))
        self._start_queued()
        return outcomes

    def _finish(self, seq: int) -> None:
        process, conn, _, _ = self._running.pop(seq)
        conn.close()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - stubborn worker
            process.kill()
            process.join(timeout=5.0)
        process.close()

    @property
    def n_inflight(self) -> int:
        return len(self._running) + self._n_queued

    def shutdown(self) -> None:
        while self._n_queued:
            self._queued.get()
            self._n_queued -= 1
        for seq in list(self._running):
            process, conn, _, _ = self._running[seq]
            process.terminate()
            self._finish(seq)


def _process_worker(conn: Any, task: TrialTask) -> None:
    """Child-process entry point: evaluate, ship the outcome, exit."""
    try:
        outcome = execute_trial(task)
        conn.send(outcome)
    except Exception as exc:  # noqa: BLE001 - e.g. outcome unpicklable
        conn.send(
            TrialOutcome(
                seq=task.seq,
                trial_id=task.config.trial_id,
                attempt=task.attempt,
                status="failed",
                error=f"worker could not report outcome: {exc!r}",
                worker=f"proc-{multiprocessing.current_process().pid}",
            )
        )
    finally:
        conn.close()


def _outcome_of(future: Future, task: TrialTask) -> TrialOutcome:
    """Unwrap a thread future (infrastructure errors become outcomes)."""
    exc = future.exception()
    if exc is None:
        return future.result()
    return TrialOutcome(  # pragma: no cover - execute_trial never raises
        seq=task.seq,
        trial_id=task.config.trial_id,
        attempt=task.attempt,
        status="crashed",
        error=repr(exc),
    )


def _timeout_outcome(task: TrialTask) -> TrialOutcome:
    return TrialOutcome(
        seq=task.seq,
        trial_id=task.config.trial_id,
        attempt=task.attempt,
        status="timeout",
        duration_s=float(task.timeout_s or 0.0),
        error=f"trial exceeded timeout of {task.timeout_s}s",
    )


def _crash_outcome(task: TrialTask, process: Any) -> TrialOutcome:
    code = getattr(process, "exitcode", None)
    return TrialOutcome(
        seq=task.seq,
        trial_id=task.config.trial_id,
        attempt=task.attempt,
        status="crashed",
        error=f"worker process died without reporting (exitcode={code})",
    )


#: executor name -> class, the CLI/`make_executor` registry
EXECUTORS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}

#: names resolvable by make_executor without importing them up front;
#: name -> module whose import registers the executor
LAZY_EXECUTORS: dict[str, str] = {
    "remote": "repro.net",
}


def register_executor(name: str, cls: type[Executor]) -> None:
    """Add an executor class to the :data:`EXECUTORS` registry.

    Optional backends (``repro.net``'s ``"remote"``) register themselves
    at import time instead of being hard-wired here, so the core exec
    layer never depends on them.
    """
    EXECUTORS[name] = cls


def make_executor(
    kind: str, max_workers: int | None = None, **kwargs: Any
) -> Executor:
    """Build an executor by name (``serial``/``thread``/``process``/``remote``)."""
    if kind not in EXECUTORS and kind in LAZY_EXECUTORS:
        import importlib

        importlib.import_module(LAZY_EXECUTORS[kind])
    try:
        cls = EXECUTORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown executor {kind!r}; available: "
            f"{sorted(set(EXECUTORS) | set(LAZY_EXECUTORS))}"
        ) from None
    if max_workers is None:
        return cls(**kwargs)
    return cls(max_workers=max_workers, **kwargs)
