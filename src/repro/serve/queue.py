"""Per-tenant job queues with a global concurrency limit.

A :class:`Job` is one submitted campaign: its spec, lifecycle state,
committed-trial feed (what ``GET /campaigns/{id}/trials`` follows while
the job runs) and a cooperative stop flag (what graceful drain trips).
A terminal job keeps only its status record: the transition drops the
feed, and its rows are read back from the job's on-disk archive, so a
long-lived service holds O(1) memory per finished job. A :class:`JobQueue`
holds one FIFO per tenant and dispatches to ``max_concurrent`` runner
threads, serving tenants round-robin so one client submitting fifty
campaigns cannot starve another's first.

The queue knows nothing about campaigns: it runs an injected ``runner``
callable. :class:`~repro.serve.server.CampaignService` injects the real
campaign runner; tests inject controllable stand-ins to pin down
ordering and drain semantics without training anything.

Every blocking wait in this package is bounded (lint rule RPR009):
dispatchers and streamers wake on a condition or time out and re-check,
so a drain request is always observed within ``_TICK_S`` seconds.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Job", "JobQueue", "JOB_STATES", "TERMINAL_STATES"]

#: every state a job can be in; "interrupted" means a drain checkpointed
#: it mid-run and a restart will resume it from its journal
JOB_STATES = ("queued", "running", "completed", "failed", "interrupted")

#: states that end the trial stream (interrupted jobs terminate the
#: *stream* — the job itself is resumed by the next server process)
TERMINAL_STATES = ("completed", "failed", "interrupted")

#: upper bound on any internal wait between re-checks
_TICK_S = 0.2


@dataclass
class Job:
    """One submitted campaign and everything observable about it."""

    id: str
    tenant: str
    spec: dict[str, Any]
    name: str = ""
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: total trials the spec will run (None until known)
    n_trials_expected: int | None = None
    #: sha256 hex of the canonical table fingerprint, set on completion
    fingerprint: str | None = None
    #: trials committed so far; outlives the feed once the job is terminal
    n_trials_done: int = 0
    #: how many journaled trials a resumed run replayed
    n_replayed: int = 0
    #: times this job was re-enqueued by a server restart
    restarts: int = 0

    def __post_init__(self) -> None:
        self._cond = threading.Condition()
        self._stop = threading.Event()
        #: serialized committed trials in commit order (the stream feed);
        #: None once the job is terminal and its rows live only on disk
        self._trial_rows: list[dict[str, Any]] | None = None if self.terminal else []

    # ------------------------------------------------------------ lifecycle
    def request_stop(self) -> None:
        """Ask the running campaign to checkpoint and stop (drain)."""
        self._stop.set()

    @property
    def stop_requested(self) -> Callable[[], bool]:
        """The ``stop`` predicate handed to ``Campaign.run``."""
        return self._stop.is_set

    def mark(self, state: str, error: str | None = None) -> None:
        """Transition to ``state`` and wake every streamer/poller.

        A terminal ``state`` drops the trial feed: the caller must have
        archived the committed rows (result or journal) before this call.
        """
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._cond:
            self.state = state
            if state == "running" and self.started_at is None:
                # repro-lint: disable=RPR002 -- lifecycle timestamps feed the job record shown to clients, never the fingerprint digest
                self.started_at = time.time()
            if state in TERMINAL_STATES:
                # repro-lint: disable=RPR002 -- lifecycle timestamps feed the job record shown to clients, never the fingerprint digest
                self.finished_at = time.time()
                self._trial_rows = None
            if error is not None:
                self.error = error
            self._cond.notify_all()

    def reset_for_resume(self) -> None:
        """Back to the queue after a drain/restart (journal intact)."""
        with self._cond:
            self.state = "queued"
            self.started_at = None
            self.finished_at = None
            self.error = None
            self.restarts += 1
            self.n_trials_done = 0
            self._trial_rows = []
            self._stop.clear()
            self._cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # ----------------------------------------------------------- trial feed
    def append_trial(self, row: dict[str, Any]) -> None:
        with self._cond:
            if self._trial_rows is None:
                raise RuntimeError(f"job {self.id} is {self.state}; its feed is closed")
            self._trial_rows.append(row)
            self.n_trials_done += 1
            self._cond.notify_all()

    def trials_after(
        self, index: int, timeout: float = _TICK_S
    ) -> list[dict[str, Any]] | None:
        """Rows committed after ``index``; blocks at most ``timeout``.

        Returns an empty list on timeout, so a caller looping on this
        never parks forever on a drained job, and None once the job is
        terminal: the rows have left memory, and the caller continues
        from the job's archive at the row it had reached.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._trial_rows is not None and len(self._trial_rows) <= index:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=min(remaining, _TICK_S))
            if self._trial_rows is None:
                return None
            return self._trial_rows[index:]

    # ------------------------------------------------------------ snapshots
    def snapshot(self) -> dict[str, Any]:
        """The ``GET /campaigns/{id}`` status payload."""
        with self._cond:
            payload: dict[str, Any] = {
                "id": self.id,
                "name": self.name,
                "tenant": self.tenant,
                "state": self.state,
                "spec": dict(self.spec),
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "n_trials_done": self.n_trials_done,
                "n_trials_expected": self.n_trials_expected,
                "restarts": self.restarts,
            }
            if self.error is not None:
                payload["error"] = self.error
            if self.fingerprint is not None:
                payload["fingerprint"] = self.fingerprint
            if self.n_replayed:
                payload["n_replayed"] = self.n_replayed
            return payload


class JobQueue:
    """FIFO per tenant, ``max_concurrent`` runners, round-robin dispatch."""

    def __init__(
        self,
        runner: Callable[[Job], None],
        max_concurrent: int = 2,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self.runner = runner
        self.max_concurrent = int(max_concurrent)
        self._cond = threading.Condition()
        self._pending: dict[str, deque[Job]] = {}
        #: tenant service order; rotated on every dispatch for fairness
        self._rotation: deque[str] = deque()
        self._running: set[str] = set()
        self._draining = False
        self._closed = False
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        for index in range(self.max_concurrent):
            thread = threading.Thread(
                target=self._work, name=f"serve-runner-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def submit(self, job: Job) -> None:
        with self._cond:
            if self._draining:
                raise RuntimeError("queue is draining; not accepting jobs")
            bucket = self._pending.get(job.tenant)
            if bucket is None:
                bucket = self._pending[job.tenant] = deque()
                self._rotation.append(job.tenant)
            bucket.append(job)
            self._cond.notify_all()

    def drain(self, grace_s: float = 30.0) -> None:
        """Stop dispatching, stop running jobs, join the runners.

        Pending jobs stay queued (their state files survive for the next
        server process); running jobs get their stop flag set and are
        given ``grace_s`` to commit the current trial and checkpoint.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()
        deadline = time.monotonic() + grace_s
        for thread in self._threads:
            remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    # ----------------------------------------------------------- dispatch
    def counts(self) -> dict[str, int]:
        with self._cond:
            return {
                "queued": sum(len(q) for q in self._pending.values()),
                "running": len(self._running),
            }

    def _next_job(self) -> Job | None:
        """Round-robin pick under the held condition lock."""
        for _ in range(len(self._rotation)):
            tenant = self._rotation[0]
            self._rotation.rotate(-1)
            bucket = self._pending.get(tenant)
            if bucket:
                return bucket.popleft()
        return None

    def _work(self) -> None:
        while True:
            with self._cond:
                job = None if self._draining else self._next_job()
                while job is None:
                    if self._draining:
                        return
                    self._cond.wait(timeout=_TICK_S)
                    job = self._next_job()
                self._running.add(job.id)
            try:
                self.runner(job)
            finally:
                with self._cond:
                    self._running.discard(job.id)
                    self._cond.notify_all()
