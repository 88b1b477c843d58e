"""Discrete-event cluster simulator.

The simulator executes a DAG of *compute tasks* (which occupy cores on a
node for a duration) and *network transfers* (which occupy a directed link
between two nodes). Scheduling is event-driven over a time-ordered heap:

* a task becomes *ready* when all its dependencies have finished;
* a ready compute task starts as soon as its node has enough free cores
  (FIFO among ready tasks per node);
* a ready transfer starts as soon as its directed link is free (links are
  serial FIFO queues — the 1 Gbps switch of the paper's testbed serializes
  messages between a node pair).

The framework back-ends translate a real (scaled-down) training run into
such a DAG using the cost model, and read the resulting virtual makespan
and per-node utilization timeline (for the energy model) from the
:class:`~repro.cluster.trace.Trace`.

The engine is deterministic: equal-time events resolve in submission
order.

Fault injection
---------------

Constructed with a non-empty :class:`~repro.faults.FaultPlan`, the
simulator interleaves fault events with task completions on the same
heap (faults win same-instant ties so a crash at ``t`` kills a task
that would have finished at ``t``):

* **node crash** — running tasks on the node are preempted (their
  progress is lost and recorded as a partial ``... (killed)`` span) and
  the :class:`~repro.faults.RecoveryPolicy` decides: re-dispatch the
  node's work to a surviving node (optionally behind a synthetic
  full-node *restore* task), wait for the scheduled restart, or abort.
  Crashes on nodes the DAG never touches are executed but trigger no
  policy decision.
* **straggler** — running tasks on the node are rescheduled at the new
  speed; progress made so far is kept (work is accrued in nominal
  seconds and replayed at the active slowdown factor).
* **link degradation / partition** — transfer costs are recomputed at
  start time from the degraded bandwidth/latency; transfers wait out
  partitions and endpoint downtime before occupying the link.
* **task failure** — a deterministic crc32 draw fails an attempt
  partway through; the task is retried in place with bounded attempts.

With ``faults=None`` (or an empty plan) every arithmetic operation is
the exact historical one, so fault-free results stay byte-identical.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..faults.plan import FaultPlan
from ..faults.recovery import DegradeRecovery, RecoveryPolicy
from ..faults.runtime import FaultSchedule, FaultStats
from .topology import ClusterSpec
from .trace import FaultSpan, TaskSpan, Trace, TransferSpan

__all__ = ["Task", "ClusterSimulator"]

_INF = float("inf")


@dataclass(eq=False)
class Task:
    """A node in the execution DAG (compute task or network transfer)."""

    name: str
    #: compute: node index; transfer: source node index
    node: int
    #: compute: cores required; transfers use 0 cores
    cores: int
    #: compute: execution time in seconds (already divided by core speed)
    duration: float
    #: transfer-only fields
    dst: int | None = None
    n_bytes: float = 0.0

    # -- runtime state (managed by the simulator)
    deps_remaining: int = 0
    dependents: list["Task"] = field(default_factory=list)
    start_time: float | None = None
    end_time: float | None = None
    submitted: bool = False
    _seq: int = 0

    # -- fault-injection state (untouched on the fault-free path)
    #: nominal seconds of work completed by earlier (preempted) segments
    work_done: float = 0.0
    #: retry attempt index for probabilistic task failures
    attempt: int = 0
    #: simulator-injected task (learner restore) — excluded from work stats
    synthetic: bool = False
    #: last instant progress accrual was brought up to date
    _progress_t: float = 0.0
    #: generation counter; heap entries from older generations are stale
    _gen: int = 0
    #: this attempt is scheduled to fail partway through
    _will_fail: bool = False
    #: nominal work at which the current attempt ends (fails or finishes)
    _target_work: float = 0.0

    @property
    def is_transfer(self) -> bool:
        return self.dst is not None

    @property
    def done(self) -> bool:
        return self.end_time is not None


class ClusterSimulator:
    """Event-driven executor for task DAGs on a :class:`ClusterSpec`."""

    def __init__(
        self,
        spec: ClusterSpec,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.spec = spec
        self.trace = Trace()
        self.now = 0.0
        # heap entries: (time, priority, seq, gen, payload) — fault events
        # use priority 0 and a payload tuple, tasks priority 1; (time,
        # priority, seq, gen) is unique so payloads are never compared.
        self._heap: list[tuple[float, int, int, int, object]] = []
        self._seq = itertools.count()
        self._free_cores = [node.n_cores for node in spec.nodes]
        self._node_queues: list[deque[Task]] = [deque() for _ in spec.nodes]
        self._link_free_at: dict[tuple[int, int], float] = {}
        self._pending = 0

        if faults is not None and faults.is_empty:
            faults = None
        self._faults: FaultSchedule | None = (
            FaultSchedule(faults, spec.n_nodes) if faults is not None else None
        )
        self._recovery: RecoveryPolicy = recovery or DegradeRecovery()
        self.stats: FaultStats | None = None
        if self._faults is not None:
            self.stats = FaultStats(n_events=faults.n_events)
            self._node_up = [True] * spec.n_nodes
            self._slow = [1.0] * spec.n_nodes
            self._running: list[set[Task]] = [set() for _ in spec.nodes]
            self._remap: dict[int, int] = {}
            self._node_outstanding = [0] * spec.n_nodes
            self._fault_points: list[FaultSpan] = []
            self._total_work = 0.0
            self._done_work = 0.0
            self._aborted = False

    # ------------------------------------------------------------- authoring
    def task(
        self,
        name: str,
        node: int,
        duration: float,
        cores: int = 1,
        deps: Iterable[Task] = (),
    ) -> Task:
        """Create and submit a compute task."""
        self._check_node(node)
        if cores < 1 or cores > self.spec.nodes[node].n_cores:
            raise ValueError(
                f"task {name!r} wants {cores} cores; node {node} has "
                f"{self.spec.nodes[node].n_cores}"
            )
        if duration < 0:
            raise ValueError("duration must be non-negative")
        t = Task(name=name, node=node, cores=cores, duration=float(duration))
        if self._faults is not None:
            self._node_outstanding[node] += 1
            self._total_work += t.duration
        self._submit(t, deps)
        return t

    def transfer(
        self,
        name: str,
        src: int,
        dst: int,
        n_bytes: float,
        deps: Iterable[Task] = (),
    ) -> Task:
        """Create and submit a network transfer ``src → dst``.

        Same-node transfers are free (shared memory) but still act as DAG
        synchronization points.
        """
        self._check_node(src)
        self._check_node(dst)
        duration = 0.0 if src == dst else self.spec.link.transfer_time(n_bytes)
        t = Task(
            name=name, node=src, cores=0, duration=duration, dst=dst, n_bytes=float(n_bytes)
        )
        self._submit(t, deps)
        return t

    # -------------------------------------------------------------- running
    def run(self) -> Trace:
        """Execute all submitted tasks; returns the trace."""
        if self._faults is not None:
            for when, kind, node, payload in self._faults.timeline:
                heapq.heappush(
                    self._heap, (when, 0, next(self._seq), 0, (kind, node, payload))
                )
        while self._heap:
            time, priority, _seq, gen, payload = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            if priority == 0:
                self._apply_fault(payload)  # type: ignore[arg-type]
                if self._aborted:
                    break
                continue
            task: Task = payload  # type: ignore[assignment]
            if self._faults is not None and (gen != task._gen or task.done):
                continue  # stale entry: task was preempted or rescheduled
            if task._will_fail:
                self._task_failed(task)
                continue
            self._finish(task)
            if self._faults is not None and self._aborted:
                break  # an unroutable transfer aborted mid-finish
        if self._faults is not None:
            self._seal_fault_run()
        if self._pending and not (self._faults is not None and self._aborted):
            stuck = self._pending
            raise RuntimeError(
                f"deadlock: {stuck} task(s) never became runnable "
                "(dependency cycle or impossible resource demand)"
            )
        return self.trace

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    # ------------------------------------------------------------ internals
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.spec.n_nodes:
            raise ValueError(f"node index {node} out of range (cluster has {self.spec.n_nodes})")

    def _submit(self, task: Task, deps: Iterable[Task]) -> None:
        deps = list(deps)
        for d in deps:
            if not d.submitted:
                raise ValueError("dependency was not created by this simulator")
            if not d.done:
                d.dependents.append(task)
                task.deps_remaining += 1
        task.submitted = True
        task._seq = next(self._seq)
        self._pending += 1
        if task.deps_remaining == 0:
            self._make_ready(task)

    def _make_ready(self, task: Task) -> None:
        if self._faults is not None and not task.is_transfer:
            resolved = self._resolve(task.node)
            if resolved != task.node:
                if task.cores > 0:
                    self._node_outstanding[task.node] -= 1
                    self._node_outstanding[resolved] += 1
                    self.stats.n_redispatched += 1
                task.node = resolved
                task.cores = min(task.cores, self.spec.nodes[resolved].n_cores)
        if task.is_transfer:
            self._start_transfer(task)
        elif task.cores == 0:
            self._start(task)
        else:
            self._node_queues[task.node].append(task)
            self._drain_node(task.node)

    def _drain_node(self, node: int) -> None:
        if self._faults is not None and not self._node_up[node]:
            return
        queue = self._node_queues[node]
        # FIFO with head-of-line blocking: deterministic and conservative.
        while queue and queue[0].cores <= self._free_cores[node]:
            task = queue.popleft()
            self._free_cores[node] -= task.cores
            self._start(task)

    def _start(self, task: Task) -> None:
        if self._faults is None:
            task.start_time = self.now
            end = self.now + task.duration
            heapq.heappush(self._heap, (end, 1, task._seq, 0, task))
            return
        slow = self._slow[task.node]
        will_fail = (
            task.cores > 0
            and not task.synthetic
            and self._faults.task_fails(task.name, task.attempt)
        )
        task._will_fail = will_fail
        if will_fail:
            frac = self._faults.fail_fraction(task.name, task.attempt)
            task._target_work = task.work_done + (task.duration - task.work_done) * frac
        else:
            task._target_work = task.duration
        remaining = max(0.0, task._target_work - task.work_done) * slow
        task.start_time = self.now
        task._progress_t = self.now
        if task.cores > 0:
            self._running[task.node].add(task)
        heapq.heappush(self._heap, (self.now + remaining, 1, task._seq, task._gen, task))

    def _start_transfer(self, task: Task) -> None:
        assert task.dst is not None
        if self._faults is not None:
            src, dst = self._resolve(task.node), self._resolve(task.dst)
            task.node, task.dst = src, dst
        else:
            src, dst = task.node, task.dst
        key = (src, dst)
        free_at = self._link_free_at.get(key, 0.0)
        start = max(self.now, free_at)
        if self._faults is not None and src != dst:
            # Fixed point: a transfer can only start outside partition
            # windows with both endpoints up; each wait can enter the next
            # window, so iterate (bounded — plans are finite).
            for _ in range(64):
                at = start
                start = self._faults.clear_of_partition(start)
                start = max(
                    start,
                    self._faults.node_up_at(src, start),
                    self._faults.node_up_at(dst, start),
                )
                if start == at or start == _INF:
                    break
            if start == _INF:
                self._abort(
                    f"transfer {task.name!r} unroutable: endpoint down with no restart"
                )
                return
            duration = self._faults.transfer_time(task.n_bytes, start, self.spec.link)
        else:
            duration = task.duration if src != dst else 0.0
        task.start_time = start
        end = start + duration
        if src != dst:
            self._link_free_at[key] = end
        gen = task._gen if self._faults is not None else 0
        heapq.heappush(self._heap, (end, 1, task._seq, gen, task))

    def _finish(self, task: Task) -> None:
        task.end_time = self.now
        self._pending -= 1
        if task.is_transfer:
            assert task.dst is not None and task.start_time is not None
            self.trace.transfers.append(
                TransferSpan(
                    name=task.name,
                    src=task.node,
                    dst=task.dst,
                    n_bytes=task.n_bytes,
                    start=task.start_time,
                    end=self.now,
                )
            )
        else:
            assert task.start_time is not None
            if task.cores > 0:
                self._free_cores[task.node] += task.cores
                self.trace.tasks.append(
                    TaskSpan(
                        name=task.name,
                        node=task.node,
                        cores=task.cores,
                        start=task.start_time,
                        end=self.now,
                    )
                )
                if self._faults is not None:
                    self._running[task.node].discard(task)
                    if not task.synthetic:
                        self._node_outstanding[task.node] -= 1
                        self._done_work += task.duration
        for dependent in task.dependents:
            dependent.deps_remaining -= 1
            if dependent.deps_remaining == 0:
                self._make_ready(dependent)
        task.dependents.clear()
        if task.cores > 0 and not task.is_transfer:
            self._drain_node(task.node)

    # ------------------------------------------------------- fault handling
    @property
    def _aborted(self) -> bool:
        return self.stats is not None and self.stats.aborted

    @_aborted.setter
    def _aborted(self, value: bool) -> None:
        if self.stats is not None:
            self.stats.aborted = value

    def _resolve(self, node: int) -> int:
        seen = set()
        while node in self._remap and node not in seen:
            seen.add(node)
            node = self._remap[node]
        return node

    def _apply_fault(self, event: tuple[str, int, float]) -> None:
        kind, node, payload = event
        if kind == "node_down":
            self._crash_node(node)
        elif kind == "node_up":
            self._restart_node(node)
        elif kind == "slow_on":
            self._set_slowdown(node, payload)
        elif kind == "slow_off":
            self._set_slowdown(node, 1.0)

    def _crash_node(self, node: int) -> None:
        if not self._node_up[node]:
            return
        self._node_up[node] = False
        victims = sorted(self._running[node], key=lambda t: t._seq)
        for t in victims:
            lost = t.work_done + (self.now - t._progress_t) / self._slow[node]
            self.stats.work_lost_s += lost
            self.stats.n_killed += 1
            self.trace.tasks.append(
                TaskSpan(
                    name=t.name + " (killed)",
                    node=t.node,
                    cores=t.cores,
                    start=t.start_time or 0.0,
                    end=self.now,
                )
            )
            self._free_cores[node] += t.cores
            t.work_done = 0.0
            t._will_fail = False
            t._gen += 1
            t.start_time = None
        self._running[node].clear()
        if self._node_outstanding[node] <= 0:
            return  # the DAG never touches this node: no policy decision
        will_restart = self._faults.will_restart(node, self.now)
        up_nodes = frozenset(i for i, up in enumerate(self._node_up) if up)
        decision = self._recovery.on_crash(node, up_nodes, will_restart)
        queue = self._node_queues[node]
        if decision[0] == "abort":
            self._abort(
                f"node {node} crashed at t={self.now:.3f}s "
                f"(policy {self._recovery.name!r} gave up)"
            )
        elif decision[0] == "redispatch":
            target = int(decision[1])
            self._remap[node] = target
            moved = victims + list(queue)
            queue.clear()
            for t in moved:
                t.node = target
                t.cores = min(t.cores, self.spec.nodes[target].n_cores)
            self.stats.n_redispatched += len(moved)
            self._node_outstanding[target] += len(moved)
            self._node_outstanding[node] -= len(moved)
            if self._recovery.restore_s > 0.0:
                restore = Task(
                    name=f"restore[{node}->{target}]",
                    node=target,
                    cores=self.spec.nodes[target].n_cores,
                    duration=float(self._recovery.restore_s),
                    synthetic=True,
                )
                restore.submitted = True
                restore._seq = next(self._seq)
                self._pending += 1
                self._node_queues[target].appendleft(restore)
            self._node_queues[target].extend(moved)
            self._drain_node(target)
        else:  # wait for the scheduled restart
            for t in reversed(victims):
                queue.appendleft(t)

    def _restart_node(self, node: int) -> None:
        if self._node_up[node]:
            return
        self._node_up[node] = True
        self._remap.pop(node, None)
        if self._node_queues[node]:
            self.stats.n_restarts += 1
        self._drain_node(node)

    def _set_slowdown(self, node: int, factor: float) -> None:
        old = self._slow[node]
        if old == factor:
            return
        self._slow[node] = factor
        for t in sorted(self._running[node], key=lambda t: t._seq):
            t.work_done += (self.now - t._progress_t) / old
            t._progress_t = self.now
            t._gen += 1
            remaining = max(0.0, t._target_work - t.work_done) * factor
            heapq.heappush(self._heap, (self.now + remaining, 1, t._seq, t._gen, t))

    def _task_failed(self, task: Task) -> None:
        assert task.start_time is not None
        lost = task.work_done + (self.now - task._progress_t) / self._slow[task.node]
        self.stats.work_lost_s += lost
        self.stats.n_task_failures += 1
        self.trace.tasks.append(
            TaskSpan(
                name=task.name + " (failed)",
                node=task.node,
                cores=task.cores,
                start=task.start_time,
                end=self.now,
            )
        )
        self._fault_points.append(
            FaultSpan(
                kind="task_failure",
                label=f"{task.name} failed (attempt {task.attempt + 1})",
                node=task.node,
                start=self.now,
                end=self.now,
            )
        )
        self._free_cores[task.node] += task.cores
        self._running[task.node].discard(task)
        task.attempt += 1
        task.work_done = 0.0
        task._will_fail = False
        task._gen += 1
        task.start_time = None
        # retry in place, ahead of queued work (the scheduler notices the
        # failure immediately and relaunches)
        self._node_queues[task.node].appendleft(task)
        self._drain_node(task.node)

    def _abort(self, reason: str) -> None:
        st = self.stats
        st.aborted = True
        st.abort_time = self.now
        st.abort_reason = reason

    def _seal_fault_run(self) -> None:
        windows = [
            FaultSpan(kind=k, label=label, node=n, start=s, end=e)
            for k, label, n, s, e in self._faults.fault_spans(self.trace.makespan)
        ]
        self.trace.faults = sorted(
            windows + self._fault_points,
            key=lambda f: (f.start, f.end, f.kind, f.label),
        )
        st = self.stats
        if st.aborted:
            st.completed_fraction = (
                min(1.0, self._done_work / self._total_work) if self._total_work > 0 else 0.0
            )
        else:
            st.completed_fraction = 1.0
