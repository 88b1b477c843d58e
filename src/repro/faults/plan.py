"""Deterministic fault plans: what breaks, when, and how badly.

A :class:`FaultPlan` is a declarative, seedable, JSON-serializable
schedule of infrastructure faults expressed against the *virtual* clock
of the cluster simulator — the same clock the Computation Time metric is
measured on. Because the plan is data (not callbacks) it crosses process
boundaries untouched, hashes stably into the campaign journal identity,
and replays bit-for-bit on every executor.

Four fault families cover the deployment taxonomy the robustness layer
models:

* :class:`NodeCrash` — a node dies at ``at`` and (optionally) returns
  ``restart_after`` virtual seconds later. Running tasks on the node are
  killed; the framework's recovery policy decides what happens next.
* :class:`Straggler` — a node computes ``factor``× slower inside a time
  window (thermal throttling, a noisy co-tenant, a failing fan).
* :class:`LinkDegradation` — inside a window the interconnect loses
  bandwidth (``bandwidth_factor``), gains latency (``extra_latency_s``)
  or partitions entirely (``partition=True``: no transfer may *start*
  inside the window; in-flight messages are assumed to be retransmitted
  and complete).
* :class:`TaskFailures` — probabilistic per-task crashes, decided by a
  seeded hash of ``(seed, task name, attempt)`` so the outcome is a pure
  function of the plan, independent of scheduling or executor.

Empty plans are first-class: ``FaultPlan().is_empty`` is ``True`` and the
whole fault path is skipped, guaranteeing byte-identical results to a
fault-free run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any

from .codec import PlanCodec, require_finite

__all__ = [
    "NodeCrash",
    "Straggler",
    "LinkDegradation",
    "TaskFailures",
    "FaultPlan",
    "PLAN_FORMAT_VERSION",
]

PLAN_FORMAT_VERSION = 1

_INF = float("inf")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies at virtual time ``at``.

    ``restart_after=None`` means the node never comes back.
    """

    node: int
    at: float
    restart_after: float | None = None

    @property
    def down_until(self) -> float:
        if self.restart_after is None:
            return _INF
        return self.at + self.restart_after

    def validate(self) -> None:
        require_finite(self)
        if self.node < 0:
            raise ValueError(f"crash node must be >= 0, got {self.node}")
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")
        if self.restart_after is not None and self.restart_after <= 0:
            raise ValueError("restart_after must be positive (or None for no restart)")


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` runs ``factor``× slower on ``[at, at + duration)``."""

    node: int
    at: float
    duration: float
    factor: float = 2.0

    def validate(self) -> None:
        require_finite(self)
        if self.node < 0:
            raise ValueError(f"straggler node must be >= 0, got {self.node}")
        if self.at < 0 or self.duration <= 0:
            raise ValueError("straggler window needs at >= 0 and duration > 0")
        if self.factor <= 1.0:
            raise ValueError(f"straggler factor must be > 1 (a slowdown), got {self.factor}")


@dataclass(frozen=True)
class LinkDegradation:
    """The interconnect degrades on ``[at, at + duration)``."""

    at: float
    duration: float
    #: multiply link bandwidth by this (1.0 = unchanged, 0.5 = half speed)
    bandwidth_factor: float = 1.0
    #: added to link latency for every message started in the window
    extra_latency_s: float = 0.0
    #: a transient partition: no transfer may start inside the window
    partition: bool = False

    def validate(self) -> None:
        require_finite(self)
        if self.at < 0 or self.duration <= 0:
            raise ValueError("link fault window needs at >= 0 and duration > 0")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError("bandwidth_factor must be in (0, 1]")
        if self.extra_latency_s < 0:
            raise ValueError("extra_latency_s must be >= 0")
        if (
            not self.partition
            and self.bandwidth_factor == 1.0
            and self.extra_latency_s == 0.0
        ):
            raise ValueError("link fault does nothing: degrade bandwidth/latency or partition")


@dataclass(frozen=True)
class TaskFailures:
    """Seeded probabilistic per-task crashes.

    Whether attempt ``k`` of task ``name`` fails is a pure hash of
    ``(seed, name, k)`` — no RNG state, no ordering dependence. A task
    stops failing after ``max_attempts - 1`` failed attempts, bounding
    the retry storm.
    """

    rate: float
    seed: int = 0
    #: substring filter on task names ("" matches every task)
    match: str = ""
    max_attempts: int = 3

    @property
    def n_events(self) -> int:
        """A zero rate schedules no failure, so it is no event."""
        return int(self.rate > 0.0)

    def validate(self) -> None:
        require_finite(self)
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"task failure rate must be in [0, 1), got {self.rate}")
        if self.max_attempts < 2:
            raise ValueError("max_attempts must be >= 2 (first retry must be possible)")


@dataclass(frozen=True)
class FaultPlan(PlanCodec):
    """A deterministic schedule of cluster faults in virtual time."""

    KIND = "fault plan"
    FORMAT_VERSION = PLAN_FORMAT_VERSION

    node_crashes: tuple[NodeCrash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    link_faults: tuple[LinkDegradation, ...] = ()
    task_failures: TaskFailures | None = None
    seed: int = 0
    name: str = ""

    def validate(self, n_nodes: int | None = None) -> None:
        """Raise ``ValueError`` on an inconsistent plan."""
        super().validate()
        if n_nodes is not None:
            for kind, events in (("crash", self.node_crashes), ("straggler", self.stragglers)):
                for event in events:
                    if event.node >= n_nodes:
                        raise ValueError(
                            f"{kind} targets node {event.node} but the cluster has "
                            f"{n_nodes} nodes"
                        )
        by_node: dict[int, list[NodeCrash]] = {}
        for crash in self.node_crashes:
            by_node.setdefault(crash.node, []).append(crash)
        for node, crashes in by_node.items():
            crashes = sorted(crashes, key=lambda c: c.at)
            for a, b in zip(crashes, crashes[1:], strict=False):
                if a.down_until >= b.at:
                    raise ValueError(
                        f"overlapping crash windows on node {node}: "
                        f"[{a.at}, {a.down_until}) and [{b.at}, {b.down_until})"
                    )

    # ------------------------------------------------------------ authoring
    @classmethod
    def sample(
        cls,
        seed: int = 0,
        n_nodes: int = 2,
        horizon_s: float = 1000.0,
        intensity: float = 1.0,
        name: str = "",
    ) -> "FaultPlan":
        """A seeded random-but-reproducible plan over ``horizon_s``.

        ``intensity`` sets how many events of each kind are drawn:
        ``max(1, round(intensity))`` crashes (with restart), straggler
        windows and link degradations. So:

        * every intensity below 1.5 gives the same events, one of each;
        * ``round`` goes half to even (2.5 draws two of each);
        * a crash that overlaps an earlier one on its node is dropped,
          so a plan can hold fewer crashes than were drawn;
        * no event grows harsher: each event's times and factors come
          from its own seeded hash, whatever the intensity;
        * only the task-failure rate scales, from 2.0 on, at
          ``min(0.2, 0.02 * intensity)``.

        The generator uses only hash arithmetic, so the same arguments
        always produce the same plan on every platform.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        for field_name, value in (("horizon_s", horizon_s), ("intensity", intensity)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field_name} must be a positive finite number, got {value!r}")

        def unit(*key: Any) -> float:
            digest = hashlib.sha256(
                ("|".join(str(k) for k in (seed, *key))).encode()
            ).digest()
            return int.from_bytes(digest[:8], "big") / 2**64

        n_crashes = max(1, int(round(intensity)))
        n_stragglers = max(1, int(round(intensity)))
        n_links = max(1, int(round(intensity)))

        crashes = []
        for i in range(n_crashes):
            node = int(unit("crash-node", i) * n_nodes)
            at = (0.15 + 0.6 * unit("crash-at", i)) * horizon_s
            restart = (0.05 + 0.15 * unit("crash-restart", i)) * horizon_s
            crashes.append(NodeCrash(node=node, at=at, restart_after=restart))
        # keep per-node windows disjoint (validate() requires it)
        crashes.sort(key=lambda c: (c.node, c.at))
        pruned: list[NodeCrash] = []
        for crash in crashes:
            if pruned and pruned[-1].node == crash.node and pruned[-1].down_until >= crash.at:
                continue
            pruned.append(crash)

        stragglers = tuple(
            Straggler(
                node=int(unit("slow-node", i) * n_nodes),
                at=(0.1 + 0.7 * unit("slow-at", i)) * horizon_s,
                duration=(0.05 + 0.2 * unit("slow-dur", i)) * horizon_s,
                factor=1.5 + 2.5 * unit("slow-factor", i),
            )
            for i in range(n_stragglers)
        )
        link_faults = tuple(
            LinkDegradation(
                at=(0.1 + 0.7 * unit("link-at", i)) * horizon_s,
                duration=(0.05 + 0.2 * unit("link-dur", i)) * horizon_s,
                bandwidth_factor=0.25 + 0.5 * unit("link-bw", i),
                extra_latency_s=1e-3 * unit("link-lat", i),
                partition=unit("link-part", i) < 0.25,
            )
            for i in range(n_links)
        )
        task_failures = None
        if intensity >= 2.0:
            task_failures = TaskFailures(
                rate=min(0.2, 0.02 * intensity), seed=seed, max_attempts=3
            )
        plan = cls(
            node_crashes=tuple(pruned),
            stragglers=stragglers,
            link_faults=link_faults,
            task_failures=task_failures,
            seed=seed,
            name=name or f"sampled(seed={seed}, intensity={intensity:g})",
        )
        plan.validate(n_nodes=n_nodes)
        return plan

    def describe(self) -> str:
        """Human-readable multi-line summary of the plan."""
        lines = [
            f"fault plan {self.name or '(unnamed)'} — hash {self.plan_hash()}, "
            f"{self.n_events} event(s)"
        ]
        for c in sorted(self.node_crashes, key=lambda c: (c.at, c.node)):
            restart = (
                "never restarts"
                if c.restart_after is None
                else f"restarts after {c.restart_after:.1f}s"
            )
            lines.append(f"  crash      node {c.node} at t={c.at:.1f}s, {restart}")
        for s in sorted(self.stragglers, key=lambda s: (s.at, s.node)):
            lines.append(
                f"  straggler  node {s.node} runs {s.factor:.2f}x slower on "
                f"[{s.at:.1f}s, {s.at + s.duration:.1f}s)"
            )
        for lf in sorted(self.link_faults, key=lambda lf: lf.at):
            what = (
                "partition"
                if lf.partition
                else f"bandwidth x{lf.bandwidth_factor:.2f}, "
                f"+{lf.extra_latency_s * 1e3:.2f}ms latency"
            )
            lines.append(
                f"  link       {what} on [{lf.at:.1f}s, {lf.at + lf.duration:.1f}s)"
            )
        if self.task_failures is not None and self.task_failures.rate > 0.0:
            tf = self.task_failures
            scope = f"tasks matching {tf.match!r}" if tf.match else "every task"
            lines.append(
                f"  failures   {tf.rate:.1%} of {scope} per attempt "
                f"(seed {tf.seed}, capped at {tf.max_attempts} attempts)"
            )
        if self.is_empty:
            lines.append("  (empty plan: fault path disabled, results byte-identical "
                         "to a fault-free run)")
        return "\n".join(lines)
