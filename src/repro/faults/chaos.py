"""Real-process chaos: kill workers, partition links, corrupt frames.

The rest of :mod:`repro.faults` injects faults into the *virtual*
cluster; this module injects them into the real one. A
:class:`WorkerKiller` plugs into the campaign's progress callback and
``SIGKILL``\\ s a live worker process after a set number of committed
trials — the genuine article the simulated :class:`~repro.faults.plan.NodeCrash`
models. A :class:`ChaosPlan` declares *network* misbehaviour —
partitions, latency, bandwidth throttling, frame corruption — for
:class:`~repro.net.chaos.ChaosProxy` to execute between a real
coordinator and real workers, the genuine article the simulated
:class:`~repro.faults.plan.LinkDegradation` models. The distributed
layer must ride all of it out (rejoin grace, outbox redelivery,
quarantine, degradation policies) and the resulting table must
fingerprint identically to an undisturbed run; the chaos tests and the
CI ``distributed-smoke`` job assert exactly that.

Determinism note: triggering is tied to *counts* (committed trials for
the killer, relayed outcome frames for the proxy), never to elapsed
time, and corruption bytes come from seeded hash arithmetic, never an
RNG — this package is hashed into trial cache keys, and counts and
hashes are reproducible where clocks and RNG state are not.
"""

from __future__ import annotations

import hashlib
import os
import signal
from dataclasses import dataclass
from typing import Any, Callable

from .codec import PlanCodec, require_finite

__all__ = [
    "WorkerKiller",
    "ChaosPlan",
    "LinkPartition",
    "LinkLatency",
    "LinkThrottle",
    "FrameCorruption",
    "CHAOS_PLAN_FORMAT_VERSION",
]

CHAOS_PLAN_FORMAT_VERSION = 1


class WorkerKiller:
    """Kills one real worker process after ``after_trials`` commits.

    Parameters
    ----------
    victim:
        The pid to kill, or a zero-argument callable resolving to a pid
        at trigger time (``None`` from the callable skips the kill —
        e.g. the fleet already shrank). A callable lets tests target
        "whichever worker is currently connected".
    after_trials:
        Fire once the campaign has committed this many trials. The
        count-based trigger keeps chaos reproducible: the same campaign
        kills at the same point every run.
    sig:
        Signal to deliver; defaults to ``SIGKILL`` (no cleanup, no
        goodbye — the worker just vanishes, exactly like an OOM kill).

    Use as ``campaign.run(progress=killer.progress)``; ``killed`` holds
    the pids actually signalled.
    """

    def __init__(
        self,
        victim: int | Callable[[], int | None],
        after_trials: int = 2,
        sig: int = signal.SIGKILL,
    ) -> None:
        if after_trials < 1:
            raise ValueError("after_trials must be >= 1")
        self._victim = victim
        self.after_trials = int(after_trials)
        self.sig = int(sig)
        self.fired = False
        self.killed: list[int] = []

    def progress(self, trial: Any, n_done: int) -> None:
        """Campaign progress hook: fire once the count is reached."""
        if self.fired or n_done < self.after_trials:
            return
        self.fired = True
        pid = self._victim() if callable(self._victim) else self._victim
        if pid is None:
            return
        try:
            os.kill(int(pid), self.sig)
        except (ProcessLookupError, PermissionError):
            return  # already gone (or not ours): nothing left to chaos
        self.killed.append(int(pid))


# ---------------------------------------------------------------- chaos plan
@dataclass(frozen=True)
class LinkPartition:
    """Link ``link`` drops both directions after ``after_outcomes``.

    Triggers and heals on the proxy-global count of relayed ``outcome``
    frames — fleet progress, not wall clock — so the same plan partitions
    at the same point in every run. ``heal_after_outcomes`` more relayed
    outcomes (necessarily from *other* links) heal the partition;
    ``None`` never heals (the link stays dark until the proxy closes).
    """

    link: int
    after_outcomes: int = 0
    heal_after_outcomes: int | None = None

    def validate(self) -> None:
        if self.link < 0:
            raise ValueError(f"partition link must be >= 0, got {self.link}")
        if self.after_outcomes < 0:
            raise ValueError("after_outcomes must be >= 0")
        if self.heal_after_outcomes is not None and self.heal_after_outcomes < 1:
            raise ValueError("heal_after_outcomes must be >= 1 (or None)")


@dataclass(frozen=True)
class LinkLatency:
    """Every frame on ``link`` is delayed ``delay_s`` inside the window.

    ``link=-1`` applies to every link. The window opens after
    ``after_outcomes`` relayed outcomes and closes ``for_outcomes``
    relayed outcomes later (``None`` keeps it open forever).
    """

    delay_s: float
    link: int = -1
    after_outcomes: int = 0
    for_outcomes: int | None = None

    def validate(self) -> None:
        require_finite(self)
        if self.delay_s <= 0:
            raise ValueError(f"latency delay_s must be > 0, got {self.delay_s}")
        if self.link < -1:
            raise ValueError("latency link must be >= 0, or -1 for all links")
        if self.after_outcomes < 0:
            raise ValueError("after_outcomes must be >= 0")
        if self.for_outcomes is not None and self.for_outcomes < 1:
            raise ValueError("for_outcomes must be >= 1 (or None)")


@dataclass(frozen=True)
class LinkThrottle:
    """Bandwidth on ``link`` is capped at ``bytes_per_s`` in the window.

    Same link/window semantics as :class:`LinkLatency`. The proxy models
    the cap by sleeping ``len(frame) / bytes_per_s`` per relayed frame.
    """

    bytes_per_s: float
    link: int = -1
    after_outcomes: int = 0
    for_outcomes: int | None = None

    def validate(self) -> None:
        require_finite(self)
        if self.bytes_per_s <= 0:
            raise ValueError(
                f"throttle bytes_per_s must be > 0, got {self.bytes_per_s}"
            )
        if self.link < -1:
            raise ValueError("throttle link must be >= 0, or -1 for all links")
        if self.after_outcomes < 0:
            raise ValueError("after_outcomes must be >= 0")
        if self.for_outcomes is not None and self.for_outcomes < 1:
            raise ValueError("for_outcomes must be >= 1 (or None)")


@dataclass(frozen=True)
class FrameCorruption:
    """The ``frame_index``-th frame on ``link``/``direction`` is mangled.

    ``mode="truncate"`` forwards the length prefix plus half the body
    then kills the link (the receiver sees a mid-frame stall or EOF);
    ``mode="garbage"`` keeps the length honest but substitutes seeded
    garbage bytes (the receiver sees a JSON parse / HMAC failure). Both
    must surface as a reconnect + retry, never a hang or a wrong table.
    """

    link: int
    frame_index: int
    direction: str = "up"
    mode: str = "truncate"

    def validate(self) -> None:
        if self.link < 0:
            raise ValueError(f"corruption link must be >= 0, got {self.link}")
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        if self.direction not in ("up", "down"):
            raise ValueError(
                f"direction must be 'up' (worker->coordinator) or 'down', "
                f"got {self.direction!r}"
            )
        if self.mode not in ("truncate", "garbage"):
            raise ValueError(
                f"mode must be 'truncate' or 'garbage', got {self.mode!r}"
            )


@dataclass(frozen=True)
class ChaosPlan(PlanCodec):
    """A deterministic schedule of real-network chaos for the proxy.

    The same plan idiom as :class:`~repro.faults.plan.FaultPlan`:
    declarative frozen data, JSON round-trip, a stable ``plan_hash``,
    and count-based triggers so a plan replays identically. An empty
    plan is first-class — the proxy degenerates to a transparent relay
    and results are byte-identical to a direct connection.
    """

    KIND = "chaos plan"
    FORMAT_VERSION = CHAOS_PLAN_FORMAT_VERSION

    partitions: tuple[LinkPartition, ...] = ()
    latencies: tuple[LinkLatency, ...] = ()
    throttles: tuple[LinkThrottle, ...] = ()
    corruptions: tuple[FrameCorruption, ...] = ()
    seed: int = 0
    name: str = ""

    def validate(self) -> None:
        """Raise ``ValueError`` on an inconsistent plan."""
        super().validate()
        seen_links = [p.link for p in self.partitions]
        if len(seen_links) != len(set(seen_links)):
            raise ValueError("at most one partition per link")

    def garbage_bytes(self, n: int, *key: Any) -> bytes:
        """``n`` seeded pseudo-random bytes for a ``garbage`` corruption.

        Pure hash arithmetic over ``(seed, *key, counter)`` — the same
        plan corrupts a frame into the same bytes on every run and every
        platform, keeping "the campaign survives garbage" reproducible.
        """
        out = bytearray()
        counter = 0
        while len(out) < n:
            block = hashlib.sha256(
                "|".join(str(k) for k in (self.seed, *key, counter)).encode()
            ).digest()
            out.extend(block)
            counter += 1
        return bytes(out[:n])

    def describe(self) -> str:
        """Human-readable multi-line summary of the plan."""
        lines = [
            f"chaos plan {self.name or '(unnamed)'} — hash {self.plan_hash()}, "
            f"{self.n_events} event(s)"
        ]
        for p in sorted(self.partitions, key=lambda p: (p.after_outcomes, p.link)):
            heal = (
                "never heals"
                if p.heal_after_outcomes is None
                else f"heals after {p.heal_after_outcomes} more outcome(s)"
            )
            lines.append(
                f"  partition  link {p.link} after {p.after_outcomes} "
                f"outcome(s), {heal}"
            )
        for lat in sorted(self.latencies, key=lambda x: (x.after_outcomes, x.link)):
            where = "all links" if lat.link == -1 else f"link {lat.link}"
            lines.append(
                f"  latency    +{lat.delay_s * 1e3:.1f}ms per frame on {where}"
            )
        for th in sorted(self.throttles, key=lambda x: (x.after_outcomes, x.link)):
            where = "all links" if th.link == -1 else f"link {th.link}"
            lines.append(
                f"  throttle   {th.bytes_per_s:.0f} B/s on {where}"
            )
        for c in sorted(self.corruptions, key=lambda x: (x.link, x.frame_index)):
            lines.append(
                f"  corrupt    {c.mode} frame {c.frame_index} ({c.direction}) "
                f"on link {c.link}"
            )
        if self.is_empty:
            lines.append(
                "  (empty plan: the proxy is a transparent relay, results "
                "byte-identical to a direct connection)"
            )
        return "\n".join(lines)
