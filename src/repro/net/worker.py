"""The worker side of distributed execution: :class:`WorkerAgent`.

``repro worker --connect HOST:PORT`` runs one of these: dial the
coordinator, introduce yourself (protocol version + code tag + slot
count + a stable ``session_id``), then loop pulling tasks, executing
them with the very same :func:`~repro.exec.payload.execute_trial` every
other executor uses, and streaming outcomes back. A background thread
beats a heartbeat so the coordinator can tell "slow" from "dead".

Resilience discipline: the agent survives the network, not just the
trial. The initial dial retries ``connect_retries`` times with capped
exponential backoff (workers may legitimately start before their
coordinator); an *established* connection that drops triggers a bounded
reconnect loop that re-handshakes under the same ``session_id``, so the
coordinator recognizes the agent as a rejoin rather than a stranger.
Every outcome is kept in an outbox until the coordinator ``ack``s it —
outcomes finished while partitioned are redelivered on the next
connection, and the coordinator's attempt fencing deduplicates any the
old connection managed to deliver. Both retry loops are bounded with a
backoff cap (machine-enforced by lint rule RPR008).

Outcome discipline: every ``task`` frame with a usable ``seq`` produces
exactly one ``outcome`` frame — a trial past its ``timeout_s`` deadline
comes back as ``timeout`` (the runaway thread is abandoned, mirroring
:class:`~repro.exec.ThreadExecutor` semantics), and any worker-side
failure before an outcome exists (undecodable payload, cache I/O error)
comes back as ``crashed``. Both statuses are retryable, so the
campaign's :class:`~repro.exec.RetryPolicy` requeues them instead of
the coordinator waiting forever on a seq that will never report.

Cache-aware execution: when the coordinator attached a content address
(``TrialTask.cache_key``) and this worker was given a
:class:`~repro.exec.TrialCache` directory shared across hosts, a warm
trial is answered straight from the cache — no env steps run and
nothing heavy crosses the wire. Keys are content-addressed (config,
seed, space/fault-plan/code digests), so every host computes the same
address for the same work, and the worker reads and writes the very
record a :class:`~repro.core.Campaign` does: an entry either side
stored answers the other side's lookup.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
import uuid
from typing import Any, Callable

from ..exec.cache import TrialCache, code_version_tag
from ..exec.payload import TrialOutcome, execute_trial
from ..exec.retry import RetryPolicy
from .protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameStream,
    HandshakeRejected,
    ProtocolError,
    encode_payload,
    decode_payload,
)

__all__ = ["WorkerAgent"]

#: process exit codes the CLI maps onto
EXIT_OK = 0
EXIT_CONNECT_FAILED = 1
EXIT_REJECTED = 2


def _stderr_log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class WorkerAgent:
    """One worker process serving a coordinator.

    Parameters
    ----------
    host, port:
        The coordinator's listen address.
    name:
        Advertised identity (defaults to ``<hostname>-<pid>``); the
        coordinator may suffix it to keep names unique, and the final
        name labels this worker's telemetry lane.
    slots:
        Trials this agent runs concurrently. The default of 1 keeps a
        worker a pure unit of parallelism; >1 threads within the agent.
    cache:
        A :class:`~repro.exec.TrialCache` (or directory path) shared
        with the coordinator's, for answering warm trials locally.
    code_tag:
        Override of :func:`~repro.exec.cache.code_version_tag` (tests
        use it to provoke handshake rejection).
    secret:
        Shared secret for frame authentication; must match the
        coordinator's. With one set, every frame this agent sends is
        HMAC-signed, sequence-numbered and channel-bound, and every
        frame it receives must verify — required whenever the
        coordinator listens beyond loopback.
    connect_retries, connect_backoff:
        Extra *initial* dial attempts (default 0: fail fast, the PR-7
        behaviour) and the base backoff between them, doubling per
        attempt up to :class:`~repro.exec.RetryPolicy`'s cap — lets a
        worker start before its coordinator.
    reconnect_retries, reconnect_backoff:
        Bounded reconnect attempts after an *established* connection
        drops (default 5), with capped exponential backoff; 0 restores
        the PR-7 die-on-disconnect behaviour. The re-handshake reuses
        :attr:`session_id`, so the coordinator treats it as a rejoin.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str | None = None,
        slots: int = 1,
        cache: TrialCache | str | os.PathLike | None = None,
        code_tag: str | None = None,
        secret: str | None = None,
        connect_timeout: float = 10.0,
        idle_timeout: float = 0.5,
        connect_retries: int = 0,
        connect_backoff: float = 0.5,
        reconnect_retries: int = 5,
        reconnect_backoff: float = 0.25,
        log: Callable[[str], None] = _stderr_log,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.host = host
        self.port = int(port)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.slots = int(slots)
        if isinstance(cache, (str, os.PathLike)):
            cache = TrialCache(cache, code_tag=code_tag)
        self.cache = cache
        self.code_tag = code_tag if code_tag is not None else code_version_tag()
        self.secret = secret
        self.connect_timeout = float(connect_timeout)
        self.idle_timeout = float(idle_timeout)
        self.connect_retries = max(0, int(connect_retries))
        self.connect_backoff = float(connect_backoff)
        self.reconnect_retries = max(0, int(reconnect_retries))
        self.reconnect_backoff = float(reconnect_backoff)
        self.log = log
        self.n_executed = 0
        self.n_cache_hits = 0
        self.n_reconnects = 0
        #: stable for the life of this process: a reconnect under the
        #: same session_id is a *rejoin*, a restarted process is not
        self.session_id = uuid.uuid4().hex
        self._stream: FrameStream | None = None
        self._state_lock = threading.Lock()
        self._executing: set[int] = set()
        self._outbox: dict[tuple[int, int], dict[str, Any]] = {}
        self._clean_disconnect = True

    # ------------------------------------------------------------- running
    def run(self) -> int:
        """Serve until the coordinator says shutdown; returns exit code."""
        policy = RetryPolicy(
            max_retries=self.connect_retries, backoff_s=self.connect_backoff
        )
        try:
            dialed = self._dial(self.connect_retries, policy)
        except HandshakeRejected as exc:
            self.log(f"worker: rejected by coordinator: {exc}")
            return EXIT_REJECTED
        if dialed is None:
            return EXIT_CONNECT_FAILED
        stream, interval = dialed
        self.log(
            f"worker {self.name!r}: connected to {self.host}:{self.port} "
            f"({self.slots} slot{'s' if self.slots != 1 else ''})"
        )
        while True:
            code = self._serve_session(stream, interval)
            if code is not None:
                return code
            dialed = self._redial()
            if dialed is None:
                self.log(f"worker {self.name!r}: could not reconnect; exiting")
                return EXIT_OK if self._clean_disconnect else EXIT_CONNECT_FAILED
            stream, interval = dialed
            self.n_reconnects += 1
            self.log(
                f"worker {self.name!r}: reconnected to "
                f"{self.host}:{self.port} (rejoin "
                f"#{self.n_reconnects}, session {self.session_id[:8]})"
            )

    # ---------------------------------------------------------- connecting
    def _dial(
        self, retries: int, policy: RetryPolicy
    ) -> tuple[FrameStream, float] | None:
        """Bounded dial + handshake; ``None`` when every attempt failed.

        :class:`HandshakeRejected` propagates — being refused is a
        decision, not a blip, and retrying would spam the coordinator.
        """
        attempts = max(0, int(retries)) + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(policy.delay(attempt - 1))
            sock: socket.socket | None = None
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                stream = FrameStream(sock, secret=self.secret)
                interval = self._handshake(stream)
                return stream, interval
            except HandshakeRejected:
                if sock is not None:
                    sock.close()
                raise
            except (ProtocolError, OSError) as exc:
                if sock is not None:
                    sock.close()
                self.log(
                    f"worker: cannot reach {self.host}:{self.port} "
                    f"(attempt {attempt + 1}/{attempts}: {exc})"
                )
        return None

    def _redial(self) -> tuple[FrameStream, float] | None:
        """Bounded reconnect after an established connection dropped."""
        if self.reconnect_retries < 1:
            return None
        policy = RetryPolicy(
            max_retries=self.reconnect_retries,
            backoff_s=self.reconnect_backoff,
            max_backoff_s=2.0,
        )
        try:
            # _dial counts "retries" on top of a first attempt, so the
            # total attempt budget here is exactly reconnect_retries
            return self._dial(self.reconnect_retries - 1, policy)
        except HandshakeRejected as exc:
            self.log(f"worker {self.name!r}: rejected on rejoin: {exc}")
            return None

    def _handshake(self, stream: FrameStream) -> float:
        """Hello/welcome exchange; returns the heartbeat interval."""
        with self._state_lock:
            inflight = sorted(
                self._executing | {seq for seq, _ in self._outbox}
            )
        stream.send(
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "code_tag": self.code_tag,
                "name": self.name,
                "slots": self.slots,
                "pid": os.getpid(),
                "session": self.session_id,
                "inflight": inflight,
            }
        )
        reply = stream.recv(timeout=self.connect_timeout)
        if reply is None:
            raise ProtocolError("coordinator did not answer the hello")
        if reply.get("type") == "reject":
            raise HandshakeRejected(str(reply.get("reason", "unspecified")))
        if reply.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {reply.get('type')!r}")
        self.name = str(reply.get("name", self.name))
        stream.bind(str(reply.get("chan", "")))
        return max(0.05, float(reply.get("heartbeat_interval", 2.0)))

    # -------------------------------------------------------------- serving
    def _serve_session(
        self, stream: FrameStream, interval: float
    ) -> int | None:
        """One established connection's lifetime.

        Returns an exit code when the agent should stop (shutdown
        frame), or ``None`` when the connection dropped and a reconnect
        should be attempted.
        """
        with self._state_lock:
            self._stream = stream
            backlog = [self._outbox[key] for key in sorted(self._outbox)]
        stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(stream, interval, stop),
            name="worker-heartbeat",
            daemon=True,
        )
        beater.start()
        try:
            for frame in backlog:
                # outcomes finished while disconnected: redeliver first,
                # the coordinator deduplicates and acks
                try:
                    stream.send(frame)
                except (OSError, ProtocolError) as exc:
                    self.log(
                        f"worker {self.name!r}: redelivery failed: {exc}"
                    )
                    self._clean_disconnect = False
                    return None
            return self._serve_loop(stream)
        finally:
            stop.set()
            beater.join(timeout=2.0)
            stream.close()

    def _heartbeat_loop(
        self, stream: FrameStream, interval: float, stop: threading.Event
    ) -> None:
        while not stop.wait(interval):
            try:
                stream.send({"type": "heartbeat", "name": self.name})
            except (OSError, ProtocolError):
                return  # the serve loop will notice the dead socket too

    def _serve_loop(self, stream: FrameStream) -> int | None:
        pool: list[threading.Thread] = []
        while True:
            try:
                frame = stream.recv(timeout=self.idle_timeout)
            except ConnectionClosed:
                self.log(f"worker {self.name!r}: coordinator went away")
                self._clean_disconnect = True
                return None
            except (ProtocolError, OSError) as exc:
                self.log(f"worker {self.name!r}: protocol error: {exc}")
                self._clean_disconnect = False
                return None
            if frame is None:
                pool = [t for t in pool if t.is_alive()]
                continue
            kind = frame.get("type")
            if kind == "shutdown":
                self.log(
                    f"worker {self.name!r}: shutting down "
                    f"({self.n_executed} executed, {self.n_cache_hits} cache hits)"
                )
                for thread in pool:
                    thread.join(timeout=5.0)
                return EXIT_OK
            if kind == "ack":
                seq = frame.get("seq")
                attempt = frame.get("attempt")
                with self._state_lock:
                    self._outbox.pop((seq, attempt), None)
                continue
            if kind != "task":
                continue  # forward compatibility: ignore unknown frames
            if self.slots == 1:
                self._run_task(frame)
            else:
                thread = threading.Thread(
                    target=self._run_task,
                    args=(frame,),
                    name=f"worker-slot-{len(pool)}",
                    daemon=True,
                )
                thread.start()
                pool.append(thread)

    # ------------------------------------------------------------ executing
    def _run_task(self, frame: dict[str, Any]) -> None:
        """Evaluate one task frame and always report exactly one outcome.

        The coordinator tracks this seq in its assignment table until an
        outcome arrives (or the worker dies), so swallowing a failure
        here would park the trial forever: anything that prevents a real
        outcome is synthesized into a ``crashed`` one instead. The
        outcome stays in the outbox until acked, so a connection that
        dies mid-report redelivers it on the next session.
        """
        seq = frame.get("seq")
        if not isinstance(seq, int):
            # only a corrupt/hostile coordinator sends this; there is no
            # assignment entry we could unblock by answering
            self.log(f"worker {self.name!r}: task frame without a seq; dropped")
            return
        attempt = frame.get("attempt")
        attempt = attempt if isinstance(attempt, int) else 0
        with self._state_lock:
            self._executing.add(seq)
        try:
            outcome = self._evaluate(frame)
        except Exception as exc:  # noqa: BLE001 - unpickle/cache/any failure
            self.log(f"worker {self.name!r}: task {seq} failed out-of-band: {exc!r}")
            outcome = TrialOutcome(
                seq=seq,
                trial_id=None,
                attempt=attempt,
                status="crashed",
                error=(
                    f"worker {self.name!r} could not produce an outcome: {exc!r}"
                ),
                worker=self.name,
            )
        report = {
            "type": "outcome",
            "seq": outcome.seq,
            "attempt": outcome.attempt,
            "payload": encode_payload(outcome),
        }
        with self._state_lock:
            # outbox before executing-set removal: the seq is always in
            # at least one of them, so a rejoin hello never omits it
            self._outbox[(outcome.seq, outcome.attempt)] = report
            self._executing.discard(seq)
            stream = self._stream
        try:
            if stream is not None:
                stream.send(report)
        except (OSError, ProtocolError) as exc:
            self.log(
                f"worker {self.name!r}: could not report outcome "
                f"(kept for redelivery): {exc}"
            )

    def _evaluate(self, frame: dict[str, Any]) -> TrialOutcome:
        """Decode, run (cache-aware, deadline-aware) and store one task."""
        task = decode_payload(frame["payload"])
        outcome = self._cached_outcome(task)
        if outcome is None:
            outcome = self._execute(task)
            outcome.worker = self.name
            with self._state_lock:  # racing runner slots bump this too
                self.n_executed += 1
            key = getattr(task, "cache_key", None)
            if key and self.cache is not None:
                try:
                    self.cache.store(key, outcome, task.config, task.seed)
                except OSError as exc:
                    # a full/broken cache disk must not lose the trial
                    self.log(f"worker {self.name!r}: cache store failed: {exc}")
        return outcome

    def _execute(self, task: Any) -> TrialOutcome:
        """Run one trial, enforcing ``task.timeout_s`` when set.

        Same deadline semantics as :class:`~repro.exec.ThreadExecutor`:
        a thread cannot be killed, so an overrunning trial is reported
        as ``timeout`` and *abandoned* — the runaway daemon thread
        finishes on its own and its late result is discarded.
        """
        timeout_s = getattr(task, "timeout_s", None)
        if timeout_s is None:
            return execute_trial(task)
        holder: list[TrialOutcome] = []
        runner = threading.Thread(
            target=lambda: holder.append(execute_trial(task)),
            name=f"trial-{task.seq}",
            daemon=True,
        )
        runner.start()
        runner.join(float(timeout_s))
        if holder:
            return holder[0]
        self.log(
            f"worker {self.name!r}: trial seq {task.seq} exceeded its "
            f"{timeout_s}s deadline; abandoning it"
        )
        return TrialOutcome(
            seq=task.seq,
            trial_id=task.config.trial_id,
            attempt=task.attempt,
            status="timeout",
            duration_s=float(timeout_s),
            error=f"trial exceeded timeout of {timeout_s}s on worker {self.name!r}",
            worker=self.name,
        )

    def _cached_outcome(self, task: Any) -> TrialOutcome | None:
        """A warm outcome from the shared trial cache, if available."""
        key = getattr(task, "cache_key", None)
        if not key or self.cache is None:
            return None
        hit = self.cache.lookup(key, task.config, task.seed)
        if hit is None:
            return None
        measurements, checkpoints, duration_s = hit
        with self._state_lock:  # racing runner slots bump this too
            self.n_cache_hits += 1
        return TrialOutcome(
            seq=task.seq,
            trial_id=task.config.trial_id,
            attempt=task.attempt,
            status="completed",
            measurements=measurements,
            duration_s=duration_s,
            checkpoints=checkpoints,
            clock_offset=time.time() - time.perf_counter(),
            worker=self.name,
        )
