"""Tests for distributed execution (repro.net).

Covers the wire protocol (framing, timeouts, corruption), the handshake
guards (protocol version, code-version tag, duplicate names), the
determinism matrix extension (a remote campaign fingerprints identically
to serial/thread/process), failure handling (silent workers reaped,
kill -9 mid-campaign recovered through the retry policy, resume under a
different topology warned about) and the trial-cache record workers and
campaigns share.
"""

from __future__ import annotations

import base64
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.core import (
    Campaign,
    Categorical,
    Configuration,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
)
from repro.core.serialization import table_fingerprint
from repro.exec import (
    CampaignJournal,
    ProcessExecutor,
    RetryPolicy,
    TrialCache,
    TrialOutcome,
    TrialTask,
)
from repro.exec import cache as cache_module
from repro.faults import WorkerKiller
from repro.net import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    AuthenticationError,
    ConnectionClosed,
    FrameStream,
    ProtocolError,
    RemoteExecutor,
    WorkerAgent,
    decode_payload,
    encode_payload,
    recv_frame,
    send_frame,
)
from repro.net.worker import EXIT_CONNECT_FAILED, EXIT_OK, EXIT_REJECTED
from repro.obs import EVT_WORKER_JOINED, EVT_WORKER_LOST, RingBufferSink, Telemetry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def _silent(message: str) -> None:
    pass


# --------------------------------------------------------------- fixtures
# module-level so they pickle for out-of-process workers
class RemoteCaseStudy:
    """quality/cost follow the config; deterministic and cacheable."""

    def __init__(self, sleep_s=0.0):
        self.sleep_s = sleep_s

    def evaluate(self, config, seed, progress=None):
        if self.sleep_s:
            time.sleep(self.sleep_s)
        return {
            "reward": float(config["quality"]) + seed * 0.001,
            "time": float(config["cost"]),
        }

    def cache_key(self):
        return "remote-case-study-v1"


def space():
    return ParameterSpace(
        [Categorical("quality", [1, 2, 3, 4]), Categorical("cost", [10, 20])]
    )


def metrics():
    return MetricSet(
        [Metric(name="reward", direction="max"), Metric(name="time", direction="min")]
    )


def campaign(study=None, **kwargs):
    return Campaign(
        study if study is not None else RemoteCaseStudy(),
        space(),
        GridSearch(space()),
        metrics(),
        seed_strategy="increment",
        **kwargs,
    )


def run_remote_campaign(
    n_workers=2, max_workers=None, worker_kwargs=None, study=None,
    secret=None, **campaign_kwargs
):
    """One campaign against a fresh loopback fleet of in-process agents."""
    executor = RemoteExecutor(
        max_workers=max_workers or n_workers, heartbeat_timeout=10.0,
        secret=secret,
    )
    host, port = executor.address
    agents = [
        WorkerAgent(host, port, name=f"w{i}", log=_silent, secret=secret,
                    **(worker_kwargs or {}))
        for i in range(n_workers)
    ]
    threads = [
        threading.Thread(target=agent.run, daemon=True) for agent in agents
    ]
    for thread in threads:
        thread.start()
    try:
        executor.wait_for_workers(n_workers, timeout=30.0)
        report = campaign(study, executor=executor, **campaign_kwargs).run()
    finally:
        executor.shutdown()
        for thread in threads:
            thread.join(timeout=10.0)
    return report, agents


def spawn_worker_process(host, port, extra_args=()):
    """A real ``repro worker`` subprocess pointed at the coordinator."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        # tests dir too: the pickled case study lives in this module
        [SRC_DIR, TESTS_DIR, env.get("PYTHONPATH", "")]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", f"{host}:{port}", "--no-cache", *extra_args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


# ---------------------------------------------------------------- protocol
class TestProtocol:
    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_frame_round_trip(self):
        a, b = self.pair()
        try:
            send_frame(a, {"type": "hello", "slots": 2, "name": "w"})
            frame = recv_frame(b, timeout=5.0)
            assert frame == {"type": "hello", "slots": 2, "name": "w"}
        finally:
            a.close()
            b.close()

    def test_idle_timeout_between_frames_returns_none(self):
        a, b = self.pair()
        try:
            assert recv_frame(b, timeout=0.05) is None
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_closed(self):
        a, b = self.pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b, timeout=1.0)
        finally:
            b.close()

    def test_mid_frame_stall_is_a_protocol_error(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", 64) + b'{"type":')  # announce 64, send 8
            with pytest.raises(ProtocolError, match="stalled mid-frame"):
                recv_frame(b, timeout=0.1)
        finally:
            a.close()
            b.close()

    def test_oversize_announcement_is_rejected_without_allocating(self):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="corrupt"):
                recv_frame(b, timeout=1.0)
        finally:
            a.close()
            b.close()

    def test_oversize_send_is_refused_locally(self):
        a, b = self.pair()
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                send_frame(a, {"type": "task", "payload": "x" * (MAX_FRAME_BYTES + 1)})
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("body", [b"not json at all", b"[1, 2, 3]", b'"str"'])
    def test_garbage_bodies_are_protocol_errors(self, body):
        a, b = self.pair()
        try:
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError):
                recv_frame(b, timeout=1.0)
        finally:
            a.close()
            b.close()

    def test_partial_length_prefix_timeout_is_a_protocol_error(self):
        # returning None after consuming 1-3 prefix bytes would silently
        # desynchronize the stream; it must surface as a protocol error
        a, b = self.pair()
        try:
            a.sendall(b"\x00\x00")  # 2 of the 4 length-prefix bytes
            with pytest.raises(ProtocolError, match="length-prefix"):
                recv_frame(b, timeout=0.1)
        finally:
            a.close()
            b.close()

    def test_send_frame_arms_its_own_write_timeout(self):
        from repro.net.protocol import SEND_TIMEOUT

        a, b = self.pair()
        try:
            b.settimeout(0.001)  # a reader left a near-zero timeout behind
            send_frame(b, {"type": "heartbeat"})
            # the write deadline was re-armed, not inherited from the reader
            assert b.gettimeout() == SEND_TIMEOUT
            assert recv_frame(a, timeout=5.0) == {"type": "heartbeat"}
        finally:
            a.close()
            b.close()

    def test_payload_round_trips_arbitrary_objects(self):
        task = TrialTask(
            seq=3,
            config=Configuration({"quality": 2, "cost": 10}, trial_id=4),
            seed=7,
            case_study=RemoteCaseStudy(),
        )
        clone = decode_payload(encode_payload(task))
        assert clone.seq == 3 and clone.seed == 7
        assert clone.config.as_dict() == {"quality": 2, "cost": 10}


# --------------------------------------------------------------- handshake
class TestHandshake:
    def test_code_tag_skew_is_rejected_with_exit_code(self):
        executor = RemoteExecutor(max_workers=1)
        host, port = executor.address
        try:
            agent = WorkerAgent(host, port, code_tag="deadbeefcafe", log=_silent)
            assert agent.run() == EXIT_REJECTED
            assert executor.n_workers == 0
        finally:
            executor.shutdown()

    def test_protocol_version_skew_is_rejected(self):
        executor = RemoteExecutor(max_workers=1)
        host, port = executor.address
        sock = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(sock, {
                "type": "hello", "version": PROTOCOL_VERSION + 1,
                "code_tag": executor.code_tag, "name": "old", "slots": 1,
            })
            reply = recv_frame(sock, timeout=5.0)
            assert reply["type"] == "reject"
            assert "protocol version" in reply["reason"]
        finally:
            sock.close()
            executor.shutdown()

    def test_unreachable_coordinator_exits_connect_failed(self):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        agent = WorkerAgent("127.0.0.1", port, connect_timeout=2.0, log=_silent)
        assert agent.run() == EXIT_CONNECT_FAILED

    def test_duplicate_worker_names_are_uniquified(self):
        executor = RemoteExecutor(max_workers=2)
        host, port = executor.address
        agents = [
            WorkerAgent(host, port, name="twin", log=_silent) for _ in range(2)
        ]
        threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
        for thread in threads:
            thread.start()
        try:
            executor.wait_for_workers(2, timeout=10.0)
            with executor._lock:
                names = set(executor._workers)
        finally:
            executor.shutdown()
            for thread in threads:
                thread.join(timeout=10.0)
        assert "twin" in names and len(names) == 2
        suffixed = (names - {"twin"}).pop()
        assert suffixed.startswith("twin#")
        # each agent adopted the name the coordinator assigned it
        assert {agent.name for agent in agents} == names

    def test_wait_for_workers_times_out(self):
        executor = RemoteExecutor(max_workers=1)
        try:
            with pytest.raises(TimeoutError, match="0/1 workers"):
                executor.wait_for_workers(1, timeout=0.2)
        finally:
            executor.shutdown()

    def test_submit_after_shutdown_is_an_error(self):
        executor = RemoteExecutor(max_workers=1)
        executor.shutdown()
        task = TrialTask(
            seq=0,
            config=Configuration({"quality": 1, "cost": 10}, trial_id=1),
            seed=0,
            case_study=RemoteCaseStudy(),
        )
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(task)


# ----------------------------------------------------------- authentication
class TestAuthentication:
    """Pickled payloads must never be decoded for unauthenticated peers."""

    def pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_signed_frame_round_trips_and_strips_auth(self):
        a, b = self.pair()
        try:
            send_frame(a, {"type": "task", "seq": 1}, secret="hunter2")
            frame = recv_frame(b, timeout=5.0, secret="hunter2")
            assert frame == {"type": "task", "seq": 1}
        finally:
            a.close()
            b.close()

    def test_unsigned_frame_is_refused_when_secret_required(self):
        a, b = self.pair()
        try:
            send_frame(a, {"type": "outcome", "payload": "gadget"})
            with pytest.raises(AuthenticationError):
                recv_frame(b, timeout=5.0, secret="hunter2")
        finally:
            a.close()
            b.close()

    def test_wrong_secret_and_tampering_are_refused(self):
        a, b = self.pair()
        try:
            send_frame(a, {"type": "task", "seq": 1}, secret="other")
            with pytest.raises(AuthenticationError):
                recv_frame(b, timeout=5.0, secret="hunter2")
            # a valid MAC over different content must not verify either
            send_frame(a, {"type": "task", "seq": 1, "auth": "f" * 64})
            with pytest.raises(AuthenticationError):
                recv_frame(b, timeout=5.0, secret="hunter2")
        finally:
            a.close()
            b.close()

    def test_handshake_with_matching_secret_runs_a_full_campaign(self):
        report, agents = run_remote_campaign(n_workers=2, secret="s3cret")
        assert report.meta["n_completed"] == 8
        assert sum(a.n_executed for a in agents) == 8

    def test_worker_without_the_secret_is_rejected(self):
        executor = RemoteExecutor(max_workers=1, secret="s3cret")
        host, port = executor.address
        try:
            # no secret at all: the coordinator explains the rejection
            agent = WorkerAgent(host, port, log=_silent)
            assert agent.run() == EXIT_REJECTED
            # wrong secret: the reject frame fails *our* verification,
            # which is still a refusal, never a connected worker
            agent = WorkerAgent(host, port, secret="wr0ng", log=_silent)
            assert agent.run() in (EXIT_REJECTED, EXIT_CONNECT_FAILED)
            assert executor.n_workers == 0
        finally:
            executor.shutdown()

    def test_non_loopback_listen_without_secret_warns(self):
        with pytest.warns(UserWarning, match="secret"):
            executor = RemoteExecutor(max_workers=1, host="0.0.0.0")
        executor.shutdown()

    def test_loopback_listen_without_secret_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor = RemoteExecutor(max_workers=1)
        executor.shutdown()
        assert not [w for w in caught if "secret" in str(w.message)]


# ------------------------------------------------------ determinism matrix
class TestRemoteDeterminism:
    """The network must be invisible to the results table."""

    def fingerprint(self, executor, **kwargs):
        report = campaign(executor=executor, max_workers=3, **kwargs).run()
        assert report.meta["n_completed"] == 8
        return table_fingerprint(report.table)

    def test_remote_matches_every_other_backend(self):
        reference = self.fingerprint(None)
        assert self.fingerprint("thread") == reference
        assert self.fingerprint(ProcessExecutor(3, mp_context="fork")) == reference
        report, agents = run_remote_campaign(n_workers=2)
        assert report.meta["n_completed"] == 8
        assert report.meta["executor"] == "remote"
        assert table_fingerprint(report.table) == reference
        # work-stealing: both workers executed, everything ran exactly once
        assert sum(a.n_executed for a in agents) == 8

    def test_multi_slot_worker_matches_serial(self):
        reference = self.fingerprint(None)
        report, agents = run_remote_campaign(
            n_workers=1, max_workers=2, worker_kwargs={"slots": 2}
        )
        assert table_fingerprint(report.table) == reference
        assert agents[0].n_executed == 8


# ------------------------------------------------------------ failure paths
class TestWorkerLoss:
    def zombie_connect(self, executor):
        """A peer that handshakes correctly, then never speaks again."""
        host, port = executor.address
        sock = socket.create_connection((host, port), timeout=5.0)
        send_frame(sock, {
            "type": "hello", "version": PROTOCOL_VERSION,
            "code_tag": executor.code_tag, "name": "zombie", "slots": 1,
        })
        welcome = recv_frame(sock, timeout=5.0)
        assert welcome["type"] == "welcome"
        return sock

    def test_silent_worker_is_reaped_and_trial_comes_back_crashed(self):
        executor = RemoteExecutor(max_workers=1, heartbeat_timeout=0.6)
        # submitted first, so the trial is dispatched as the zombie
        # registers, before its heartbeat can lapse
        executor.submit(TrialTask(
            seq=0,
            config=Configuration({"quality": 1, "cost": 10}, trial_id=1),
            seed=0,
            case_study=RemoteCaseStudy(),
        ))
        sock = self.zombie_connect(executor)
        try:
            outcomes = []
            deadline = time.monotonic() + 10.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert len(outcomes) == 1
            outcome = outcomes[0]
            assert outcome.status == "crashed"
            assert outcome.retryable
            assert "zombie" in outcome.error
            assert executor.n_workers == 0
        finally:
            sock.close()
            executor.shutdown()

    def test_worker_loss_emits_fleet_telemetry(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        executor = RemoteExecutor(
            max_workers=1, heartbeat_timeout=0.6, telemetry=telem
        )
        # the welcome follows registration; the zombie may be reaped already
        sock = self.zombie_connect(executor)
        try:
            deadline = time.monotonic() + 10.0
            while executor.n_workers and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            sock.close()
            executor.shutdown()
        joined = sink.events(EVT_WORKER_JOINED)
        lost = sink.events(EVT_WORKER_LOST)
        assert len(joined) == 1 and joined[0]["fields"]["worker"] == "zombie"
        assert len(lost) == 1 and "heartbeat" in lost[0]["fields"]["reason"]
        assert telem.meters.snapshot()["counters"]["net/worker_deaths"] == 1

    def test_coordinator_disappearing_ends_the_worker_cleanly(self):
        executor = RemoteExecutor(max_workers=1)
        host, port = executor.address
        agent = WorkerAgent(host, port, log=_silent)
        result = []
        thread = threading.Thread(
            target=lambda: result.append(agent.run()), daemon=True
        )
        thread.start()
        executor.wait_for_workers(1, timeout=10.0)
        executor.shutdown()
        thread.join(timeout=10.0)
        assert result == [EXIT_OK]


class HangOnceCaseStudy:
    """Hangs far past any deadline on the first attempt of each trial.

    State lives on disk (a marker file per trial/seed), because the task
    pickle gives every worker a fresh copy of this object.
    """

    def __init__(self, marker_dir, hang_s=30.0):
        self.marker_dir = str(marker_dir)
        self.hang_s = hang_s

    def evaluate(self, config, seed, progress=None):
        marker = os.path.join(self.marker_dir, f"{config.trial_id}-{seed}")
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            time.sleep(self.hang_s)
        except FileExistsError:
            pass  # a retry: answer instantly
        return {
            "reward": float(config["quality"]) + seed * 0.001,
            "time": float(config["cost"]),
        }

    def cache_key(self):
        return "hang-once-case-study-v1"


class TestWorkerRobustness:
    """Every task frame with a seq produces exactly one outcome frame."""

    def drive(self, frame, **agent_kwargs):
        """Feed one task frame to ``_run_task``; return the outcome."""
        agent = WorkerAgent("127.0.0.1", 1, name="unit", log=_silent, **agent_kwargs)
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        try:
            agent._stream = FrameStream(a)
            agent._run_task(frame)
            reply = recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()
        assert reply["type"] == "outcome"
        return decode_payload(reply["payload"])

    def task_frame(self, case_study=None, **task_kwargs):
        task = TrialTask(
            seq=5,
            config=Configuration({"quality": 1, "cost": 10}, trial_id=3),
            seed=0,
            case_study=case_study or RemoteCaseStudy(),
            **task_kwargs,
        )
        return {
            "type": "task",
            "seq": task.seq,
            "attempt": task.attempt,
            "payload": encode_payload(task),
        }

    def test_trial_deadline_overrun_reports_timeout(self):
        frame = self.task_frame(
            case_study=RemoteCaseStudy(sleep_s=30.0), timeout_s=0.2
        )
        outcome = self.drive(frame)
        assert outcome.status == "timeout"
        assert outcome.retryable
        assert outcome.seq == 5 and outcome.trial_id == 3
        assert "0.2" in outcome.error and "unit" in outcome.error

    def test_fast_trial_under_a_deadline_completes(self):
        outcome = self.drive(self.task_frame(timeout_s=30.0))
        assert outcome.status == "completed"
        assert outcome.measurements == {"reward": 1.0, "time": 10.0}

    def test_undecodable_payload_synthesizes_a_crashed_outcome(self):
        frame = {
            "type": "task",
            "seq": 7,
            "attempt": 1,
            "payload": base64.b64encode(b"not a pickle").decode("ascii"),
        }
        outcome = self.drive(frame)
        assert outcome.status == "crashed"
        assert outcome.retryable
        assert outcome.seq == 7 and outcome.attempt == 1
        assert "could not produce an outcome" in outcome.error

    def test_cache_store_failure_does_not_lose_the_outcome(self, tmp_path):
        cache = TrialCache(tmp_path)

        def boom(*args, **kwargs):
            raise OSError("disk full")

        cache.store = boom
        frame = self.task_frame(cache_key="b" * 32)
        outcome = self.drive(frame, cache=cache)
        assert outcome.status == "completed"
        assert outcome.measurements == {"reward": 1.0, "time": 10.0}

    def test_frame_without_a_seq_is_dropped_silently(self):
        agent = WorkerAgent("127.0.0.1", 1, name="unit", log=_silent)
        a, b = socket.socketpair()
        a.settimeout(0.2)
        b.settimeout(0.2)
        try:
            agent._stream = FrameStream(a)
            agent._run_task({"type": "task"})
            assert recv_frame(b, timeout=0.2) is None  # nothing was sent
        finally:
            a.close()
            b.close()


class TestRemoteTrialTimeout:
    def test_hung_trials_time_out_and_recover_through_retry(self, tmp_path):
        """--trial-timeout is enforced on workers, not silently dropped.

        Every trial hangs far past the deadline on its first attempt;
        the worker must abandon it, report ``timeout``, keep serving,
        and the RetryPolicy requeue must land on the same fingerprint
        as an untroubled serial run.
        """
        reference = campaign().run()
        report, agents = run_remote_campaign(
            n_workers=2,
            study=HangOnceCaseStudy(tmp_path),
            trial_timeout=0.4,
            retry=RetryPolicy(max_retries=3, backoff_s=0.0),
        )
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)


class TestKillNineRecovery:
    def test_kill9_mid_campaign_recovers_and_resume_warns(self, tmp_path):
        """ISSUE acceptance: a SIGKILLed worker must not change the table.

        The campaign self-heals through heartbeat reaping + RetryPolicy
        requeue; the journal then resumes under a *different* topology
        (serial) and must warn about it while replaying byte-identically.
        """
        journal_path = tmp_path / "journal.jsonl"
        executor = RemoteExecutor(max_workers=2, heartbeat_timeout=2.0)
        host, port = executor.address
        procs = [spawn_worker_process(host, port) for _ in range(2)]
        killer = WorkerKiller(victim=procs[0].pid, after_trials=2)
        try:
            executor.wait_for_workers(2, timeout=60.0)
            report = campaign(
                RemoteCaseStudy(sleep_s=0.15),
                executor=executor,
                retry=RetryPolicy(max_retries=3, backoff_s=0.0),
                journal=CampaignJournal(journal_path),
            ).run(progress=killer.progress)
        finally:
            executor.shutdown()
            for proc in procs:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
        assert killer.killed == [procs[0].pid]
        assert report.meta["n_completed"] == 8
        reference = campaign().run()
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)
        # --resume on a plain serial box: detected, warned, byte-identical
        with pytest.warns(UserWarning, match="topology"):
            resumed = campaign(journal=CampaignJournal.resume(journal_path)).run()
        assert resumed.meta["n_replayed"] == 8
        assert "remote" in resumed.meta["topology_warning"]
        assert table_fingerprint(resumed.table) == table_fingerprint(report.table)


# ------------------------------------------------------- topology warnings
class TestTopologyWarning:
    def test_resume_under_different_topology_warns_but_replays(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        original = campaign(journal=CampaignJournal(path)).run()
        with pytest.warns(UserWarning, match="topology"):
            resumed = campaign(
                journal=CampaignJournal.resume(path),
                executor="thread", max_workers=2,
            ).run()
        assert resumed.meta["n_replayed"] == 8
        assert "serial" in resumed.meta["topology_warning"]
        assert table_fingerprint(resumed.table) == table_fingerprint(original.table)

    def test_same_topology_resume_is_silent(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        campaign(journal=CampaignJournal(path)).run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = campaign(journal=CampaignJournal.resume(path)).run()
        assert resumed.meta.get("topology_warning") is None
        assert not [w for w in caught if "topology" in str(w.message)]


# ----------------------------------------------------- worker outcome cache
class CountingCaseStudy(RemoteCaseStudy):
    """Counts the evaluations it runs in this process."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def evaluate(self, config, seed, progress=None):
        self.calls += 1
        return super().evaluate(config, seed, progress)


class TestOutcomeCache:
    """Campaigns and remote workers read and write one record per key."""

    KEY = "a" * 32

    def outcome(self, status="completed"):
        return TrialOutcome(
            seq=0, trial_id=1, attempt=0, status=status,
            measurements={"reward": 1.0, "time": 10.0},
            duration_s=0.25, checkpoints=[(1, 0.5)],
        )

    def config(self, quality=1):
        return Configuration({"quality": quality, "cost": 10}, trial_id=1)

    def test_round_trip_revalidates_config_and_seed(self, tmp_path):
        cache = TrialCache(tmp_path)
        assert cache.store(self.KEY, self.outcome(), self.config(), 7)
        hit = cache.lookup(self.KEY, self.config(), 7)
        assert hit == ({"reward": 1.0, "time": 10.0}, [(1, 0.5)], 0.25)
        # a colliding key must never replay a different config or seed
        assert cache.lookup(self.KEY, self.config(quality=2), 7) is None
        assert cache.lookup(self.KEY, self.config(), 8) is None

    @pytest.mark.parametrize("status", ["failed", "timeout", "crashed", "pruned"])
    def test_only_completed_outcomes_are_stored(self, tmp_path, status):
        cache = TrialCache(tmp_path)
        assert not cache.store(self.KEY, self.outcome(status), self.config(), 0)
        assert cache.lookup(self.KEY, self.config(), 0) is None

    def test_disk_entries_survive_restart_but_not_code_edits(self, tmp_path):
        TrialCache(tmp_path).store(self.KEY, self.outcome(), self.config(), 0)
        fresh = TrialCache(tmp_path)
        assert fresh.lookup(self.KEY, self.config(), 0) is not None
        edited = TrialCache(tmp_path, code_tag="deadbeefcafe")
        assert edited.lookup(self.KEY, self.config(), 0) is None

    def test_worker_answers_warm_trials_from_shared_cache(self, tmp_path, monkeypatch):
        warm = tmp_path / "shared-cache"
        writes = []
        atomic_write = cache_module.atomic_write

        def counting_write(target, blob):
            writes.append(target)
            atomic_write(target, blob)

        monkeypatch.setattr(cache_module, "atomic_write", counting_write)
        report1, agents1 = run_remote_campaign(
            n_workers=1, cache=TrialCache(warm), worker_kwargs={"cache": str(warm)}
        )
        assert sum(a.n_executed for a in agents1) == 8
        assert sum(a.n_cache_hits for a in agents1) == 0
        # the campaign and the worker stored the same record per trial,
        # and whichever came second found it on disk and wrote nothing
        assert len(list(warm.iterdir())) == 8
        assert len(writes) == 8
        # a fresh campaign-side cache misses, but the worker's shared
        # store answers every trial without re-running env steps
        report2, agents2 = run_remote_campaign(
            n_workers=1,
            cache=TrialCache(str(tmp_path / "cold-cache")),
            worker_kwargs={"cache": str(warm)},
        )
        assert sum(a.n_executed for a in agents2) == 0
        assert sum(a.n_cache_hits for a in agents2) == 8
        assert table_fingerprint(report2.table) == table_fingerprint(report1.table)

    def test_campaign_entry_answers_a_worker_lookup(self, tmp_path):
        shared = tmp_path / "shared-cache"
        serial = campaign(cache=TrialCache(shared)).run()
        report, agents = run_remote_campaign(
            n_workers=1,
            cache=TrialCache(tmp_path / "cold-cache"),
            worker_kwargs={"cache": str(shared)},
        )
        assert sum(a.n_executed for a in agents) == 0
        assert sum(a.n_cache_hits for a in agents) == 8
        assert table_fingerprint(report.table) == table_fingerprint(serial.table)

    def test_worker_entry_answers_a_campaign_lookup(self, tmp_path):
        shared = tmp_path / "shared-cache"
        remote, agents = run_remote_campaign(
            n_workers=1,
            cache=TrialCache(tmp_path / "coordinator-cache"),
            worker_kwargs={"cache": str(shared)},
        )
        assert sum(a.n_executed for a in agents) == 8
        study = CountingCaseStudy()
        warm = campaign(study, cache=TrialCache(shared)).run()
        assert study.calls == 0
        assert warm.meta["n_cached"] == 8
        assert table_fingerprint(warm.table) == table_fingerprint(remote.table)
