"""Partition-tolerance tests: chaos proxy, rejoin, quarantine, degradation.

The acceptance bar for this layer: a campaign routed through the
:class:`ChaosProxy` with a worker partitioned mid-flight and later
healed must finish with a results table byte-identical to a serial run —
no duplicated outcomes, no lost outcomes, no hung campaign. The proxy
injects real failures on real sockets, so these tests exercise the same
code paths a flaky datacenter would.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core import Configuration
from repro.core.serialization import table_fingerprint
from repro.exec import RetryPolicy, TrialOutcome, TrialTask
from repro.faults import (
    ChaosPlan,
    FrameCorruption,
    LinkLatency,
    LinkPartition,
    LinkThrottle,
)
from repro.net import (
    PROTOCOL_VERSION,
    ChaosProxy,
    FleetLostError,
    FleetPolicy,
    RemoteExecutor,
    WorkerAgent,
)
from repro.net.coordinator import LOCAL_FALLBACK
from repro.obs import (
    EVT_WORKER_QUARANTINED,
    EVT_WORKER_REJOINED,
    RingBufferSink,
    Telemetry,
)
from test_net import RemoteCaseStudy, _silent, campaign, encode_payload, recv_frame, send_frame


def make_task(seq, trial_id=None, attempt=0):
    return TrialTask(
        seq=seq,
        config=Configuration({"quality": 1, "cost": 10}, trial_id=trial_id or seq),
        seed=0,
        case_study=RemoteCaseStudy(),
        attempt=attempt,
    )


def run_proxied_campaign(
    plan,
    n_workers=2,
    heartbeat_timeout=10.0,
    policy=None,
    telemetry=None,
    secret=None,
    study=None,
    worker_kwargs=None,
    during=None,
    **campaign_kwargs,
):
    """A campaign whose workers dial the coordinator through a ChaosProxy.

    ``during(executor, proxy)`` runs on a side thread while the campaign
    is in flight — tests use it to heal partitions on *observed* state
    (e.g. "after the coordinator reaped the worker") instead of racing
    wall-clock guesses.
    """
    executor = RemoteExecutor(
        max_workers=n_workers,
        heartbeat_timeout=heartbeat_timeout,
        policy=policy,
        secret=secret,
        telemetry=telemetry,
    )
    host, port = executor.address
    proxy = ChaosProxy(host, port, plan=plan)
    agents = [
        WorkerAgent(
            proxy.host,
            proxy.port,
            name=f"w{i}",
            log=_silent,
            secret=secret,
            reconnect_backoff=0.05,
            **(worker_kwargs or {}),
        )
        for i in range(n_workers)
    ]
    threads = [threading.Thread(target=agent.run, daemon=True) for agent in agents]
    side = None
    try:
        # start workers one at a time so link indices are deterministic:
        # link i belongs to worker w<i>'s first connection
        for i, thread in enumerate(threads):
            thread.start()
            assert proxy.wait_for_links(i + 1, timeout=10.0)
        executor.wait_for_workers(n_workers, timeout=30.0)
        if during is not None:
            side = threading.Thread(
                target=during, args=(executor, proxy), daemon=True
            )
            side.start()
        report = campaign(study, executor=executor, **campaign_kwargs).run()
    finally:
        executor.shutdown()
        proxy.close()
        for thread in threads:
            thread.join(timeout=10.0)
        if side is not None:
            side.join(timeout=10.0)
    return report, proxy, agents


# ---------------------------------------------------------------- the plan
class TestChaosPlan:
    def plan(self):
        return ChaosPlan(
            partitions=[LinkPartition(link=0, after_outcomes=2, heal_after_outcomes=3)],
            throttles=[LinkThrottle(bytes_per_s=1e6, link=1)],
            corruptions=[FrameCorruption(link=0, frame_index=4, mode="garbage")],
            seed=7,
            name="demo",
        )

    def test_json_round_trip_is_lossless(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ChaosPlan.load(path) == plan
        assert hash(ChaosPlan.load(path)) == hash(plan)  # lists were stored as tuples

    def test_hash_is_stable_and_ignores_the_name(self):
        plan = self.plan()
        assert plan.plan_hash() == "666869a7e3b2"  # sha1 of canonical JSON: pinned
        renamed = ChaosPlan.from_dict(dict(plan.to_dict(), name="other"))
        assert plan.plan_hash() == renamed.plan_hash()
        reseeded = ChaosPlan.from_dict(dict(plan.to_dict(), seed=8))
        assert plan.plan_hash() != reseeded.plan_hash()

    def test_empty_plan_is_first_class(self):
        plan = ChaosPlan()
        plan.validate()
        assert plan.is_empty and plan.n_events == 0
        assert "transparent relay" in plan.describe()

    def test_validate_rejects_inconsistencies(self):
        with pytest.raises(ValueError, match="one partition per link"):
            ChaosPlan(
                partitions=[LinkPartition(link=0), LinkPartition(link=0)]
            ).validate()
        with pytest.raises(ValueError, match="delay_s"):
            ChaosPlan(latencies=[LinkLatency(delay_s=0.0)]).validate()
        with pytest.raises(ValueError, match="direction"):
            ChaosPlan(
                corruptions=[FrameCorruption(link=0, frame_index=0, direction="sideways")]
            ).validate()

    def test_garbage_bytes_are_seeded_and_sized(self):
        plan = self.plan()
        blob = plan.garbage_bytes(100, 0, "up", 4)
        assert len(blob) == 100
        assert blob == plan.garbage_bytes(100, 0, "up", 4)
        assert blob != plan.garbage_bytes(100, 0, "up", 5)
        assert blob != ChaosPlan(seed=8).garbage_bytes(100, 0, "up", 4)

    def test_describe_names_every_event(self):
        text = self.plan().describe()
        assert "partition" in text and "throttle" in text and "garbage" in text


# ----------------------------------------------------------- transparent
class TestTransparentRelay:
    def test_empty_plan_is_byte_identical_to_serial(self):
        reference = campaign().run()
        report, proxy, _ = run_proxied_campaign(ChaosPlan())
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)
        stats = proxy.stats()
        assert stats["outcomes_relayed"] == 8
        assert stats["partitions"] == {}


# ------------------------------------------------------ partition + rejoin
class TestPartitionRejoin:
    def test_partition_then_heal_matches_serial_with_no_dups_or_losses(self):
        """The tentpole acceptance test.

        Worker w0's link is partitioned after 2 relayed outcomes; the
        healer thread waits for the coordinator to actually notice the
        loss (w0 reaped into rejoin limbo) and only then heals, so the
        rejoin path — not a lucky fast heal — is what finishes the
        campaign. A generous grace keeps w0's in-flight trial parked
        instead of crash-synthesized.
        """
        reference = campaign().run()
        sink = RingBufferSink()
        telem = Telemetry(sink)
        plan = ChaosPlan(
            partitions=[LinkPartition(link=0, after_outcomes=2)], name="split-w0"
        )

        def heal_after_reap(executor, proxy):
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if executor.fleet_state()["limbo"]:
                    break  # the loss was noticed: w0's seqs are parked
                if executor._closing:
                    return
                time.sleep(0.05)
            proxy.heal()

        report, proxy, _ = run_proxied_campaign(
            plan,
            heartbeat_timeout=0.8,
            policy=FleetPolicy(min_workers=1, rejoin_grace_s=30.0),
            telemetry=telem,
            study=RemoteCaseStudy(sleep_s=0.2),
            during=heal_after_reap,
        )
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)
        # exactly one trial row per configuration: nothing lost, nothing doubled
        assert len(report.table) == 8
        assert len({row.trial_id for row in report.table}) == 8
        assert len(sink.events(EVT_WORKER_REJOINED)) >= 1
        assert sink.events(EVT_WORKER_QUARANTINED) == []
        counters = telem.meters.snapshot()["counters"]
        assert counters.get("net/rejoins", 0) >= 1
        assert counters.get("net/quarantines", 0) == 0
        assert proxy.stats()["partitions"]["0"]["healed"] is True

    def test_garbage_frame_on_an_authenticated_link_recovers(self):
        """A corrupted task frame fails HMAC, the worker redials, the
        campaign retries onto the same fingerprint as serial."""
        reference = campaign().run()
        plan = ChaosPlan(
            corruptions=[
                FrameCorruption(link=0, frame_index=2, direction="down", mode="garbage")
            ],
            seed=3,
        )
        report, _, _ = run_proxied_campaign(
            plan,
            heartbeat_timeout=1.0,
            policy=FleetPolicy(min_workers=1, rejoin_grace_s=5.0),
            secret="chaos-secret",
            retry=RetryPolicy(max_retries=3, backoff_s=0.0),
        )
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)


# ------------------------------------------------------------ throttling
class TestThrottledLink:
    def test_throttled_campaign_completes_under_deadline(self):
        reference = campaign().run()
        plan = ChaosPlan(throttles=[LinkThrottle(bytes_per_s=50_000, link=-1)])
        start = time.monotonic()
        report, proxy, _ = run_proxied_campaign(plan, trial_timeout=30.0)
        elapsed = time.monotonic() - start
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)
        assert elapsed < 60.0
        assert proxy.stats()["outcomes_relayed"] == 8


# ------------------------------------------------- rejoin/dedup unit level
class _FakeWorker:
    """A scripted raw-socket worker for coordinator-level tests."""

    def __init__(self, executor, session, name="fake"):
        self.executor = executor
        self.session = session
        self.name = name
        self.sock = None

    def connect(self, inflight=()):
        host, port = self.executor.address
        self.sock = socket.create_connection((host, port), timeout=5.0)
        send_frame(self.sock, {
            "type": "hello", "version": PROTOCOL_VERSION,
            "code_tag": self.executor.code_tag, "name": self.name,
            "slots": 1, "session": self.session,
            "inflight": sorted(inflight),
        })
        welcome = recv_frame(self.sock, timeout=5.0)
        assert welcome["type"] == "welcome", welcome
        return welcome

    def recv(self, timeout=5.0):
        return recv_frame(self.sock, timeout=timeout)

    def send_outcome(self, seq, attempt=0, trial_id=None):
        outcome = TrialOutcome(
            seq=seq, trial_id=trial_id or seq, attempt=attempt,
            status="completed", measurements={"reward": 1.0, "time": 10.0},
            worker=self.name,
        )
        send_frame(self.sock, {
            "type": "outcome", "seq": seq, "attempt": attempt,
            "payload": encode_payload(outcome),
        })

    def close(self):
        if self.sock is not None:
            self.sock.close()


class TestRejoinSemantics:
    def test_rejoin_within_grace_restores_the_inflight_task(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        executor = RemoteExecutor(
            max_workers=1,
            heartbeat_timeout=0.5,
            policy=FleetPolicy(rejoin_grace_s=30.0),
            telemetry=telem,
        )
        fake = _FakeWorker(executor, session="s-rejoin")
        try:
            fake.connect()
            executor.submit(make_task(0))
            task_frame = fake.recv()
            assert task_frame["type"] == "task" and task_frame["seq"] == 0
            fake.close()  # vanish mid-trial: seq 0 goes to rejoin limbo
            deadline = time.monotonic() + 10.0
            while executor.n_workers and time.monotonic() < deadline:
                time.sleep(0.02)
            assert executor.fleet_state()["limbo"], "loss did not reach limbo"
            welcome = fake.connect(inflight=[0])  # same session: rejoin
            assert welcome.get("rejoin") is True
            fake.send_outcome(0)
            outcomes = []
            deadline = time.monotonic() + 10.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert [o.status for o in outcomes] == ["completed"]
            assert outcomes[0].seq == 0
        finally:
            fake.close()
            executor.shutdown()
        assert len(sink.events(EVT_WORKER_REJOINED)) == 1

    def test_duplicate_outcome_after_rejoin_is_deduped(self):
        telem = Telemetry(RingBufferSink())
        executor = RemoteExecutor(max_workers=1, telemetry=telem)
        fake = _FakeWorker(executor, session="s-dup")
        try:
            fake.connect()
            executor.submit(make_task(0))
            assert fake.recv()["type"] == "task"
            fake.send_outcome(0)
            fake.send_outcome(0)  # a partition replay: same seq, same attempt
            outcomes = []
            deadline = time.monotonic() + 10.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert len(outcomes) == 1
            # the duplicate must be counted, not committed
            deadline = time.monotonic() + 5.0
            while (
                telem.meters.snapshot()["counters"].get("net/dup_outcomes", 0) < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert telem.meters.snapshot()["counters"]["net/dup_outcomes"] == 1
            assert executor.poll(0.2) == []
        finally:
            fake.close()
            executor.shutdown()

    def test_requeued_task_is_fenced_against_the_stale_attempt(self):
        """Grace expires, the trial is crash-requeued to attempt 1; the
        original worker's late attempt-0 outcome must not commit."""
        executor = RemoteExecutor(
            max_workers=1,
            heartbeat_timeout=0.4,
            policy=FleetPolicy(rejoin_grace_s=0.0),
        )
        fake = _FakeWorker(executor, session="s-fence")
        try:
            fake.connect()
            executor.submit(make_task(0))
            assert fake.recv()["type"] == "task"
            fake.close()
            outcomes = []
            deadline = time.monotonic() + 10.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert [o.status for o in outcomes] == ["crashed"]
            # the campaign's retry resubmits attempt 1; the stale
            # attempt-0 outcome from the rejoining worker must be dropped
            executor.submit(make_task(0, attempt=1))
            welcome = fake.connect(inflight=[])
            assert welcome.get("rejoin") is True
            assert fake.recv()["type"] == "task"
            fake.send_outcome(0, attempt=0)  # stale
            assert executor.poll(0.3) == []
            fake.send_outcome(0, attempt=1)  # current
            outcomes = []
            deadline = time.monotonic() + 10.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert [(o.status, o.attempt) for o in outcomes] == [("completed", 1)]
        finally:
            fake.close()
            executor.shutdown()


# ------------------------------------------------------------- quarantine
class TestQuarantine:
    def test_flapping_worker_is_quarantined_and_not_dispatched_to(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        executor = RemoteExecutor(
            max_workers=2,
            heartbeat_timeout=5.0,
            policy=FleetPolicy(
                min_workers=1,
                rejoin_grace_s=0.0,
                quarantine_flaps=2,
                quarantine_window=20,
            ),
            telemetry=telem,
        )
        flappy = _FakeWorker(executor, session="s-flap", name="flappy")
        try:
            for _ in range(2):  # two join/lost cycles trip the breaker
                flappy.connect()
                flappy.close()
                deadline = time.monotonic() + 10.0
                while executor.n_workers and time.monotonic() < deadline:
                    time.sleep(0.02)
            deadline = time.monotonic() + 5.0
            while (
                not sink.events(EVT_WORKER_QUARANTINED)
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert len(sink.events(EVT_WORKER_QUARANTINED)) == 1
            assert telem.meters.snapshot()["counters"]["net/quarantines"] == 1
            # the quarantined session may reconnect but gets no work
            flappy.connect()
            state = executor.fleet_state()
            [session] = [
                s for s in state["sessions"] if s["session"] == "s-flap"
            ]
            assert session["quarantined"] is True
            executor.submit(make_task(0))
            assert flappy.recv(timeout=0.5) is None  # no task dispatched
            assert state["live_workers"] == 0  # quarantined ≠ live
        finally:
            flappy.close()
            executor.shutdown()


# ----------------------------------------------------- fleet-loss policies
class TestFleetLossPolicies:
    def dead_fleet(self, policy, telemetry=None):
        executor = RemoteExecutor(
            max_workers=1, heartbeat_timeout=0.5, policy=policy,
            telemetry=telemetry,
        )
        fake = _FakeWorker(executor, session="s-loss")
        fake.connect()
        executor.wait_for_workers(1, timeout=5.0)
        fake.close()
        deadline = time.monotonic() + 10.0
        while executor.n_workers and time.monotonic() < deadline:
            time.sleep(0.02)
        return executor

    def test_fail_policy_raises_fleet_lost(self):
        executor = self.dead_fleet(
            FleetPolicy(min_workers=1, on_fleet_loss="fail", rejoin_grace_s=0.0)
        )
        try:
            with pytest.raises(FleetLostError, match="min_workers"):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    executor.poll(0.2)
        finally:
            executor.shutdown()

    def test_wait_policy_degrades_without_failing_then_recovers(self):
        executor = self.dead_fleet(
            FleetPolicy(min_workers=1, on_fleet_loss="wait", rejoin_grace_s=0.0)
        )
        agent = None
        thread = None
        try:
            executor.submit(make_task(0))
            assert executor.poll(0.3) == []  # degraded but patient
            assert executor.fleet_state()["degraded"] is True
            host, port = executor.address
            agent = WorkerAgent(host, port, name="relief", log=_silent)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            outcomes = []
            deadline = time.monotonic() + 15.0
            while not outcomes and time.monotonic() < deadline:
                outcomes = executor.poll(0.2)
            assert [o.status for o in outcomes] == ["completed"]
            assert executor.fleet_state()["degraded"] is False
        finally:
            executor.shutdown()
            if thread is not None:
                thread.join(timeout=10.0)

    def test_local_policy_runs_pending_trials_in_process(self):
        telem = Telemetry(RingBufferSink())
        executor = self.dead_fleet(
            FleetPolicy(min_workers=1, on_fleet_loss="local", rejoin_grace_s=0.0),
            telemetry=telem,
        )
        try:
            executor.submit(make_task(0))
            executor.submit(make_task(1, trial_id=2))
            outcomes = []
            deadline = time.monotonic() + 15.0
            while len(outcomes) < 2 and time.monotonic() < deadline:
                outcomes.extend(executor.poll(0.2))
            assert sorted(o.seq for o in outcomes) == [0, 1]
            assert {o.status for o in outcomes} == {"completed"}
            assert {o.worker for o in outcomes} == {LOCAL_FALLBACK}
            counters = telem.meters.snapshot()["counters"]
            assert counters["net/local_trials"] == 2
        finally:
            executor.shutdown()

    def test_local_fallback_keeps_the_serial_fingerprint(self):
        """A whole campaign that loses its fleet mid-run and finishes on
        the local fallback must still fingerprint identically."""
        reference = campaign().run()
        executor = RemoteExecutor(
            max_workers=1,
            heartbeat_timeout=0.5,
            policy=FleetPolicy(
                min_workers=1, on_fleet_loss="local", rejoin_grace_s=0.0
            ),
        )
        host, port = executor.address
        agent = WorkerAgent(
            host, port, name="doomed", log=_silent, reconnect_retries=0
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            executor.wait_for_workers(1, timeout=10.0)

            def sever(study_done=[False]):
                # cut the worker's socket after its first completed trial
                deadline = time.monotonic() + 20.0
                while agent.n_executed < 1 and time.monotonic() < deadline:
                    time.sleep(0.02)
                stream = agent._stream
                if stream is not None:
                    stream.close()

            side = threading.Thread(target=sever, daemon=True)
            side.start()
            report = campaign(
                RemoteCaseStudy(sleep_s=0.15),
                executor=executor,
                retry=RetryPolicy(max_retries=3, backoff_s=0.0),
            ).run()
            side.join(timeout=10.0)
        finally:
            executor.shutdown()
            thread.join(timeout=10.0)
        assert report.meta["n_completed"] == 8
        assert table_fingerprint(report.table) == table_fingerprint(reference.table)
