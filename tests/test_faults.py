"""Tests for the fault-injection & resilience layer (repro.faults).

Covers the plan format (round-trip, pinned hashes, strict decoding,
validation, seeded sampling), the simulator's fault semantics
(crash/restart, stragglers, link degradation, probabilistic task
failures, recovery policies), the framework back-ends' recovery
behavior, the resilience metrics and Pareto axis at campaign level, the
cross-executor determinism of the whole fault path, journal identity
pinning, and the Perfetto fault lane.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cluster import ClusterSimulator, paper_testbed
from repro.core import (
    Campaign,
    Categorical,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
    ParetoFrontRanking,
    TrialStatus,
)
from repro.core.serialization import table_fingerprint
from repro.exec import CampaignJournal, JournalMismatch, RetryPolicy
from repro.faults import (
    ChaosPlan,
    ClusterFaultError,
    DegradeRecovery,
    FailFastRecovery,
    FaultPlan,
    FrameCorruption,
    LinkDegradation,
    LinkLatency,
    LinkPartition,
    LinkThrottle,
    NodeCrash,
    ReDispatchRecovery,
    Straggler,
    TaskFailures,
)
from repro.frameworks import TrainSpec, get_framework
from repro.obs.export import chrome_trace, validate_chrome_trace


# --------------------------------------------------------------- fixtures
# module-level so everything pickles for the process executor
CHAOS_PLAN = FaultPlan(
    node_crashes=(NodeCrash(node=1, at=2.0, restart_after=4.0),),
    stragglers=(Straggler(node=0, at=1.0, duration=3.0, factor=2.0),),
    link_faults=(LinkDegradation(at=0.5, duration=2.0, bandwidth_factor=0.5),),
    task_failures=TaskFailures(rate=0.2, seed=11, max_attempts=3),
    name="chaos",
)

#: kills node 1 early and never restarts it — configs using node 1 die
CRASH_NODE1_PLAN = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.5),))


class FaultSimCaseStudy:
    """Pure virtual-cluster workload: fast, deterministic, picklable.

    Runs the same pipeline DAG on a clean simulator and on one under
    ``fault_plan``, and reports the resilience axis alongside the usual
    decision metrics. ``policy`` selects the recovery behavior;
    ``fail_fast`` aborts surface as :class:`ClusterFaultError` exactly
    like the Stable-Baselines back-end.
    """

    def __init__(self, fault_plan=None, policy="redispatch", interrupt_at=None):
        self.fault_plan = fault_plan
        self.policy = policy
        self.interrupt_at = interrupt_at
        self.evaluated = []

    def _recovery(self):
        if self.policy == "fail_fast":
            return FailFastRecovery()
        if self.policy == "degrade":
            return DegradeRecovery()
        return ReDispatchRecovery(nodes=(0, 1), restore_s=1.0)

    def _build(self, sim, depth, duration, wide):
        prev = None
        for i in range(depth):
            deps = [prev] if prev is not None else []
            a = sim.task(f"stage{i}/a", node=0, duration=duration, deps=deps)
            merge_deps = [a]
            if wide:
                b = sim.task(f"stage{i}/b", node=1, duration=duration, deps=deps)
                merge_deps.append(
                    sim.transfer(f"stage{i}/ship", 1, 0, n_bytes=5e8, deps=[b])
                )
            prev = sim.task(
                f"stage{i}/reduce", node=0, duration=duration / 2, deps=merge_deps
            )

    def evaluate(self, config, seed, progress=None):
        self.evaluated.append(config)
        if self.interrupt_at is not None and config.trial_id == self.interrupt_at:
            raise KeyboardInterrupt
        depth, wide = int(config["depth"]), bool(config["wide"])
        clean = ClusterSimulator(paper_testbed(2))
        self._build(clean, depth, 1.0, wide)
        clean.run()
        sim = ClusterSimulator(
            paper_testbed(2), faults=self.fault_plan, recovery=self._recovery()
        )
        self._build(sim, depth, 1.0, wide)
        sim.run()
        if sim.stats is not None and sim.stats.aborted and self.policy == "fail_fast":
            raise ClusterFaultError(
                sim.stats.abort_reason,
                extras={"failure_stage": "cluster_fault",
                        "abort_time_s": sim.stats.abort_time},
            )
        makespan = sim.trace.makespan
        return {
            "reward": -makespan,
            "computation_time": makespan,
            "recovery_overhead": makespan - clean.trace.makespan,
        }


def sim_space():
    return ParameterSpace(
        [Categorical("depth", [2, 3, 4]), Categorical("wide", [False, True])]
    )


def sim_metrics():
    return MetricSet(
        [
            Metric(name="reward", direction="max"),
            Metric(name="computation_time", direction="min"),
            Metric(name="recovery_overhead", direction="min"),
        ]
    )


def sim_campaign(study, **kwargs):
    space = sim_space()
    kwargs.setdefault(
        "rankers",
        [ParetoFrontRanking(
            ["reward", "computation_time", "recovery_overhead"], name="resilience"
        )],
    )
    return Campaign(study, space, GridSearch(space), sim_metrics(), **kwargs)


# -------------------------------------------------------------- the plan
class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        CHAOS_PLAN.save(path)
        loaded = FaultPlan.load(path)
        assert loaded == CHAOS_PLAN
        assert loaded.plan_hash() == CHAOS_PLAN.plan_hash()

    def test_hash_ignores_cosmetic_name(self):
        renamed = FaultPlan.from_dict({**CHAOS_PLAN.to_dict(), "name": "other"})
        assert renamed.plan_hash() == CHAOS_PLAN.plan_hash()
        assert renamed != CHAOS_PLAN  # the name still distinguishes objects

    def test_hash_tracks_semantics(self):
        shifted = FaultPlan(node_crashes=(NodeCrash(node=1, at=3.0, restart_after=4.0),))
        base = FaultPlan(node_crashes=(NodeCrash(node=1, at=2.0, restart_after=4.0),))
        assert shifted.plan_hash() != base.plan_hash()

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.n_events == 0
        assert not CHAOS_PLAN.is_empty
        # a zero rate schedules no failure: no event, and the fault path stays off
        zero_rate = FaultPlan(task_failures=TaskFailures(rate=0.0))
        assert zero_rate.is_empty and zero_rate.n_events == 0

    def test_validate_rejects_out_of_range_node(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=5, at=1.0),))
        plan.validate()  # fine without a cluster size
        with pytest.raises(ValueError, match="node 5"):
            plan.validate(n_nodes=2)

    def test_validate_rejects_bad_events(self):
        with pytest.raises(ValueError):
            Straggler(node=0, at=0.0, duration=1.0, factor=0.5).validate()
        with pytest.raises(ValueError):
            LinkDegradation(at=0.0, duration=1.0).validate()
        with pytest.raises(ValueError):
            TaskFailures(rate=1.5).validate()

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"horizon_s": float("nan")}, "horizon_s"),
            ({"horizon_s": float("inf")}, "horizon_s"),
            ({"intensity": float("inf")}, "intensity"),
            ({"intensity": float("nan")}, "intensity"),
        ],
        ids=["horizon-nan", "horizon-inf", "intensity-inf", "intensity-nan"],
    )
    def test_sample_refuses_non_finite_numbers(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.sample(seed=7, n_nodes=2, **kwargs)

    @pytest.mark.parametrize(
        "plan, field",
        [
            (FaultPlan(node_crashes=(NodeCrash(node=0, at=float("nan")),)), "NodeCrash.at"),
            (
                FaultPlan(stragglers=(
                    Straggler(node=0, at=1.0, duration=float("nan"), factor=float("nan")),
                )),
                "Straggler.duration",
            ),
            (
                FaultPlan(link_faults=(
                    LinkDegradation(at=0.0, duration=1.0, extra_latency_s=float("inf")),
                )),
                "LinkDegradation.extra_latency_s",
            ),
            (ChaosPlan(latencies=(LinkLatency(delay_s=float("nan")),)), "LinkLatency.delay_s"),
        ],
        ids=["crash-at-nan", "straggler-nan", "link-latency-inf", "chaos-delay-nan"],
    )
    def test_validate_refuses_non_finite_numbers(self, plan, field):
        """NaN passes every range check (each comparison with it is
        false), so the events check finiteness first."""
        with pytest.raises(ValueError, match=re.escape(field)):
            plan.validate()

    def test_sample_is_seed_deterministic(self):
        one = FaultPlan.sample(seed=5, n_nodes=2, horizon_s=100.0)
        two = FaultPlan.sample(seed=5, n_nodes=2, horizon_s=100.0)
        other = FaultPlan.sample(seed=6, n_nodes=2, horizon_s=100.0)
        assert one.plan_hash() == two.plan_hash()
        assert one.plan_hash() != other.plan_hash()
        one.validate(n_nodes=2)

    @pytest.mark.parametrize(
        "intensity, digest, n_events, failure_rate",
        [
            (0.1, "10845cf8f532", 3, None),
            (0.5, "10845cf8f532", 3, None),
            (1.0, "10845cf8f532", 3, None),
            (1.4, "10845cf8f532", 3, None),
            (1.5, "d2efe263c83e", 5, None),
            (1.6, "d2efe263c83e", 5, None),
            (2.0, "71a5749530a4", 6, 0.04),
        ],
    )
    def test_intensity_sets_only_how_many_events(self, intensity, digest, n_events, failure_rate):
        """``max(1, round(intensity))`` events of each kind, task failures
        from 2.0 on; the events themselves come from the seed alone."""
        plan = FaultPlan.sample(seed=7, n_nodes=2, horizon_s=6.0, intensity=intensity)
        assert plan.plan_hash() == digest
        assert plan.n_events == n_events
        rate = None if plan.task_failures is None else plan.task_failures.rate
        assert rate == failure_rate
        one_each = FaultPlan.sample(seed=7, n_nodes=2, horizon_s=6.0, intensity=1.0)
        assert plan.stragglers[:1] == one_each.stragglers
        assert plan.link_faults[:1] == one_each.link_faults

    def test_describe_mentions_every_event(self):
        text = CHAOS_PLAN.describe()
        for word in ("crash", "straggler", "bandwidth", "failures"):
            assert word in text

    # sha1 of canonical JSON, no numpy involved: every Python agrees. A
    # change here moves every journal identity and trial-cache key.
    @pytest.mark.parametrize(
        "plan, digest",
        [
            (CHAOS_PLAN, "456620f9c38a"),
            (
                # CI's canned plan: repro faults generate --seed 7 --nodes 2 --horizon 6
                FaultPlan.sample(
                    seed=7, n_nodes=2, horizon_s=6.0, intensity=1.0, name="sampled-seed7"
                ),
                "10845cf8f532",
            ),
        ],
        ids=["chaos", "ci-canned"],
    )
    def test_plan_hash_is_pinned(self, plan, digest):
        assert plan.plan_hash() == digest


# ------------------------------------------------------- strict decoding
NET_PLAN = ChaosPlan(
    partitions=(LinkPartition(link=0, after_outcomes=2, heal_after_outcomes=3),),
    latencies=(LinkLatency(delay_s=0.05, link=1, for_outcomes=4),),
    throttles=(LinkThrottle(bytes_per_s=1e6),),
    corruptions=(FrameCorruption(link=0, frame_index=4, mode="garbage"),),
    seed=7,
    name="net",
)
NAN, INF, NEG_INF = json.loads("[NaN, Infinity, -Infinity]")


def _put(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value

    return mutate


def _drop(*path):
    def mutate(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        del payload[last]

    return mutate


# (plan, how to break its payload, the field the error must name)
REJECTIONS = {
    "fault-unknown-top-key": (CHAOS_PLAN, _put("node_crash", []), "fault plan.node_crash"),
    "fault-unknown-event-key": (
        CHAOS_PLAN, _put("node_crashes", 0, "att", 1.0), "fault plan.node_crashes[0].att"
    ),
    "fault-missing-key": (
        CHAOS_PLAN, _drop("node_crashes", 0, "at"), "fault plan.node_crashes[0].at"
    ),
    "fault-events-not-a-list": (
        CHAOS_PLAN, _put("stragglers", {"node": 0}), "fault plan.stragglers"
    ),
    "fault-bool-as-number": (
        CHAOS_PLAN, _put("node_crashes", 0, "at", True), "fault plan.node_crashes[0].at"
    ),
    "fault-string-as-bool": (
        CHAOS_PLAN, _put("link_faults", 0, "partition", "false"),
        "fault plan.link_faults[0].partition",
    ),
    "fault-number-as-string": (
        CHAOS_PLAN, _put("task_failures", "match", 5), "fault plan.task_failures.match"
    ),
    "fault-fractional-node": (
        CHAOS_PLAN, _put("stragglers", 0, "node", 1.5), "fault plan.stragglers[0].node"
    ),
    "fault-nan": (
        CHAOS_PLAN, _put("stragglers", 0, "factor", NAN), "fault plan.stragglers[0].factor"
    ),
    "fault-infinity": (
        CHAOS_PLAN, _put("node_crashes", 0, "restart_after", INF),
        "fault plan.node_crashes[0].restart_after",
    ),
    "fault-minus-infinity": (
        CHAOS_PLAN, _put("link_faults", 0, "at", NEG_INF), "fault plan.link_faults[0].at"
    ),
    "fault-format-version-2": (CHAOS_PLAN, _put("format_version", 2), "format_version"),
    "chaos-unknown-top-key": (NET_PLAN, _put("partition", []), "chaos plan.partition"),
    "chaos-unknown-event-key": (
        NET_PLAN, _put("latencies", 0, "delay", 0.1), "chaos plan.latencies[0].delay"
    ),
    "chaos-missing-key": (
        NET_PLAN, _drop("corruptions", 0, "frame_index"), "chaos plan.corruptions[0].frame_index"
    ),
    "chaos-events-not-a-list": (NET_PLAN, _put("throttles", "all"), "chaos plan.throttles"),
    "chaos-bool-as-number": (
        NET_PLAN, _put("latencies", 0, "delay_s", True), "chaos plan.latencies[0].delay_s"
    ),
    "chaos-number-as-string": (
        NET_PLAN, _put("corruptions", 0, "direction", 5), "chaos plan.corruptions[0].direction"
    ),
    "chaos-fractional-link": (
        NET_PLAN, _put("partitions", 0, "link", 1.5), "chaos plan.partitions[0].link"
    ),
    "chaos-nan": (
        NET_PLAN, _put("throttles", 0, "bytes_per_s", NAN), "chaos plan.throttles[0].bytes_per_s"
    ),
    "chaos-infinity": (
        NET_PLAN, _put("latencies", 0, "delay_s", INF), "chaos plan.latencies[0].delay_s"
    ),
    "chaos-minus-infinity": (
        NET_PLAN, _put("throttles", 0, "bytes_per_s", NEG_INF),
        "chaos plan.throttles[0].bytes_per_s",
    ),
    "chaos-format-version-2": (NET_PLAN, _put("format_version", 2), "format_version"),
}


class TestStrictDecoding:
    @pytest.mark.parametrize("plan, mutate, field", REJECTIONS.values(), ids=REJECTIONS.keys())
    def test_malformed_plan_is_refused_naming_the_field(self, plan, mutate, field):
        payload = json.loads(json.dumps(plan.to_dict()))
        mutate(payload)
        with pytest.raises(ValueError, match=re.escape(field)):
            type(plan).from_dict(payload)

    @pytest.mark.parametrize(
        "plan",
        [CHAOS_PLAN, NET_PLAN, FaultPlan(), ChaosPlan()],
        ids=["fault", "chaos", "empty-fault", "empty-chaos"],
    )
    def test_what_to_dict_writes_decodes(self, plan):
        assert type(plan).from_json(plan.to_json()) == plan


# --------------------------------------------------------- sim semantics
class TestSimulatorFaults:
    def test_empty_plan_is_byte_identical(self):
        def build(sim):
            a = sim.task("a", 0, 2.0)
            b = sim.task("b", 1, 3.0, deps=[a])
            sim.transfer("x", 1, 0, n_bytes=1e8, deps=[b])

        plain = ClusterSimulator(paper_testbed(2))
        build(plain)
        plain.run()
        empty = ClusterSimulator(paper_testbed(2), faults=FaultPlan())
        build(empty)
        empty.run()
        assert plain.trace.to_records() == empty.trace.to_records()
        assert empty.stats is None  # the whole fault path is disabled

    def test_crash_with_restart_degrades(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=0, at=4.0, restart_after=3.0),))
        sim = ClusterSimulator(paper_testbed(2), faults=plan, recovery=DegradeRecovery())
        t = sim.task("work", node=0, duration=10.0)
        sim.run()
        # 4s of progress lost, node back at t=7, full re-run ends at 17
        assert t.end_time == pytest.approx(17.0)
        assert sim.stats.work_lost_s == pytest.approx(4.0)
        assert sim.stats.n_killed == 1
        assert sim.stats.n_restarts == 1
        assert not sim.stats.aborted
        killed = [s for s in sim.trace.tasks if s.name.endswith("(killed)")]
        assert len(killed) == 1 and killed[0].end == pytest.approx(4.0)

    def test_straggler_slows_remaining_work(self):
        plan = FaultPlan(stragglers=(Straggler(node=0, at=2.0, duration=100.0, factor=2.0),))
        sim = ClusterSimulator(paper_testbed(2), faults=plan)
        t = sim.task("work", node=0, duration=10.0)
        sim.run()
        assert t.end_time == pytest.approx(18.0)  # 2 @1x + 8 nominal @2x

    def test_straggler_window_end_restores_speed(self):
        plan = FaultPlan(stragglers=(Straggler(node=0, at=2.0, duration=2.0, factor=2.0),))
        sim = ClusterSimulator(paper_testbed(2), faults=plan)
        t = sim.task("work", node=0, duration=10.0)
        sim.run()
        # [2,4) at 2x accrues 1 nominal second; 7 remain at full speed
        assert t.end_time == pytest.approx(11.0)

    def test_link_degradation_recosts_transfer(self):
        plan = FaultPlan(
            link_faults=(LinkDegradation(at=0.0, duration=100.0, bandwidth_factor=0.5),)
        )
        degraded = ClusterSimulator(paper_testbed(2), faults=plan)
        a = degraded.task("p", 0, 1.0)
        x = degraded.transfer("ship", 0, 1, n_bytes=1e9, deps=[a])
        degraded.run()
        clean = ClusterSimulator(paper_testbed(2))
        a2 = clean.task("p", 0, 1.0)
        y = clean.transfer("ship", 0, 1, n_bytes=1e9, deps=[a2])
        clean.run()
        # half the bandwidth doubles the payload time
        payload_clean = y.end_time - y.start_time
        payload_degraded = x.end_time - x.start_time
        assert payload_degraded == pytest.approx(2 * payload_clean, rel=1e-4)

    def test_partition_delays_transfer_start(self):
        plan = FaultPlan(
            link_faults=(LinkDegradation(at=0.0, duration=5.5, partition=True),)
        )
        sim = ClusterSimulator(paper_testbed(2), faults=plan)
        a = sim.task("p", 0, 1.0)
        x = sim.transfer("ship", 0, 1, n_bytes=1e6, deps=[a])
        sim.run()
        assert x.start_time == pytest.approx(5.5)

    def test_fail_fast_abort_names_the_crash(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=0, at=4.0),))
        sim = ClusterSimulator(paper_testbed(2), faults=plan, recovery=FailFastRecovery())
        sim.task("work", node=0, duration=10.0)
        sim.run()
        assert sim.stats.aborted
        assert sim.stats.abort_time == pytest.approx(4.0)
        assert "node 0" in sim.stats.abort_reason
        assert "fail_fast" in sim.stats.abort_reason

    def test_irrelevant_crash_never_consults_policy(self):
        # node 1 is crashed but the DAG never touches it: even the
        # fail-fast policy must let the run complete untouched
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=1.0),))
        sim = ClusterSimulator(paper_testbed(2), faults=plan, recovery=FailFastRecovery())
        t = sim.task("work", node=0, duration=10.0)
        sim.run()
        assert not sim.stats.aborted
        assert t.end_time == pytest.approx(10.0)

    def test_redispatch_migrates_behind_restore(self):
        plan = FaultPlan(node_crashes=(NodeCrash(node=1, at=1.0),))
        sim = ClusterSimulator(
            paper_testbed(2), faults=plan,
            recovery=ReDispatchRecovery(nodes=(0, 1), restore_s=2.0),
        )
        a = sim.task("w0", node=0, duration=5.0)
        b = sim.task("w1", node=1, duration=5.0)
        sim.run()
        # b loses 1s of progress, waits for node 0 (busy until 5), then a
        # 2s full-node restore precedes the 5s re-run: 5 + 2 + 5 = 12
        assert a.end_time == pytest.approx(5.0)
        assert b.end_time == pytest.approx(12.0)
        assert b.node == 0
        assert sim.stats.n_redispatched == 1
        restores = [s for s in sim.trace.tasks if s.name.startswith("restore")]
        assert len(restores) == 1

    def test_task_failures_are_bounded_and_deterministic(self):
        def run():
            plan = FaultPlan(task_failures=TaskFailures(rate=0.9, seed=7, max_attempts=3))
            sim = ClusterSimulator(paper_testbed(2), faults=plan)
            for i in range(4):
                sim.task(f"job{i}", node=0, duration=2.0, cores=4)
            sim.run()
            return sim

        one, two = run(), run()
        # rate .9 fails both retryable attempts of all 4 tasks; the final
        # attempt always succeeds (bounded retry storm)
        assert one.stats.n_task_failures == 8
        assert one.trace.makespan == two.trace.makespan
        assert one.trace.to_records() == two.trace.to_records()
        points = [f for f in one.trace.faults if f.kind == "task_failure"]
        assert len(points) == 8 and all(f.start == f.end for f in points)

    def test_fault_spans_land_on_the_trace(self):
        sim = ClusterSimulator(paper_testbed(2), faults=CHAOS_PLAN,
                               recovery=ReDispatchRecovery(nodes=(0, 1)))
        prev = None
        for i in range(6):
            prev = sim.task(f"s{i}", node=i % 2, duration=1.5,
                            deps=[prev] if prev else [])
        sim.run()
        kinds = {f.kind for f in sim.trace.faults}
        assert "crash" in kinds
        assert sim.trace.summary()["n_faults"] == len(sim.trace.faults)


# --------------------------------------------------- framework recovery
SPEC_2N = dict(algorithm="ppo", n_nodes=2, cores_per_node=2,
               total_steps=400, eval_episodes=1)
SPEC_1N = dict(algorithm="ppo", n_nodes=1, cores_per_node=2,
               total_steps=400, eval_episodes=1)
WORKER_CRASH = FaultPlan(node_crashes=(NodeCrash(node=1, at=0.2),))
NODE0_CRASH_RESTART = FaultPlan(node_crashes=(NodeCrash(node=0, at=0.2, restart_after=0.5),))
NODE0_CRASH_FATAL = FaultPlan(node_crashes=(NodeCrash(node=0, at=0.2),))


class TestFrameworkRecovery:
    def test_rllib_redispatches_and_learning_is_unaffected(self):
        clean = get_framework("rllib").train(TrainSpec(**SPEC_2N))
        faulted = get_framework("rllib", fault_plan=WORKER_CRASH).train(
            TrainSpec(**SPEC_2N)
        )
        # faults live in virtual time only: the learning outcome is identical
        assert faulted.reward == clean.reward
        assert faulted.recovery_overhead_s > 0.0
        assert faulted.computation_time_s > clean.computation_time_s
        assert faulted.completion_under_faults == 1.0
        assert faulted.fault_stats is not None
        assert faulted.fault_stats["n_redispatched"] >= 1

    def test_stable_fails_fast_with_structured_extras(self):
        fw = get_framework("stable", fault_plan=NODE0_CRASH_FATAL)
        with pytest.raises(ClusterFaultError) as excinfo:
            fw.train(TrainSpec(**SPEC_1N))
        assert excinfo.value.extras["failure_stage"] == "cluster_fault"
        assert excinfo.value.extras["recovery_policy"] == "fail_fast"
        assert excinfo.value.extras["abort_time_s"] >= 0.0

    def test_stable_survives_crash_of_unused_node(self):
        result = get_framework("stable", fault_plan=WORKER_CRASH).train(
            TrainSpec(**SPEC_1N)
        )
        assert result.recovery_overhead_s == 0.0
        assert result.completion_under_faults == 1.0

    def test_tfagents_degrades_through_restart(self):
        clean = get_framework("tfagents").train(TrainSpec(**SPEC_1N))
        faulted = get_framework("tfagents", fault_plan=NODE0_CRASH_RESTART).train(
            TrainSpec(**SPEC_1N)
        )
        assert faulted.recovery_overhead_s > 0.0
        assert faulted.completion_under_faults == 1.0
        assert faulted.reward == clean.reward

    def test_tfagents_no_restart_is_penalized_not_raised(self):
        clean = get_framework("tfagents").train(TrainSpec(**SPEC_1N))
        faulted = get_framework("tfagents", fault_plan=NODE0_CRASH_FATAL).train(
            TrainSpec(**SPEC_1N)
        )
        assert faulted.completion_under_faults < 1.0
        assert faulted.computation_time_s == pytest.approx(
            2.0 * clean.computation_time_s
        )

    def test_empty_plan_matches_fault_free_run(self):
        plain = get_framework("stable").train(TrainSpec(**SPEC_1N))
        empty = get_framework("stable", fault_plan=FaultPlan()).train(
            TrainSpec(**SPEC_1N)
        )
        assert empty.reward == plain.reward
        assert empty.computation_time_s == plain.computation_time_s
        assert empty.fault_stats is None


# ------------------------------------------------------- campaign level
class TestResilienceCampaign:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_fingerprint_identical_across_executors(self, executor):
        study = FaultSimCaseStudy(fault_plan=CHAOS_PLAN)
        report = sim_campaign(study, executor=executor, max_workers=3).run()
        fingerprint = table_fingerprint(report.table)
        baseline = table_fingerprint(
            sim_campaign(FaultSimCaseStudy(fault_plan=CHAOS_PLAN)).run().table
        )
        assert fingerprint == baseline

    def test_resilience_front_exists(self):
        report = sim_campaign(FaultSimCaseStudy(fault_plan=CHAOS_PLAN)).run()
        assert "resilience" in report.rankings
        front = report.fronts()["resilience"]
        assert len(front) >= 1
        table = report.table
        overheads = {t.objectives["recovery_overhead"] for t in table.completed()}
        assert any(v > 0 for v in overheads)  # the plan actually bit

    def test_crash_killed_trial_retries_then_journals_once(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        study = FaultSimCaseStudy(fault_plan=CRASH_NODE1_PLAN, policy="fail_fast")
        report = sim_campaign(
            study,
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
            journal=CampaignJournal(path),
        ).run()
        failed = [t for t in report.table if t.status == TrialStatus.FAILED]
        survived = [t for t in report.table if t.ok]
        assert failed and survived  # wide configs die, narrow ones live
        assert all(t.extras["failure_stage"] == "cluster_fault" for t in failed)
        # each failed trial burned the retry budget (initial + 1 retry)
        calls = {}
        for config in study.evaluated:
            calls[config.trial_id] = calls.get(config.trial_id, 0) + 1
        for t in failed:
            assert calls[t.trial_id] == 2
        # journaled exactly once, with the final outcome
        rows = [json.loads(line) for line in open(path, encoding="utf-8")]
        trial_rows = [r for r in rows if r["type"] == "trial"]
        assert len(trial_rows) == len(report.table)
        assert sorted(r["trial_id"] for r in trial_rows) == sorted(
            t.trial_id for t in report.table
        )

    def test_faulted_campaign_survives_kill_then_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        interrupted = FaultSimCaseStudy(fault_plan=CHAOS_PLAN, interrupt_at=5)
        with pytest.raises(KeyboardInterrupt):
            sim_campaign(interrupted, journal=CampaignJournal(path)).run()
        recorded = CampaignJournal.resume(path).n_recorded
        assert 0 < recorded < 6
        study = FaultSimCaseStudy(fault_plan=CHAOS_PLAN)
        report = sim_campaign(study, journal=CampaignJournal.resume(path)).run()
        assert report.meta["n_replayed"] == recorded
        assert len(study.evaluated) == 6 - recorded
        full = sim_campaign(FaultSimCaseStudy(fault_plan=CHAOS_PLAN)).run()
        assert table_fingerprint(report.table) == table_fingerprint(full.table)

    def test_resume_under_different_fault_plan_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sim_campaign(
            FaultSimCaseStudy(fault_plan=CHAOS_PLAN), journal=CampaignJournal(path)
        ).run()
        other = FaultSimCaseStudy(fault_plan=CRASH_NODE1_PLAN)
        with pytest.raises(JournalMismatch, match="fault_plan"):
            sim_campaign(other, journal=CampaignJournal.resume(path)).run()


# ------------------------------------------------------- perfetto lane
class TestPerfettoFaultLane:
    def test_faults_render_on_a_dedicated_track(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(node=1, at=1.0, restart_after=2.0),),
            task_failures=TaskFailures(rate=0.9, seed=3, max_attempts=2),
        )
        sim = ClusterSimulator(paper_testbed(2), faults=plan,
                               recovery=DegradeRecovery())
        prev = None
        for i in range(4):
            prev = sim.task(f"s{i}", node=i % 2, duration=1.0,
                            deps=[prev] if prev else [])
        sim.run()
        payload = chrome_trace(sim.trace.to_records(trial_id=1))
        assert validate_chrome_trace(payload) == []
        lanes = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        assert any(lane.endswith("faults") for lane in lanes)
        fault_events = [
            e for e in payload["traceEvents"] if e.get("cat") == "virtual.fault"
        ]
        assert fault_events
        # point faults (task failures) are rendered as instants
        assert any(e["ph"] == "i" for e in fault_events)
        # windowed faults (the crash) are rendered as slices
        assert any(e["ph"] == "X" for e in fault_events)
