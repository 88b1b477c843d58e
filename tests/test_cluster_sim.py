"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, ClusterSpec, LinkSpec, NodeSpec, paper_testbed


def two_node_sim() -> ClusterSimulator:
    return ClusterSimulator(paper_testbed(2))


class TestTaskAuthoring:
    def test_invalid_node(self):
        sim = two_node_sim()
        with pytest.raises(ValueError):
            sim.task("t", node=5, duration=1.0)

    def test_too_many_cores(self):
        sim = two_node_sim()
        with pytest.raises(ValueError):
            sim.task("t", node=0, duration=1.0, cores=8)

    def test_negative_duration(self):
        sim = two_node_sim()
        with pytest.raises(ValueError):
            sim.task("t", node=0, duration=-1.0)

    def test_foreign_dependency_rejected(self):
        sim_a, sim_b = two_node_sim(), two_node_sim()
        t = sim_a.task("a", 0, 1.0)
        from repro.cluster.simulator import Task

        with pytest.raises(ValueError):
            sim_b.task("b", 0, 1.0, deps=[Task("x", 0, 1, 1.0)])


class TestScheduling:
    def test_single_task_makespan(self):
        sim = two_node_sim()
        sim.task("t", 0, duration=3.5)
        trace = sim.run()
        assert trace.makespan == pytest.approx(3.5)

    def test_parallel_tasks_share_cores(self):
        sim = two_node_sim()
        for i in range(4):
            sim.task(f"t{i}", 0, duration=2.0)
        trace = sim.run()
        assert trace.makespan == pytest.approx(2.0)  # 4 cores → all parallel

    def test_oversubscription_serializes(self):
        sim = two_node_sim()
        for i in range(5):
            sim.task(f"t{i}", 0, duration=2.0)
        trace = sim.run()
        assert trace.makespan == pytest.approx(4.0)  # fifth task waits

    def test_multicore_task_blocks_node(self):
        sim = two_node_sim()
        sim.task("big", 0, duration=1.0, cores=4)
        sim.task("small", 0, duration=1.0, cores=1)
        trace = sim.run()
        assert trace.makespan == pytest.approx(2.0)

    def test_dependency_ordering(self):
        sim = two_node_sim()
        a = sim.task("a", 0, duration=1.0)
        b = sim.task("b", 0, duration=1.0, deps=[a])
        c = sim.task("c", 0, duration=1.0, deps=[b])
        trace = sim.run()
        assert trace.makespan == pytest.approx(3.0)
        spans = {s.name: s for s in trace.tasks}
        assert spans["b"].start >= spans["a"].end
        assert spans["c"].start >= spans["b"].end

    def test_fork_join(self):
        sim = two_node_sim()
        root = sim.task("root", 0, 1.0)
        children = [sim.task(f"c{i}", 0, 2.0, deps=[root]) for i in range(4)]
        join = sim.task("join", 0, 0.5, deps=children)
        trace = sim.run()
        assert trace.makespan == pytest.approx(1.0 + 2.0 + 0.5)

    def test_cross_node_parallelism(self):
        sim = two_node_sim()
        sim.task("a", 0, duration=5.0, cores=4)
        sim.task("b", 1, duration=5.0, cores=4)
        trace = sim.run()
        assert trace.makespan == pytest.approx(5.0)

    def test_no_core_oversubscription_in_trace(self):
        rng = np.random.default_rng(0)
        sim = two_node_sim()
        prev = None
        for i in range(40):
            deps = [prev] if prev and rng.random() < 0.3 else []
            t = sim.task(f"t{i}", int(rng.integers(2)), float(rng.uniform(0.1, 3.0)),
                         cores=int(rng.integers(1, 5)), deps=deps)
            if rng.random() < 0.5:
                prev = t
        trace = sim.run()
        for node in (0, 1):
            times, busy = trace.busy_core_timeline(node)
            assert np.all(busy <= 4)
            assert np.all(busy >= 0)

    def test_deterministic_replay(self):
        def build():
            sim = two_node_sim()
            a = sim.task("a", 0, 1.0)
            b = sim.transfer("x", 0, 1, 1e6, deps=[a])
            sim.task("c", 1, 2.0, deps=[b])
            return sim.run()

        t1, t2 = build(), build()
        assert t1.makespan == t2.makespan
        assert [s.name for s in t1.tasks] == [s.name for s in t2.tasks]


class TestTransfers:
    def test_transfer_time_formula(self):
        spec = paper_testbed(2)
        sim = ClusterSimulator(spec)
        sim.transfer("x", 0, 1, n_bytes=1.25e8)  # 1 Gbit = 1s at 1 Gbps
        trace = sim.run()
        expected = spec.link.latency_s + 1.0
        assert trace.makespan == pytest.approx(expected)

    def test_same_node_transfer_free(self):
        sim = two_node_sim()
        sim.transfer("x", 0, 0, n_bytes=1e9)
        trace = sim.run()
        assert trace.makespan == pytest.approx(0.0)

    def test_link_serializes_messages(self):
        sim = two_node_sim()
        sim.transfer("x1", 0, 1, n_bytes=1.25e8)
        sim.transfer("x2", 0, 1, n_bytes=1.25e8)
        trace = sim.run()
        assert trace.makespan >= 2.0

    def test_opposite_directions_are_independent(self):
        sim = two_node_sim()
        sim.transfer("x1", 0, 1, n_bytes=1.25e8)
        sim.transfer("x2", 1, 0, n_bytes=1.25e8)
        trace = sim.run()
        assert trace.makespan < 1.5  # full duplex

    def test_transfer_recorded(self):
        sim = two_node_sim()
        sim.transfer("x", 0, 1, n_bytes=1000)
        trace = sim.run()
        assert len(trace.transfers) == 1
        assert trace.bytes_transferred() == 1000


class TestTopology:
    def test_paper_testbed_shape(self):
        spec = paper_testbed(2)
        assert spec.n_nodes == 2
        assert sum(node.n_cores for node in spec.nodes) == 8
        assert spec.link.bandwidth_gbps == 1.0

    def test_invalid_testbed_size(self):
        with pytest.raises(ValueError):
            paper_testbed(3)

    def test_duplicate_node_names(self):
        with pytest.raises(ValueError):
            ClusterSpec(nodes=(NodeSpec("a"), NodeSpec("a")))

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1.0)

    def test_transfer_time_monotone_in_bytes(self):
        link = LinkSpec()
        assert link.transfer_time(2000) > link.transfer_time(1000)
        with pytest.raises(ValueError):
            link.transfer_time(-1)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("n", n_cores=0)
        with pytest.raises(ValueError):
            NodeSpec("n", core_speed=0.0)


class TestTrace:
    def test_utilization_bounds(self):
        sim = two_node_sim()
        sim.task("t", 0, duration=2.0, cores=4)
        trace = sim.run()
        assert trace.utilization(0, 4) == pytest.approx(1.0)
        assert trace.utilization(1, 4) == 0.0

    def test_busy_core_timeline_integral(self):
        sim = two_node_sim()
        sim.task("a", 0, 2.0, cores=2)
        sim.task("b", 0, 1.0, cores=1)
        trace = sim.run()
        assert trace.node_busy_core_seconds(0) == pytest.approx(2 * 2 + 1 * 1)

    def test_summary_keys(self):
        sim = two_node_sim()
        sim.task("a", 0, 1.0)
        trace = sim.run()
        s = trace.summary()
        assert s["n_tasks"] == 1
        assert s["makespan_s"] == pytest.approx(1.0)
