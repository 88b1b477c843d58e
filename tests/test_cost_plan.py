"""The cost half of the paper, from the plan alone.

Computation Time and Power Consumption come from the virtual DAG, a pure
function of a configuration and of the steps its run executed
(:meth:`repro.frameworks.Framework.plan`). These tests hold the plan to
the trained trials bit for bit (fault-free, faulted and pruned) and check
the paper's cost claims on it, with no training, at the default 20,000
steps and at the paper's own 200,000. The bands are EXPERIMENTS.md's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Configuration
from repro.core.pareto import non_dominated_mask
from repro.faults import ClusterFaultError, FaultPlan
from repro.frameworks import TrainSpec, get_framework
from repro.paper import PAPER_ANCHORS, PAPER_FRONTS, TABLE1_CONFIGS, AirdropCaseStudy, Scale
from repro.rl import SACConfig

ROWS = sorted(TABLE1_CONFIGS)
#: CI's canned plan: repro faults generate --seed 7 --nodes 2 --horizon 6
CANNED_FAULTS = FaultPlan.sample(seed=7, n_nodes=2, horizon_s=6.0, intensity=1.0)


def _config(solution: int) -> Configuration:
    return Configuration(TABLE1_CONFIGS[solution], trial_id=solution)


class TestPlanEqualsTraining:
    @pytest.mark.parametrize(
        "fault_plan", [None, CANNED_FAULTS], ids=["fault-free", "canned-faults"]
    )
    def test_every_table1_row(self, fault_plan):
        study = AirdropCaseStudy(
            scale=Scale(real_steps=200), n_envs=8, fault_plan=fault_plan
        )
        n_faulted = 0
        for solution in ROWS:
            config = _config(solution)
            try:
                trained = study.evaluate(config, seed=0)
            except ClusterFaultError:
                n_faulted += 1
                with pytest.raises(ClusterFaultError):
                    study.cost(config)
                continue
            cost = study.cost(config)
            # seconds, not minutes: a round trip through minutes can flip the last bit
            assert cost.computation_time_s == trained["computation_time"], solution
            assert cost.energy_kj == trained["power_consumption"], solution
            if fault_plan is not None:
                assert cost.recovery_overhead_s == trained["recovery_overhead"], solution
                assert cost.work_lost_steps == trained["work_lost"], solution
                n_faulted += trained["recovery_overhead"] > 0.0
        # the canned plan reaches the runs, so the faulted comparison means something
        assert (n_faulted > 0) == (fault_plan is not None)

    def test_pruned_trial_is_priced_at_the_steps_it_ran(self):
        study = AirdropCaseStudy(scale=Scale(real_steps=1_500), n_envs=8)
        config = _config(15)  # Stable Baselines SAC: updates from step 1,000 on
        trained = study.evaluate(config, seed=0, progress=lambda steps, _: steps >= 1_200)
        steps_run = int(trained["diag_real_steps"])
        assert 1_000 < steps_run < 1_500
        framework = study.framework(config)
        pruned = framework.price(framework.plan(study.make_spec(config, seed=0), steps_run))
        assert pruned.computation_time_s == trained["computation_time"]
        assert pruned.energy_kj == trained["power_consumption"]
        assert study.cost(config).computation_time_s != pruned.computation_time_s

    def test_vtrace_back_end(self):
        spec = TrainSpec(
            algorithm="ppo", n_nodes=2, cores_per_node=2, total_steps=300,
            env_kwargs={"rk_order": 3}, eval_episodes=2,
        )
        framework = get_framework("impala")
        trained = framework.train(spec)
        cost = framework.price(framework.plan(spec, spec.total_steps))
        assert cost.computation_time_s == trained.computation_time_s
        assert cost.energy_kj == trained.energy_kj
        assert cost.diagnostics["real_steps"] == trained.diagnostics["real_steps"]

    def test_plan_needs_a_step(self):
        with pytest.raises(ValueError, match="steps_done"):
            get_framework("stable").plan(TrainSpec(), 0)


class TestSACCadence:
    @pytest.mark.parametrize(
        "config",
        [
            SACConfig(),
            SACConfig(learning_starts=10, batch_size=32, update_every=3, updates_per_step=2),
            SACConfig(learning_starts=0, batch_size=5, buffer_capacity=5, update_every=4),
        ],
        ids=["default", "batch-after-warmup", "no-warmup"],
    )
    def test_closed_form_counts_every_due_update(self, config):
        def due(n: int) -> bool:  # the per-transition test, spelled out
            return (
                n >= config.learning_starts
                and min(n, config.buffer_capacity) >= config.batch_size
                and n % config.update_every == 0
            )

        for start, stop in [(0, 1), (0, 100), (37, 261), (900, 1_000), (999, 1_100)]:
            expected = sum(due(n) for n in range(start + 1, stop + 1))
            assert config.updates_between(start, stop) == expected * config.updates_per_step

    def test_buffer_must_hold_a_batch(self):
        with pytest.raises(ValueError, match="buffer_capacity"):
            SACConfig(batch_size=64, buffer_capacity=63)


@pytest.fixture(scope="module", params=[20_000, 200_000], ids=["20k", "200k"])
def planned(request):
    """Every Table I row's cost plan at ``n_envs=1``, priced, no training."""
    study = AirdropCaseStudy(scale=Scale(real_steps=request.param))
    return {solution: study.cost(_config(solution)) for solution in ROWS}


def _mean(planned, algorithm: str, attr: str) -> float:
    return float(
        np.mean(
            [
                getattr(cost, attr)
                for solution, cost in planned.items()
                if TABLE1_CONFIGS[solution]["algorithm"] == algorithm
            ]
        )
    )


class TestPaperCostClaims:
    @pytest.mark.parametrize("solution", sorted(PAPER_ANCHORS))
    def test_timing_anchor_within_3_percent(self, planned, solution):
        minutes, _ = PAPER_ANCHORS[solution]
        planned_min = planned[solution].computation_time_s / 60.0
        assert abs(planned_min - minutes) / minutes < 0.03, (
            f"solution {solution}: planned {planned_min:.2f} min vs paper {minutes} min"
        )

    @pytest.mark.parametrize(
        "solution", sorted(s for s, (_, kj) in PAPER_ANCHORS.items() if kj is not None)
    )
    def test_energy_anchor_within_7_percent(self, planned, solution):
        _, kj = PAPER_ANCHORS[solution]
        planned_kj = planned[solution].energy_kj
        assert abs(planned_kj - kj) / kj < 0.07, (
            f"solution {solution}: planned {planned_kj:.1f} kJ vs paper {kj} kJ"
        )

    def test_sac_is_slower_and_hungrier_than_ppo(self, planned):
        """§VI-D: SAC takes "too much time for computation and consum[es]
        too much power"."""
        sac_time, ppo_time = (_mean(planned, a, "computation_time_s") for a in ("sac", "ppo"))
        sac_energy, ppo_energy = (_mean(planned, a, "energy_kj") for a in ("sac", "ppo"))
        assert sac_time > 2.0 * ppo_time
        assert sac_energy > 1.5 * ppo_energy

    def test_rk_order_orders_time(self, planned):
        """§IV-B on the identical rllib/ppo/2n/4c rows: RK3 < RK5 < RK8."""
        times = [planned[s].computation_time_s for s in (2, 5, 8)]
        assert times[0] < times[1] < times[2]

    def test_four_cores_beat_two(self, planned):
        """§VI-D, solutions 10 vs 11: all four cores win on time and energy."""
        assert planned[11].computation_time_s < 0.7 * planned[10].computation_time_s
        assert planned[11].energy_kj < planned[10].energy_kj

    def test_fig5_front(self, planned):
        """§VI-B: 11 is the least power-consuming row and 2 the fastest,
        both on the front; every front member is PPO on all 4 cores; and
        one node beats every two-node row on energy."""
        ids = sorted(planned)
        points = np.array([[planned[s].energy_kj, planned[s].computation_time_s] for s in ids])
        front = {ids[i] for i in np.flatnonzero(non_dominated_mask(points, ["min", "min"]))}
        assert min(ids, key=lambda s: planned[s].energy_kj) == 11
        assert min(ids, key=lambda s: planned[s].computation_time_s) == 2
        assert {2, 11} <= front
        for solution in front:
            assert TABLE1_CONFIGS[solution]["algorithm"] == "ppo"
            assert TABLE1_CONFIGS[solution]["cores_per_node"] == 4
        paper_front = PAPER_FRONTS["fig5"][1]
        assert len(front & paper_front) / len(paper_front) >= 0.5
        for solution in ids:
            if TABLE1_CONFIGS[solution]["n_nodes"] == 2:
                assert planned[11].energy_kj < planned[solution].energy_kj
