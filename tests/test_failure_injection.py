"""Failure-injection tests: the system degrades gracefully, not silently."""

from __future__ import annotations

import numpy as np
import pytest

import repro.airdrop  # noqa: F401
from repro.airdrop import AirdropEnv, ParafoilParams
from repro.core import (
    Campaign,
    Categorical,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
    SortedTableRanking,
    TrialStatus,
)
from repro.envs import Box, Env, register
from repro.frameworks import EnvStepError, TrainSpec, get_framework
from repro.rl import (
    DivergenceError,
    PPOAgent,
    RolloutBatch,
    SACAgent,
    SACConfig,
    Transition,
)


class ExplodingEnv(Env):
    """Raises after a configurable number of steps."""

    def __init__(self, fuse: int = 50) -> None:
        self.observation_space = Box(-np.inf, np.inf, shape=(3,))
        self.action_space = Box(-1, 1, shape=(1,))
        self.fuse = fuse
        self.count = 0

    def reset(self, *, seed=None, options=None):
        super().reset(seed=seed)
        return np.zeros(3), {}

    def step(self, action):
        self.count += 1
        if self.count >= self.fuse:
            raise RuntimeError("hardware fault")
        return np.zeros(3), 0.0, False, True, {}


class SecondWorkerFirstEnv(ExplodingEnv):
    """The first instance built burns its fuse after 40 steps, every later
    one after 30, so the second of two lockstep workers raises first."""

    built = 0

    def __init__(self) -> None:
        SecondWorkerFirstEnv.built += 1
        super().__init__(fuse=40 if SecondWorkerFirstEnv.built == 1 else 30)


class TestEnvNumericalFailure:
    def test_nonfinite_state_terminates_episode(self):
        """A numerically destroyed package ends the episode with a large
        penalty instead of propagating NaNs into the learner."""
        env = AirdropEnv(rk_order=3)
        env.reset(seed=0)
        # corrupt the internal state to force a non-finite integration
        env._state[5] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            obs, reward, term, trunc, info = env.step(np.zeros(1))
        assert term
        assert info.get("numerical_failure") is True
        assert reward == -10.0
        assert np.all(np.isfinite(obs))

    def test_extreme_parameters_stay_finite(self):
        """A violently unstable canopy configuration must still produce
        finite observations or a flagged failure — never silent NaNs."""
        params = ParafoilParams(roll_omega0=6.0, roll_zeta=0.01)
        env = AirdropEnv(rk_order=3, params=params)
        obs, _ = env.reset(seed=1)
        rng = np.random.default_rng(1)
        for _ in range(300):
            obs, reward, term, trunc, info = env.step(rng.uniform(-1, 1, 1))
            assert np.all(np.isfinite(obs))
            assert np.isfinite(reward)
            if term or trunc:
                break


class TestFrameworkFailurePropagation:
    def test_mid_training_env_crash_surfaces(self):
        register("Exploding-v0", ExplodingEnv, max_episode_steps=10, force=True)
        fw = get_framework("stable")
        spec = TrainSpec(
            algorithm="ppo", n_nodes=1, cores_per_node=2,
            env_id="Exploding-v0", env_kwargs={"fuse": 30},
            total_steps=500, eval_episodes=1,
        )
        with pytest.raises(RuntimeError, match="hardware fault"):
            fw.train(spec)

    def test_env_crash_is_typed_with_step_count(self):
        register("Exploding-v0", ExplodingEnv, max_episode_steps=10, force=True)
        fw = get_framework("stable")
        spec = TrainSpec(
            algorithm="ppo", n_nodes=1, cores_per_node=2,
            env_id="Exploding-v0", env_kwargs={"fuse": 30},
            total_steps=500, eval_episodes=1,
        )
        with pytest.raises(EnvStepError) as excinfo:
            fw.train(spec)
        exc = excinfo.value
        assert exc.extras["failure_stage"] == "env_step"
        assert exc.extras["env_error"] == "RuntimeError"
        # the fuse burns on the ~30th local step of one of the workers;
        # the recorded index is the global (across-workers) step count
        assert 0 < exc.extras["env_step"] <= 100

    @pytest.mark.parametrize("framework", ["stable", "impala"])
    def test_env_step_is_the_failing_transition(self, framework):
        register("SecondWorkerFirst-v0", SecondWorkerFirstEnv, max_episode_steps=10, force=True)
        SecondWorkerFirstEnv.built = 0
        spec = TrainSpec(
            algorithm="ppo", n_nodes=1, cores_per_node=2,
            env_id="SecondWorkerFirst-v0", total_steps=500, eval_episodes=1,
        )
        with pytest.raises(EnvStepError) as excinfo:
            get_framework(framework).train(spec)
        # worker 1 raises on its 30th step: lockstep transition 29 * 2 + 1
        assert excinfo.value.extras["env_step"] == 59

    def test_campaign_records_structured_env_failure(self):
        register("Exploding-v0", ExplodingEnv, max_episode_steps=10, force=True)

        class ExplodingStudy:
            def evaluate(self, config, seed, progress=None):
                spec = TrainSpec(
                    algorithm="ppo", n_nodes=1, cores_per_node=2,
                    env_id="Exploding-v0", env_kwargs={"fuse": 30},
                    total_steps=500, eval_episodes=1,
                )
                get_framework("stable").train(spec)
                return {"loss": 0.0}

        space = ParameterSpace([Categorical("x", [1])])
        report = Campaign(
            ExplodingStudy(),
            space,
            GridSearch(space),
            MetricSet([Metric(name="loss", direction="min")]),
        ).run()
        (failed,) = [t for t in report.table if not t.ok]
        assert failed.extras["failure_stage"] == "env_step"
        assert isinstance(failed.extras["env_step"], int)
        assert "hardware fault" in failed.extras["error"]


class TestDivergenceGuards:
    def test_ppo_nan_loss_raises_before_optimizer_step(self):
        agent = PPOAgent(3, 1, seed=0)
        n = 8
        batch = RolloutBatch(
            observations=np.zeros((n, 3)),
            actions=np.zeros((n, 1)),
            log_probs=np.zeros(n),
            advantages=np.full(n, np.nan),
            returns=np.zeros(n),
            values=np.zeros(n),
        )
        before = agent.actor.state_dict()
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                agent._update_minibatch(batch)
        assert excinfo.value.extras["failure_stage"] == "divergence"
        assert excinfo.value.extras["algorithm"] == "ppo"
        assert excinfo.value.extras["quantity"] == "policy_loss"
        # the optimizer never stepped: weights are untouched
        after = agent.actor.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_sac_nan_reward_raises_before_optimizer_step(self):
        agent = SACAgent(2, 1, SACConfig(hidden_sizes=(16,)), seed=0)
        n = 4
        batch = Transition(
            observations=np.zeros((n, 2)),
            actions=np.zeros((n, 1)),
            rewards=np.full(n, np.nan),
            next_observations=np.zeros((n, 2)),
            terminations=np.zeros(n),
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                agent._update_once(batch)
        assert excinfo.value.extras["algorithm"] == "sac"
        assert excinfo.value.extras["quantity"] == "q_loss"
        assert excinfo.value.extras["n_updates"] == 0


class TestCampaignQuarantinesFailures:
    def test_failing_trials_do_not_sink_the_campaign(self):
        class HalfBrokenStudy:
            def evaluate(self, config, seed, progress=None):
                if config["x"] % 2 == 0:
                    raise RuntimeError("node crash")
                return {"loss": float(config["x"])}

        space = ParameterSpace([Categorical("x", [1, 2, 3, 4])])
        campaign = Campaign(
            HalfBrokenStudy(),
            space,
            GridSearch(space),
            MetricSet([Metric(name="loss", direction="min")]),
            rankers=[SortedTableRanking("loss")],
        )
        report = campaign.run()
        statuses = [t.status for t in report.table]
        assert statuses.count(TrialStatus.FAILED) == 2
        assert statuses.count(TrialStatus.COMPLETED) == 2
        # rankings built from the survivors only
        ranking = next(iter(report.rankings.values()))
        assert all(t.ok for t in ranking.ordered)
        # failure forensics retained
        failed = [t for t in report.table if not t.ok]
        assert "node crash" in failed[0].extras["error"]
        assert "traceback" in failed[0].extras
