"""Integration tests for the framework back-ends (small real budgets)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.airdrop  # noqa: F401
from repro.frameworks import (
    FRAMEWORKS,
    CostModel,
    RLlibLike,
    StableBaselinesLike,
    TFAgentsLike,
    TrainSpec,
    get_framework,
)
from repro.rl import PPOConfig


def tiny_spec(**kw) -> TrainSpec:
    defaults = dict(
        algorithm="ppo",
        n_nodes=1,
        cores_per_node=2,
        seed=0,
        env_kwargs={"rk_order": 3},
        total_steps=1500,
        train_batch_size=256,
        eval_episodes=3,
    )
    defaults.update(kw)
    return TrainSpec(**defaults)


class TestRegistry:
    def test_all_frameworks_registered(self):
        # the paper's three frameworks plus the IMPALA extension back-end
        assert set(FRAMEWORKS) == {"rllib", "stable", "tfagents", "impala"}

    def test_get_framework_unknown(self):
        with pytest.raises(KeyError):
            get_framework("torchbeast")

    def test_instances(self):
        assert isinstance(get_framework("rllib"), RLlibLike)
        assert isinstance(get_framework("stable"), StableBaselinesLike)
        assert isinstance(get_framework("tfagents"), TFAgentsLike)


class TestValidation:
    def test_single_node_frameworks_reject_multi_node(self):
        for name in ("stable", "tfagents"):
            fw = get_framework(name)
            with pytest.raises(ValueError):
                fw.train(tiny_spec(n_nodes=2))

    def test_rllib_accepts_multi_node(self):
        fw = get_framework("rllib")
        fw.validate(tiny_spec(n_nodes=2))

    def test_too_many_cores_rejected(self):
        fw = get_framework("stable")
        with pytest.raises(ValueError):
            fw.validate(tiny_spec(cores_per_node=16))

    def test_too_many_nodes_rejected(self):
        fw = get_framework("rllib")
        with pytest.raises(ValueError):
            fw.validate(tiny_spec(n_nodes=3))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TrainSpec(algorithm="dqn")
        with pytest.raises(ValueError):
            TrainSpec(n_nodes=0)
        with pytest.raises(ValueError):
            TrainSpec(total_steps=0)

    def test_eval_episodes_must_be_positive(self):
        # rejected before training: with no episode the serial evaluator
        # returned nan and the batched one raised after the whole run
        with pytest.raises(ValueError, match="eval_episodes"):
            TrainSpec(eval_episodes=0)


class TestLayouts:
    def test_rllib_layout_spreads_workers(self):
        layout = RLlibLike().layout(tiny_spec(n_nodes=2, cores_per_node=3))
        assert layout.worker_nodes == (0, 0, 0, 1, 1, 1)
        assert layout.stale_remote_policy
        assert layout.ships_experience

    def test_rllib_single_node_not_stale(self):
        layout = RLlibLike().layout(tiny_spec(n_nodes=1, cores_per_node=4))
        assert not layout.stale_remote_policy

    def test_single_node_layouts(self):
        for cls in (StableBaselinesLike, TFAgentsLike):
            layout = cls().layout(tiny_spec(cores_per_node=4))
            assert layout.worker_nodes == (0, 0, 0, 0)
            assert not layout.ships_experience

    def test_layout_groups(self):
        layout = RLlibLike().layout(tiny_spec(n_nodes=2, cores_per_node=2))
        assert layout.groups() == {0: [0, 1], 1: [2, 3]}


def stamp_versions(framework):
    """Make ``framework``'s on-policy agent stamp every policy snapshot
    with its update count; return the log of ``(learner's update count,
    acting weights' update count)`` of every stochastic act call."""
    calls: list[tuple[int, int]] = []
    make_agent = framework._make_agent

    def stamped(spec, obs_dim, act_dim):
        agent = make_agent(spec, obs_dim, act_dim)
        # updates made, and the update count of the weights the agent holds
        updates, held = [0], [0]
        policy_state, load, update, act = (
            agent.policy_state, agent.load_policy_state, agent.update, agent.act
        )

        def load_policy_state(state):
            load(state)
            held[0] = state["version"]

        def update_and_stamp(buffer):
            stats = update(buffer)
            updates[0] += 1
            held[0] = updates[0]
            return stats

        def logged_act(observations, deterministic=False):
            if not deterministic:
                calls.append((updates[0], held[0]))
            return act(observations, deterministic)

        agent.policy_state = lambda: {**policy_state(), "version": held[0]}
        agent.load_policy_state = load_policy_state
        agent.update = update_and_stamp
        agent.act = logged_act
        return agent

    framework._make_agent = stamped
    return calls


class TestPolicyLag:
    @pytest.mark.parametrize(
        "name,n_nodes,lagged",
        [
            ("rllib", 2, [False, True]),  # the local group, then the remote one
            ("impala", 2, [True]),  # every actor in one call
            ("stable", 1, [False]),
        ],
    )
    def test_lagged_groups_act_on_weights_two_updates_old(self, name, n_nodes, lagged):
        fw = get_framework(name)
        calls = stamp_versions(fw)
        # two workers, 32 steps each per iteration, five iterations
        fw.train(tiny_spec(
            n_nodes=n_nodes, cores_per_node=2 // n_nodes, train_batch_size=64,
            total_steps=320, eval_episodes=1,
        ))
        assert sorted({k for k, _ in calls}) == [0, 1, 2, 3, 4]
        assert len(calls) == 5 * 32 * len(lagged)
        for i, (k, version) in enumerate(calls):
            assert version == (max(k - 2, 0) if lagged[i % len(lagged)] else k), i


class TestPPOTraining:
    @pytest.mark.parametrize("name", ["rllib", "stable", "tfagents"])
    def test_train_produces_result(self, name):
        fw = get_framework(name)
        result = fw.train(tiny_spec())
        assert result.framework == name
        assert np.isfinite(result.reward)
        assert result.computation_time_s > 0
        assert result.energy_kj > 0
        assert result.diagnostics["episodes"] > 0
        assert len(result.learning_curve) > 0

    def test_multi_node_ships_experience(self):
        fw = get_framework("rllib")
        result = fw.train(tiny_spec(n_nodes=2))
        assert result.diagnostics["bytes_transferred"] > 0

    def test_single_node_no_network(self):
        fw = get_framework("stable")
        result = fw.train(tiny_spec())
        assert result.diagnostics["bytes_transferred"] == 0

    def test_virtual_time_scales_with_paper_steps(self):
        fw = get_framework("stable")
        r1 = fw.train(tiny_spec(paper_steps=100_000))
        r2 = fw.train(tiny_spec(paper_steps=200_000))
        assert r2.computation_time_s == pytest.approx(2 * r1.computation_time_s, rel=1e-6)

    def test_rk_order_increases_virtual_time(self):
        fw = get_framework("stable")
        t3 = fw.train(tiny_spec(env_kwargs={"rk_order": 3})).computation_time_s
        t8 = fw.train(tiny_spec(env_kwargs={"rk_order": 8})).computation_time_s
        assert t8 > t3
        # but far less than the 4x stage ratio (fixed overheads dominate)
        assert t8 / t3 < 2.0

    def test_more_cores_faster(self):
        fw = get_framework("tfagents")
        t2 = fw.train(tiny_spec(cores_per_node=2)).computation_time_s
        t4 = fw.train(tiny_spec(cores_per_node=4)).computation_time_s
        assert t4 < t2

    def test_two_nodes_faster_than_one(self):
        fw = get_framework("rllib")
        t1 = fw.train(tiny_spec(n_nodes=1, cores_per_node=4)).computation_time_s
        t2 = fw.train(tiny_spec(n_nodes=2, cores_per_node=4)).computation_time_s
        assert t2 < t1

    def test_two_nodes_more_energy_per_minute(self):
        fw = get_framework("rllib")
        r1 = fw.train(tiny_spec(n_nodes=1, cores_per_node=4))
        r2 = fw.train(tiny_spec(n_nodes=2, cores_per_node=4))
        power1 = r1.energy_kj * 1000 / r1.computation_time_s
        power2 = r2.energy_kj * 1000 / r2.computation_time_s
        assert power2 > power1

    def test_deterministic_given_seed(self):
        fw = get_framework("stable")
        r1 = fw.train(tiny_spec(seed=5))
        r2 = fw.train(tiny_spec(seed=5))
        assert r1.reward == r2.reward
        assert r1.computation_time_s == r2.computation_time_s
        assert r1.energy_kj == r2.energy_kj

    def test_different_frameworks_different_streams(self):
        ra = get_framework("stable").train(tiny_spec(cores_per_node=4))
        rb = get_framework("tfagents").train(tiny_spec(cores_per_node=4))
        assert ra.reward != rb.reward  # decorrelated seed streams

    def test_callback_can_stop_early(self):
        fw = get_framework("stable")
        calls = []

        def stop_after_two(steps, reward):
            calls.append(steps)
            return len(calls) >= 2

        result = fw.train(tiny_spec(total_steps=10_000), callback=stop_after_two)
        assert result.diagnostics["real_steps"] < 10_000

    def test_effective_ppo_framework_defaults(self):
        spec = tiny_spec()
        assert TFAgentsLike().effective_ppo(spec).n_epochs == 6
        assert StableBaselinesLike().effective_ppo(spec).n_epochs == 10
        # explicit user config is honoured verbatim
        spec_custom = tiny_spec(ppo=PPOConfig(n_epochs=3))
        assert TFAgentsLike().effective_ppo(spec_custom).n_epochs == 3


class TestSACTraining:
    def test_sac_runs_and_is_expensive(self):
        fw = get_framework("stable")
        sac = fw.train(tiny_spec(algorithm="sac", total_steps=800))
        ppo = fw.train(tiny_spec(algorithm="ppo", total_steps=800))
        assert np.isfinite(sac.reward)
        # SAC's per-step updates dominate: far more virtual time per step
        assert sac.computation_time_s > ppo.computation_time_s

    def test_sac_multi_node_ships_experience(self):
        fw = get_framework("rllib")
        result = fw.train(tiny_spec(algorithm="sac", n_nodes=2, total_steps=500))
        assert result.diagnostics["bytes_transferred"] > 0


class TestGenericEnvironments:
    """The framework layer accepts any registered continuous-action env."""

    def test_pendulum_training(self):
        import repro.classic  # noqa: F401  (registers Pendulum-v0)

        fw = get_framework("stable")
        spec = TrainSpec(
            algorithm="ppo",
            n_nodes=1,
            cores_per_node=2,
            seed=0,
            env_id="Pendulum-v0",
            env_kwargs={"rk_order": 3},
            total_steps=1200,
            eval_episodes=2,
        )
        result = fw.train(spec)
        # pendulum returns are large negative costs, not landing scores
        assert result.reward < -100
        assert np.isfinite(result.eval_reward)
        assert result.computation_time_s > 0

    def test_action_mapper_scales_to_env_bounds(self):
        from repro.envs import Box, Env
        from repro.frameworks.base import _space_action_mapper

        class TorqueEnv(Env):
            def __init__(self):
                self.observation_space = Box(-1, 1, shape=(1,))
                self.action_space = Box(-2.0, 2.0, shape=(1,))

        mapper = _space_action_mapper(TorqueEnv().action_space)
        assert np.allclose(mapper(np.array([1.0])), [2.0])
        assert np.allclose(mapper(np.array([-1.0])), [-2.0])
        assert np.allclose(mapper(np.array([0.0])), [0.0])
        assert np.allclose(mapper(np.array([5.0])), [2.0])  # clipped first

    def test_action_mapper_identity_on_unit_box(self):
        from repro.frameworks.base import _space_action_mapper

        import repro.airdrop
        from repro.envs import make as make_env

        mapper = _space_action_mapper(make_env("Airdrop-v0").action_space)
        assert np.allclose(mapper(np.array([0.37])), [0.37])

    def test_action_mapper_unbounded_passthrough(self):
        from repro.envs import Box, Env
        from repro.frameworks.base import _space_action_mapper

        class FreeEnv(Env):
            def __init__(self):
                self.observation_space = Box(-1, 1, shape=(1,))
                self.action_space = Box(-np.inf, np.inf, shape=(2,))

        mapper = _space_action_mapper(FreeEnv().action_space)
        assert np.allclose(mapper(np.array([0.5, -0.25])), [0.5, -0.25])

    def test_action_mapper_is_bit_exact_to_the_clip_formula(self):
        from repro.envs import Box
        from repro.frameworks.base import _space_action_mapper

        def reference(space, action):
            bounded = np.isfinite(space.low) & np.isfinite(space.high)
            low = np.where(bounded, space.low, -1.0)
            high = np.where(bounded, space.high, 1.0)
            unit = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
            return np.where(bounded, low + (unit + 1.0) * 0.5 * (high - low), unit)

        rng = np.random.default_rng(0)
        actions = rng.standard_normal((64, 4)) * 10.0 ** rng.integers(-20, 10, (64, 1))
        actions[:8, 0] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300]
        spaces = [
            Box(np.array([-1.0, -2.0, -np.inf, 0.0]), np.array([1.0, 2.0, 5.0, np.inf])),
            Box(-2.0, 2.0, shape=(4,)),
        ]
        for space in spaces:
            mapped = _space_action_mapper(space)(actions)
            expected = reference(space, actions)
            assert np.array_equal(mapped, expected, equal_nan=True)
            assert np.array_equal(np.signbit(mapped), np.signbit(expected))
