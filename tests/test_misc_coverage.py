"""Coverage for smaller behaviours not exercised elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

import repro.airdrop  # noqa: F401
from repro.cluster import ClusterSimulator, grid_cluster
from repro.frameworks import TrainSpec, get_framework
from repro.rl import PPOAgent, PPOConfig, SACAgent, SACConfig


class TestGridCluster:
    def test_shape(self):
        spec = grid_cluster(4, cores_per_node=8, bandwidth_gbps=10.0)
        assert spec.n_nodes == 4
        assert sum(node.n_cores for node in spec.nodes) == 32
        assert spec.link.bandwidth_gbps == 10.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            grid_cluster(0)

    def test_core_speed_scales_task_time(self):
        fast = grid_cluster(1, core_speed=2.0)
        sim = ClusterSimulator(fast)
        # the framework layer divides by core_speed; the raw simulator
        # takes durations as given — both behaviours are intentional
        sim.task("t", 0, duration=1.0)
        assert sim.run().makespan == pytest.approx(1.0)

    def test_unique_node_names(self):
        spec = grid_cluster(3)
        assert len({n.name for n in spec.nodes}) == 3


class TestFrameworkCoreSpeed:
    def test_core_speed_halves_virtual_time(self):
        from repro.frameworks import RLlibLike

        def run(speed):
            fw = RLlibLike(cluster=grid_cluster(1, cores_per_node=4, core_speed=speed))
            spec = TrainSpec(
                algorithm="ppo", n_nodes=1, cores_per_node=4, seed=0,
                env_kwargs={"rk_order": 3}, total_steps=600, eval_episodes=1,
            )
            return fw.train(spec)

        slow, fast = run(1.0), run(2.0)
        assert fast.computation_time_s == pytest.approx(slow.computation_time_s / 2, rel=0.1)
        assert fast.reward == slow.reward  # learning unchanged


class TestPPOOptions:
    def _rollout(self, agent, n_steps=32, n_envs=2, seed=0):
        buf = agent.make_buffer(n_steps, n_envs)
        rng = np.random.default_rng(seed)
        obs = rng.standard_normal((n_envs, 2))
        for _ in range(n_steps):
            out = agent.act(obs)
            buf.add(obs, out["action"], out["log_prob"], rng.standard_normal(n_envs),
                    out["value"], np.zeros(n_envs), np.zeros(n_envs), np.zeros(n_envs))
            obs = rng.standard_normal((n_envs, 2))
        buf.finish(agent.value(obs))
        return buf

    def test_unnormalized_advantages_path(self):
        agent = PPOAgent(2, 1, PPOConfig(normalize_advantages=False), seed=0)
        stats = agent.update(self._rollout(agent))
        assert np.isfinite(stats["policy_loss"])

    def test_entropy_bonus_slows_std_collapse(self):
        """With a large entropy coefficient the exploration noise must
        shrink more slowly than without."""

        def final_std(ent_coef):
            agent = PPOAgent(1, 1, PPOConfig(ent_coef=ent_coef, learning_rate=5e-3), seed=0)
            rng = np.random.default_rng(0)
            for _ in range(10):
                buf = agent.make_buffer(64, 4)
                obs = rng.standard_normal((4, 1))
                for _ in range(64):
                    out = agent.act(obs)
                    rewards = -np.sum(out["action"] ** 2, axis=-1)
                    buf.add(obs, out["action"], out["log_prob"], rewards,
                            out["value"], np.zeros(4), np.zeros(4), np.zeros(4))
                    obs = rng.standard_normal((4, 1))
                buf.finish(agent.value(obs))
                agent.update(buf)
            return float(np.exp(agent.log_std.value[0]))

        assert final_std(0.1) > final_std(0.0)

    def test_relu_activation_variant(self):
        agent = PPOAgent(2, 1, PPOConfig(activation="relu"), seed=0)
        stats = agent.update(self._rollout(agent))
        assert np.isfinite(stats["value_loss"])

    def test_single_minibatch_variant(self):
        agent = PPOAgent(2, 1, PPOConfig(n_minibatches=1, n_epochs=2), seed=0)
        agent.update(self._rollout(agent))
        assert agent.n_updates == 2  # one minibatch per epoch


class TestSACOptions:
    def test_update_every_batching(self):
        agent = SACAgent(
            2, 1,
            SACConfig(learning_starts=8, batch_size=8, update_every=4, updates_per_step=4,
                      hidden_sizes=(16, 16)),
            seed=0,
        )
        rng = np.random.default_rng(0)
        update_steps = []
        for step in range(1, 33):
            agent.observe(rng.standard_normal(2), rng.uniform(-1, 1, 1), 0.0,
                          rng.standard_normal(2), False)
            if agent.ready_to_update():
                agent.update()
                update_steps.append(step)
        # updates only fire on multiples of update_every, 4 at a time
        assert all(s % 4 == 0 for s in update_steps)
        assert agent.n_updates == len(update_steps) * 4

    def test_tanh_activation_variant(self):
        agent = SACAgent(2, 1, SACConfig(activation="tanh", hidden_sizes=(8, 8),
                                         learning_starts=4, batch_size=4), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(12):
            agent.observe(rng.standard_normal(2), rng.uniform(-1, 1, 1), 0.0,
                          rng.standard_normal(2), False)
        agent.update()
        assert agent.n_updates == 1


class TestSpecScaling:
    def test_scaled_helper(self):
        spec = TrainSpec(total_steps=20_000)
        smaller = spec.scaled(4_000)
        assert smaller.total_steps == 4_000
        assert smaller.paper_steps == spec.paper_steps
        assert smaller.algorithm == spec.algorithm

    def test_rk_order_property(self):
        assert TrainSpec(env_kwargs={"rk_order": 8}).rk_order == 8
        assert TrainSpec().rk_order == 5  # env default
