"""Tests for the classic-control pack and discrete-action PPO."""

from __future__ import annotations

import numpy as np
import pytest

import repro.classic  # noqa: F401  (registers CartPole-v0 / Pendulum-v0)
from repro.classic import CartPoleEnv, PendulumEnv
from repro.envs import SyncVectorEnv, make
from repro.rl import CategoricalPPOAgent, PPOConfig


class TestCartPole:
    def test_registered_with_time_limit(self):
        env = make("CartPole-v0")
        env.reset(seed=0)
        steps = 0
        while True:
            _, _, term, trunc, _ = env.step(0 if steps % 2 == 0 else 1)
            steps += 1
            if term or trunc:
                break
        assert steps <= 500

    def test_reset_near_origin(self):
        env = CartPoleEnv()
        obs, _ = env.reset(seed=1)
        assert np.all(np.abs(obs) <= 0.05)

    def test_constant_push_terminates(self):
        env = CartPoleEnv()
        env.reset(seed=0)
        steps = 0
        while True:
            _, reward, term, _, _ = env.step(1)
            assert reward == 1.0
            steps += 1
            if term:
                break
        assert steps < 30  # constant push falls quickly

    def test_invalid_action_rejected(self):
        env = CartPoleEnv()
        env.reset(seed=0)
        with pytest.raises(ValueError):
            env.step(2)

    def test_step_before_reset(self):
        with pytest.raises(RuntimeError):
            CartPoleEnv().step(0)

    def test_rk_order_changes_cost_not_semantics(self):
        for order, stages in [(3, 3), (5, 6), (8, 12)]:
            env = CartPoleEnv(rk_order=order)
            assert env.integrator.n_stages == stages

    def test_determinism(self):
        def run():
            env = CartPoleEnv()
            obs, _ = env.reset(seed=5)
            out = []
            for i in range(30):
                obs, _, term, _, _ = env.step(i % 2)
                out.append(obs.copy())
                if term:
                    break
            return np.array(out)

        assert np.allclose(run(), run())

    def test_integrators_agree_at_small_dt(self):
        """At the 20 ms step the dynamics are easy: all orders agree."""

        def final(order):
            env = CartPoleEnv(rk_order=order)
            obs, _ = env.reset(seed=3)
            for i in range(20):
                obs, _, term, _, _ = env.step(i % 2)
                if term:
                    break
            return obs

        assert np.allclose(final(3), final(8), atol=1e-4)


class TestPendulum:
    def test_observation_structure(self):
        env = PendulumEnv()
        obs, _ = env.reset(seed=0)
        assert obs.shape == (3,)
        assert obs[0] ** 2 + obs[1] ** 2 == pytest.approx(1.0)

    def test_reward_is_negative_cost(self):
        env = PendulumEnv()
        env.reset(seed=0)
        _, reward, term, trunc, _ = env.step(np.array([0.0]))
        assert reward <= 0.0
        assert not term and not trunc

    def test_torque_clipped(self):
        env = PendulumEnv()
        env.reset(seed=2)
        obs1, r1, *_ = env.step(np.array([100.0]))
        env.reset(seed=2)
        obs2, r2, *_ = env.step(np.array([2.0]))
        assert np.allclose(obs1, obs2)

    def test_speed_clamped(self):
        env = PendulumEnv()
        env.reset(seed=0)
        for _ in range(100):
            obs, *_ = env.step(np.array([2.0]))
            assert abs(obs[2]) <= 8.0 + 1e-9

    def test_upright_is_zero_cost_fixed_point(self):
        env = PendulumEnv()
        env.reset(seed=0)
        env._state = np.array([0.0, 0.0])
        _, reward, *_ = env.step(np.array([0.0]))
        assert reward == pytest.approx(0.0, abs=1e-6)

    def test_registered(self):
        env = make("Pendulum-v0")
        obs, _ = env.reset(seed=0)
        assert obs.shape == (3,)


class TestCategoricalPPO:
    def test_act_shapes(self):
        agent = CategoricalPPOAgent(4, 3, seed=0)
        out = agent.act(np.zeros((5, 4)))
        assert out["action"].shape == (5,)
        assert np.all((out["action"] >= 0) & (out["action"] < 3))
        assert out["log_prob"].shape == (5,)

    def test_needs_two_actions(self):
        with pytest.raises(ValueError):
            CategoricalPPOAgent(4, 1)

    def test_deterministic_mode(self):
        agent = CategoricalPPOAgent(4, 2, seed=0)
        a = agent.act(np.ones((1, 4)), deterministic=True)["action"]
        b = agent.act(np.ones((1, 4)), deterministic=True)["action"]
        assert a == b

    def test_policy_state_roundtrip(self):
        a = CategoricalPPOAgent(4, 2, seed=0)
        b = CategoricalPPOAgent(4, 2, seed=9)
        b.load_policy_state(a.policy_state())
        obs = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(
            a.act(obs, deterministic=True)["action"],
            b.act(obs, deterministic=True)["action"],
        )

    def test_learns_cartpole(self):
        """Mean episode length must grow substantially within ~25k steps."""
        n_envs = 8
        venv = SyncVectorEnv([lambda: make("CartPole-v0") for _ in range(n_envs)])
        agent = CategoricalPPOAgent(4, 2, PPOConfig(ent_coef=0.01), seed=0)
        buf = agent.make_buffer(128, n_envs)
        obs, _ = venv.reset(seed=0)
        checkpoints = []
        for it in range(24):
            buf.reset()
            for _ in range(128):
                out = agent.act(obs)
                nobs, rew, term, trunc, infos = venv.step(out["action"])
                boot = np.zeros(n_envs)
                for i, info in enumerate(infos):
                    if trunc[i] and not term[i] and "final_observation" in info:
                        boot[i] = agent.value(info["final_observation"][None])[0]
                buf.add(
                    obs,
                    out["action"].reshape(-1, 1).astype(float),
                    out["log_prob"],
                    rew,
                    out["value"],
                    term,
                    trunc,
                    boot,
                )
                obs = nobs
            buf.finish(agent.value(obs))
            agent.update(buf)
            checkpoints.append(venv.stats.recent_mean_return())
        assert checkpoints[-1] > 3 * max(checkpoints[0], 15.0)

    def test_update_stats_keys(self):
        agent = CategoricalPPOAgent(4, 2, seed=0)
        buf = agent.make_buffer(32, 2)
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((2, 4))
        for _ in range(32):
            out = agent.act(obs)
            buf.add(
                obs, out["action"].reshape(-1, 1).astype(float), out["log_prob"],
                rng.standard_normal(2), out["value"], np.zeros(2), np.zeros(2), np.zeros(2),
            )
            obs = rng.standard_normal((2, 4))
        buf.finish(agent.value(obs))
        stats = agent.update(buf)
        assert {"policy_loss", "value_loss", "entropy", "approx_kl"} <= set(stats)
