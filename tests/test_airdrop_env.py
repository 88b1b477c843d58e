"""Tests for the AirdropEnv gym environment."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.airdrop import AirdropEnv, AirdropVectorEnv, ParafoilParams, RewardConfig
from repro.airdrop.env import OBS_DIM
from repro.airdrop.reward import interpolate_touchdown


def run_episode(env, policy=None, seed=0, max_steps=800):
    obs, info = env.reset(seed=seed)
    rng = np.random.default_rng(seed)
    total = 0.0
    for step in range(max_steps):
        action = policy(obs) if policy else rng.uniform(-1, 1, 1)
        obs, r, term, trunc, info = env.step(action)
        total += r
        if term or trunc:
            return total, step + 1, info
    raise AssertionError("episode did not terminate")


class TestConstruction:
    def test_default_spaces(self, airdrop_env):
        assert airdrop_env.observation_space.shape == (OBS_DIM,)
        assert airdrop_env.action_space.shape == (1,)

    @pytest.mark.parametrize("order,stages", [(3, 3), (5, 6), (8, 12)])
    def test_rhs_evals_per_step(self, order, stages):
        env = AirdropEnv(rk_order=order)
        assert env.integrator.n_stages == stages

    @pytest.mark.parametrize("front", ["AirdropEnv", "AirdropVectorEnv"])
    def test_invalid_args(self, front):
        build = AirdropEnv if front == "AirdropEnv" else partial(AirdropVectorEnv, 2)
        with pytest.raises(ValueError):
            build(dt=0.0)
        with pytest.raises(ValueError):
            build(altitude_limits=(0.0, 100.0))
        with pytest.raises(ValueError):
            build(rk_order=4)
        if front == "AirdropVectorEnv":
            with pytest.raises(ValueError):
                AirdropVectorEnv(0)

    def test_state_before_reset_raises(self):
        env = AirdropEnv()
        with pytest.raises(RuntimeError):
            _ = env.state
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))


class TestReset:
    def test_altitude_within_limits(self):
        env = AirdropEnv(altitude_limits=(100.0, 200.0))
        for seed in range(20):
            _, info = env.reset(seed=seed)
            assert 100.0 <= info["drop_altitude"] <= 200.0

    def test_seed_reproducible(self, airdrop_env):
        a, _ = airdrop_env.reset(seed=3)
        b, _ = airdrop_env.reset(seed=3)
        assert np.allclose(a, b)

    def test_options_override(self, airdrop_env):
        _, info = airdrop_env.reset(seed=0, options={"altitude": 321.0, "radius": 50.0})
        assert info["drop_altitude"] == 321.0
        assert info["drop_radius"] == 50.0

    def test_spawn_within_glide_range(self):
        env = AirdropEnv()
        for seed in range(30):
            _, info = env.reset(seed=seed)
            glide_range = 2.0 * info["drop_altitude"]  # glide ratio 2
            assert info["drop_radius"] <= 0.65 * glide_range + 1e-9


class TestEpisode:
    def test_terminates_with_landing_info(self, airdrop_env):
        total, steps, info = run_episode(airdrop_env, seed=1)
        assert "landing_score" in info
        assert info["landing_score"] <= 0.0
        assert info["miss_distance"] >= 0.0
        assert "touchdown" in info

    def test_episode_length_scales_with_altitude(self):
        env = AirdropEnv()
        _, short, _ = run_episode(env, seed=0)
        env.reset(seed=0, options={"altitude": 30.0})
        # low drop lands in few steps
        _, steps_low, _ = run_episode(env, seed=0)
        # can't directly control both; just verify low-altitude bound
        env2 = AirdropEnv(altitude_limits=(30.0, 31.0))
        _, steps, _ = run_episode(env2, seed=5)
        assert steps <= 15

    def test_sparse_reward_by_default(self, airdrop_env):
        obs, _ = airdrop_env.reset(seed=2)
        obs, r, term, trunc, _ = airdrop_env.step(np.zeros(1))
        if not term:
            assert r == 0.0  # no shaping mid-flight

    def test_terminal_reward_equals_landing_score(self, airdrop_env):
        total, steps, info = run_episode(airdrop_env, seed=4)
        assert total == pytest.approx(info["landing_score"])

    def test_shaping_telescopes(self):
        env = AirdropEnv(reward_config=RewardConfig(shaping=True))
        total, steps, info = run_episode(env, seed=3)
        # with gamma=1 potential shaping, total = score + phi(end) - phi(start)
        # phi(end) = score (same function), so total = 2*score - phi(start)
        assert total < 0

    def test_determinism_full_episode(self):
        def fly(seed):
            env = AirdropEnv(rk_order=5)
            obs, _ = env.reset(seed=seed)
            rng = np.random.default_rng(seed)
            trace = []
            for _ in range(500):
                obs, r, term, trunc, info = env.step(rng.uniform(-1, 1, 1))
                trace.append((obs.copy(), r))
                if term:
                    break
            return trace

        t1, t2 = fly(9), fly(9)
        assert len(t1) == len(t2)
        for (o1, r1), (o2, r2) in zip(t1, t2):
            assert np.allclose(o1, o2)
            assert r1 == r2

    def test_action_clipped(self, airdrop_env):
        airdrop_env.reset(seed=0)
        obs1, *_ = airdrop_env.step(np.array([100.0]))
        airdrop_env.reset(seed=0)
        obs2, *_ = airdrop_env.step(np.array([1.0]))
        assert np.allclose(obs1, obs2)

    def test_rk_order_changes_trajectory(self):
        def final_obs(order):
            env = AirdropEnv(rk_order=order)
            obs, _ = env.reset(seed=11)
            rng = np.random.default_rng(11)
            for _ in range(40):
                obs, _, term, _, _ = env.step(rng.uniform(-1, 1, 1))
                if term:
                    break
            return obs

        assert not np.allclose(final_obs(3), final_obs(8))

    def test_observation_finite_and_scaled(self, airdrop_env):
        obs, _ = airdrop_env.reset(seed=7)
        rng = np.random.default_rng(7)
        for _ in range(100):
            obs, _, term, _, _ = airdrop_env.step(rng.uniform(-1, 1, 1))
            assert np.all(np.isfinite(obs))
            # orientation features are unit-bounded
            assert -1.0001 <= obs[3] <= 1.0001
            assert -1.0001 <= obs[4] <= 1.0001
            assert obs[12] <= 3.0
            if term:
                break


class TestSteering:
    def test_simple_controller_beats_random(self):
        """A proportional heading controller should land much closer than
        random actions — the env must be controllable."""

        def controller(obs):
            # obs[10], obs[11] = sin/cos of bearing error
            return np.array([np.clip(2.0 * obs[10], -1, 1)])

        env = AirdropEnv(rk_order=8)
        ctrl_scores, rand_scores = [], []
        for seed in range(8):
            _, _, info = run_episode(env, policy=controller, seed=seed)
            ctrl_scores.append(info["landing_score"])
            _, _, info = run_episode(env, seed=seed)
            rand_scores.append(info["landing_score"])
        assert np.mean(ctrl_scores) > np.mean(rand_scores) + 0.5

    def test_rk3_controller_worse_than_rk8(self):
        """The paper's accuracy effect: the same controller lands worse
        under coarse integration."""

        def controller(obs):
            return np.array([np.clip(2.0 * obs[10], -1, 1)])

        scores = {}
        for order in (3, 8):
            env = AirdropEnv(rk_order=order)
            vals = []
            for seed in range(10):
                _, _, info = run_episode(env, policy=controller, seed=seed)
                vals.append(info["landing_score"])
            scores[order] = np.mean(vals)
        assert scores[8] > scores[3]


class TestTouchdownInterpolation:
    def test_linear_interpolation(self):
        before = np.zeros(9)
        before[0], before[1], before[2] = 0.0, 0.0, 10.0
        after = np.zeros(9)
        after[0], after[1], after[2] = 10.0, 20.0, -10.0
        x, y = interpolate_touchdown(before, after)
        assert x == pytest.approx(5.0)
        assert y == pytest.approx(10.0)

    def test_after_above_ground_rejected(self):
        before = np.zeros(9)
        before[2] = 10.0
        after = np.zeros(9)
        after[2] = 5.0
        with pytest.raises(ValueError):
            interpolate_touchdown(before, after)

    def test_degenerate_already_grounded(self):
        before = np.zeros(9)
        before[2] = -1.0
        after = np.zeros(9)
        after[0], after[2] = 3.0, -2.0
        x, y = interpolate_touchdown(before, after)
        assert x == 3.0
