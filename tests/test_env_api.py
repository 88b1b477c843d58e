"""Tests for the Env/Wrapper API and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import (
    Box,
    Env,
    OrderEnforcing,
    TimeLimit,
    Wrapper,
    make,
    register,
    registry,
    spec,
)


class CountingEnv(Env):
    """Terminates after `horizon` steps with reward 1 per step."""

    def __init__(self, horizon: int = 5) -> None:
        self.observation_space = Box(-np.inf, np.inf, shape=(1,))
        self.action_space = Box(-1, 1, shape=(1,))
        self.horizon = horizon
        self.count = 0

    def reset(self, *, seed=None, options=None):
        super().reset(seed=seed)
        self.count = 0
        return np.array([0.0]), {}

    def step(self, action):
        self.count += 1
        terminated = self.count >= self.horizon
        return np.array([float(self.count)]), 1.0, terminated, False, {}


class TestEnvBasics:
    def test_reset_seeds_np_random(self):
        env = CountingEnv()
        env.reset(seed=42)
        a = env.np_random.random()
        env.reset(seed=42)
        b = env.np_random.random()
        assert a == b

    def test_context_manager_closes(self):
        env = CountingEnv()
        with env as e:
            assert e is env

    def test_unwrapped_returns_innermost(self):
        env = CountingEnv()
        wrapped = TimeLimit(OrderEnforcing(env), 10)
        assert wrapped.unwrapped is env

    def test_wrapper_rejects_non_env(self):
        with pytest.raises(TypeError):
            Wrapper(42)

    def test_wrapper_delegates_attributes(self):
        env = CountingEnv(horizon=7)
        wrapped = OrderEnforcing(env)
        assert wrapped.horizon == 7


class TestTimeLimit:
    def test_truncates_at_horizon(self):
        env = TimeLimit(CountingEnv(horizon=100), max_episode_steps=3)
        env.reset()
        for _ in range(2):
            _, _, term, trunc, _ = env.step(np.zeros(1))
            assert not term and not trunc
        _, _, term, trunc, info = env.step(np.zeros(1))
        assert trunc and not term
        assert info.get("TimeLimit.truncated") is True

    def test_termination_beats_truncation(self):
        env = TimeLimit(CountingEnv(horizon=3), max_episode_steps=3)
        env.reset()
        env.step(np.zeros(1))
        env.step(np.zeros(1))
        _, _, term, trunc, _ = env.step(np.zeros(1))
        assert term and not trunc

    def test_step_before_reset_raises(self):
        env = TimeLimit(CountingEnv(), 5)
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            TimeLimit(CountingEnv(), 0)


class TestOrderEnforcing:
    def test_step_before_reset_raises(self):
        env = OrderEnforcing(CountingEnv())
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))
        env.reset()
        env.step(np.zeros(1))


class TestRegistry:
    def test_register_and_make(self):
        register("Counting-v0", CountingEnv, max_episode_steps=10, force=True)
        env = make("Counting-v0", horizon=50)
        env.reset()
        steps = 0
        while True:
            _, _, term, trunc, _ = env.step(np.zeros(1))
            steps += 1
            if term or trunc:
                break
        assert steps == 10  # TimeLimit applied

    def test_make_unknown_id_raises(self):
        with pytest.raises(KeyError):
            make("Nope-v99")

    def test_duplicate_registration_raises(self):
        register("Dup-v0", CountingEnv, force=True)
        with pytest.raises(ValueError):
            register("Dup-v0", CountingEnv)

    def test_spec_lookup(self):
        register("Lookup-v3", CountingEnv, force=True)
        s = spec("Lookup-v3")
        assert s.name == "Lookup"
        assert s.version == 3

    def test_airdrop_registered(self):
        assert "Airdrop-v0" in registry
        env = make("Airdrop-v0", rk_order=3)
        obs, _ = env.reset(seed=0)
        assert obs.shape == (13,)

    def test_make_kwargs_override(self):
        env = make("Airdrop-v0", rk_order=8)
        assert env.unwrapped.rk_order == 8

    def test_string_entry_point(self):
        register("AirdropStr-v0", "repro.airdrop.env:AirdropEnv", force=True)
        env = make("AirdropStr-v0", rk_order=3)
        assert env.unwrapped.rk_order == 3
