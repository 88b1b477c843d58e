"""Tests for SyncVectorEnv."""

from __future__ import annotations

import numpy as np
import pytest

from repro.airdrop import AirdropEnv
from repro.envs import Box, Env, SyncVectorEnv


class FixedLengthEnv(Env):
    """Deterministic env terminating after `length` steps."""

    def __init__(self, length: int = 3) -> None:
        self.observation_space = Box(-np.inf, np.inf, shape=(2,))
        self.action_space = Box(-1, 1, shape=(1,))
        self.length = length
        self.t = 0

    def reset(self, *, seed=None, options=None):
        super().reset(seed=seed)
        self.t = 0
        return np.array([0.0, 0.0]), {}

    def step(self, action):
        self.t += 1
        obs = np.array([float(self.t), 0.0])
        return obs, float(self.t), self.t >= self.length, False, {}


class TestSyncVectorEnv:
    def test_requires_at_least_one_env(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])

    def test_reset_shapes(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv() for _ in range(4)])
        obs, infos = venv.reset(seed=0)
        assert obs.shape == (4, 2)
        assert len(infos) == 4

    def test_step_shapes(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv() for _ in range(3)])
        venv.reset()
        obs, rewards, terms, truncs, infos = venv.step(np.zeros((3, 1)))
        assert obs.shape == (3, 2)
        assert rewards.shape == (3,)
        assert terms.dtype == bool and truncs.dtype == bool

    def test_autoreset_returns_fresh_obs(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv(length=2) for _ in range(2)])
        venv.reset()
        venv.step(np.zeros((2, 1)))
        obs, rewards, terms, _, infos = venv.step(np.zeros((2, 1)))
        assert np.all(terms)
        # observation is the first of the NEXT episode (reset state)
        assert np.allclose(obs, 0.0)
        # terminal observation preserved in info
        for info in infos:
            assert np.allclose(info["final_observation"], [2.0, 0.0])
            assert info["episode"]["l"] == 2

    def test_episode_stats_accumulate(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv(length=3) for _ in range(2)])
        venv.reset()
        for _ in range(6):
            venv.step(np.zeros((2, 1)))
        assert len(venv.stats) == 4  # 2 envs x 2 episodes
        assert venv.stats.returns[0] == 6.0  # 1+2+3

    def test_recent_mean_return(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv(length=1) for _ in range(1)])
        venv.reset()
        for _ in range(5):
            venv.step(np.zeros((1, 1)))
        assert venv.stats.recent_mean_return() == 1.0

    def test_seed_fans_out_distinct_episodes(self):
        venv = SyncVectorEnv([lambda: AirdropEnv(rk_order=3) for _ in range(3)])
        obs, _ = venv.reset(seed=7)
        # different sub-seeds -> different drop points
        assert not np.allclose(obs[0], obs[1])
        obs2, _ = venv.reset(seed=7)
        assert np.allclose(obs, obs2)  # but reproducible

    def test_len_and_repr(self):
        venv = SyncVectorEnv([lambda: FixedLengthEnv() for _ in range(2)])
        assert len(venv) == 2
        assert "2" in repr(venv)
