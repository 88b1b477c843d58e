"""Tests for rollout and replay buffers (GAE correctness in particular)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl import ReplayBuffer, RolloutBuffer, compute_gae


class TestComputeGAE:
    def test_single_step_delta(self):
        rewards = np.array([[1.0]])
        values = np.array([[0.5]])
        terms = np.array([[0.0]])
        adv, ret = compute_gae(rewards, values, terms, np.array([2.0]), gamma=0.9, lam=0.8)
        # delta = 1 + 0.9*2 - 0.5 = 2.3
        assert adv[0, 0] == pytest.approx(2.3)
        assert ret[0, 0] == pytest.approx(2.8)

    def test_terminal_cuts_bootstrap(self):
        rewards = np.array([[1.0]])
        values = np.array([[0.5]])
        terms = np.array([[1.0]])
        adv, _ = compute_gae(rewards, values, terms, np.array([100.0]), 0.9, 0.8)
        assert adv[0, 0] == pytest.approx(0.5)  # 1 - 0.5, no bootstrap

    def test_lambda_zero_is_td(self):
        T, N = 5, 1
        rng = np.random.default_rng(0)
        rewards = rng.standard_normal((T, N))
        values = rng.standard_normal((T, N))
        terms = np.zeros((T, N))
        last = rng.standard_normal(N)
        adv, _ = compute_gae(rewards, values, terms, last, gamma=0.95, lam=0.0)
        next_vals = np.vstack([values[1:], last[None]])
        delta = rewards + 0.95 * next_vals - values
        assert np.allclose(adv, delta)

    def test_lambda_one_is_monte_carlo(self):
        T = 4
        rewards = np.ones((T, 1))
        values = np.zeros((T, 1))
        terms = np.zeros((T, 1))
        terms[-1] = 1.0  # episode ends at segment end
        adv, ret = compute_gae(rewards, values, terms, np.zeros(1), gamma=1.0, lam=1.0)
        # with V=0 and gamma=1: advantage at t = remaining reward
        assert np.allclose(ret[:, 0], [4, 3, 2, 1])

    def test_independent_envs(self):
        # env 0 terminates mid-segment; env 1 never does
        rewards = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        values = np.zeros((3, 2))
        terms = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        adv, _ = compute_gae(rewards, values, terms, np.zeros(2), gamma=1.0, lam=1.0)
        assert adv[0, 0] == pytest.approx(2.0)  # cut at t=1
        assert adv[0, 1] == pytest.approx(3.0)  # full segment


class TestRolloutBuffer:
    def make(self, T=4, N=2, **kw):
        return RolloutBuffer(n_steps=T, n_envs=N, obs_dim=3, act_dim=1, **kw)

    def fill(self, buf, T=4, N=2):
        for t in range(T):
            buf.add(
                obs=np.full((N, 3), t, dtype=float),
                actions=np.zeros((N, 1)),
                log_probs=np.zeros(N),
                rewards=np.ones(N),
                values=np.zeros(N),
                terminations=np.zeros(N),
                truncations=np.zeros(N),
                bootstrap_values=np.zeros(N),
            )

    def test_overfill_raises(self):
        buf = self.make()
        self.fill(buf)
        with pytest.raises(RuntimeError):
            self.fill(buf, T=1)

    def test_finish_before_full_raises(self):
        buf = self.make()
        self.fill(buf, T=2)
        with pytest.raises(RuntimeError):
            buf.finish(np.zeros(2))

    def test_minibatches_before_finish_raises(self, rng):
        buf = self.make()
        self.fill(buf)
        with pytest.raises(RuntimeError):
            list(buf.minibatches(2, rng))

    def test_minibatches_partition_all_samples(self, rng):
        buf = self.make()
        self.fill(buf)
        buf.finish(np.zeros(2))
        batches = list(buf.minibatches(2, rng, normalize_advantages=False))
        assert sum(len(b) for b in batches) == 8
        all_obs = np.concatenate([b.observations for b in batches])
        assert sorted(all_obs[:, 0]) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_advantage_normalization(self, rng):
        buf = self.make()
        for t in range(4):
            buf.add(
                obs=np.zeros((2, 3)),
                actions=np.zeros((2, 1)),
                log_probs=np.zeros(2),
                rewards=np.array([float(t), -float(t)]),
                values=np.zeros(2),
                terminations=np.zeros(2),
                truncations=np.zeros(2),
            )
        buf.finish(np.zeros(2))
        batch = next(iter(buf.minibatches(1, rng, normalize_advantages=True)))
        assert abs(batch.advantages.mean()) < 1e-9
        assert batch.advantages.std() == pytest.approx(1.0, abs=1e-6)

    def test_truncation_folds_bootstrap_into_reward(self):
        buf = self.make(T=1, N=1, gamma=0.9)
        buf.add(
            obs=np.zeros((1, 3)),
            actions=np.zeros((1, 1)),
            log_probs=np.zeros(1),
            rewards=np.array([1.0]),
            values=np.array([0.0]),
            terminations=np.array([0.0]),
            truncations=np.array([1.0]),
            bootstrap_values=np.array([2.0]),
        )
        buf.finish(np.array([50.0]))
        # reward augmented: 1 + 0.9*2 = 2.8; chain cut (last_values ignored)
        assert buf.returns[0, 0] == pytest.approx(2.8)

    def test_termination_beats_truncation(self):
        buf = self.make(T=1, N=1, gamma=0.9)
        buf.add(
            obs=np.zeros((1, 3)),
            actions=np.zeros((1, 1)),
            log_probs=np.zeros(1),
            rewards=np.array([1.0]),
            values=np.array([0.0]),
            terminations=np.array([1.0]),
            truncations=np.array([1.0]),
            bootstrap_values=np.array([2.0]),
        )
        buf.finish(np.zeros(1))
        assert buf.returns[0, 0] == pytest.approx(1.0)  # no bootstrap added

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0, 1, 3, 1)
        with pytest.raises(ValueError):
            RolloutBuffer(4, 1, 3, 1, gamma=1.5)
        with pytest.raises(ValueError):
            RolloutBuffer(4, 1, 3, 1, lam=-0.1)

    def test_invalid_minibatch_count(self, rng):
        buf = self.make()
        self.fill(buf)
        buf.finish(np.zeros(2))
        with pytest.raises(ValueError):
            list(buf.minibatches(0, rng))
        with pytest.raises(ValueError):
            list(buf.minibatches(9, rng))

    def test_reset_allows_reuse(self, rng):
        buf = self.make()
        self.fill(buf)
        buf.finish(np.zeros(2))
        buf.reset()
        assert not buf.full
        self.fill(buf)
        buf.finish(np.zeros(2))


class TestReplayBuffer:
    def test_add_and_sample(self, rng):
        buf = ReplayBuffer(100, obs_dim=3, act_dim=1)
        for i in range(10):
            buf.add(np.full(3, i), np.array([0.5]), float(i), np.full(3, i + 1), False)
        assert len(buf) == 10
        batch = buf.sample(32, rng)
        assert batch.observations.shape == (32, 3)
        assert np.all(batch.rewards < 10)

    def test_ring_overwrite(self):
        buf = ReplayBuffer(4, obs_dim=1, act_dim=1)
        for i in range(10):
            buf.add(np.array([i]), np.zeros(1), 0.0, np.array([i]), False)
        assert len(buf) == 4
        assert set(buf.observations[:, 0]) == {6, 7, 8, 9}

    def test_sample_empty_raises(self, rng):
        buf = ReplayBuffer(4, 1, 1)
        with pytest.raises(RuntimeError):
            buf.sample(2, rng)

    def test_terminations_stored(self, rng):
        buf = ReplayBuffer(8, 1, 1)
        buf.add(np.zeros(1), np.zeros(1), 0.0, np.zeros(1), True)
        buf.add(np.zeros(1), np.zeros(1), 0.0, np.zeros(1), False)
        assert buf.terminations[0] == 1.0
        assert buf.terminations[1] == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(0, 1, 1)
