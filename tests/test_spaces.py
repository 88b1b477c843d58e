"""Unit tests for repro.envs.spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import Box, Discrete


class TestBox:
    def test_scalar_bounds_broadcast(self):
        box = Box(-1.0, 1.0, shape=(3,))
        assert box.low.shape == (3,)
        assert box.high.shape == (3,)

    def test_sample_within_bounds(self, rng):
        box = Box(-2.0, 3.0, shape=(5,))
        for _ in range(50):
            x = box.sample(rng)
            assert box.contains(x)

    def test_contains_rejects_wrong_shape(self):
        box = Box(-1, 1, shape=(3,))
        assert not box.contains(np.zeros(4))
        assert not box.contains(np.zeros((3, 1)))

    def test_contains_rejects_out_of_bounds(self):
        box = Box(-1, 1, shape=(2,))
        assert not box.contains(np.array([0.0, 1.5]))

    def test_low_above_high_raises(self):
        with pytest.raises(ValueError):
            Box(1.0, -1.0, shape=(2,))

    def test_unbounded_sampling(self, rng):
        box = Box(-np.inf, np.inf, shape=(4,))
        x = box.sample(rng)
        assert x.shape == (4,)
        assert np.all(np.isfinite(x))

    def test_one_sided_bounds_sampling(self, rng):
        box = Box(0.0, np.inf, shape=(3,))
        for _ in range(20):
            assert np.all(box.sample(rng) >= 0.0)
        box = Box(-np.inf, 0.0, shape=(3,))
        for _ in range(20):
            assert np.all(box.sample(rng) <= 0.0)

    def test_equality(self):
        assert Box(-1, 1, shape=(2,)) == Box(-1, 1, shape=(2,))
        assert Box(-1, 1, shape=(2,)) != Box(-1, 2, shape=(2,))

    def test_seeded_sampling_is_deterministic(self):
        a = Box(-1, 1, shape=(3,), seed=7)
        b = Box(-1, 1, shape=(3,), seed=7)
        assert np.allclose(a.sample(), b.sample())


class TestDiscrete:
    def test_sample_range(self, rng):
        space = Discrete(5)
        samples = {space.sample(rng) for _ in range(200)}
        assert samples == {0, 1, 2, 3, 4}

    def test_start_offset(self, rng):
        space = Discrete(3, start=10)
        for _ in range(20):
            assert space.sample(rng) in (10, 11, 12)

    def test_contains(self):
        space = Discrete(4)
        assert space.contains(0)
        assert space.contains(3)
        assert not space.contains(4)
        assert not space.contains(-1)
        assert not space.contains(1.5)
        assert space.contains(np.int64(2))

    def test_invalid_n_raises(self):
        with pytest.raises(ValueError):
            Discrete(0)
