"""Tests for the action distributions and their analytic gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.rl import Categorical, DiagGaussian, TanhGaussian


class TestDiagGaussian:
    def test_log_prob_matches_scipy(self, rng):
        mean = rng.standard_normal((5, 3))
        log_std = rng.standard_normal(3) * 0.3
        dist = DiagGaussian(mean, log_std)
        actions = rng.standard_normal((5, 3))
        expected = stats.norm.logpdf(actions, loc=mean, scale=np.exp(log_std)).sum(axis=-1)
        assert np.allclose(dist.log_prob(actions), expected)

    def test_entropy_matches_scipy(self, rng):
        log_std = np.array([0.1, -0.4])
        dist = DiagGaussian(np.zeros((1, 2)), log_std)
        expected = stats.norm.entropy(scale=np.exp(log_std)).sum()
        assert np.allclose(dist.entropy()[0], expected)

    def test_sample_statistics(self, rng):
        dist = DiagGaussian(np.full((20000, 1), 2.0), np.log(np.array([0.5])))
        samples = dist.sample(rng)
        assert abs(samples.mean() - 2.0) < 0.02
        assert abs(samples.std() - 0.5) < 0.02

    def test_mode_is_mean(self):
        mean = np.array([[1.0, -2.0]])
        dist = DiagGaussian(mean, np.zeros(2))
        assert np.allclose(dist.mode(), mean)

    def test_dlogp_dmean_finite_difference(self, rng):
        mean = rng.standard_normal((3, 2))
        log_std = np.array([0.2, -0.1])
        actions = rng.standard_normal((3, 2))
        analytic = DiagGaussian(mean, log_std).dlogp_dmean(actions)
        eps = 1e-6
        for i in range(3):
            for j in range(2):
                up, down = mean.copy(), mean.copy()
                up[i, j] += eps
                down[i, j] -= eps
                lp_up = DiagGaussian(up, log_std).log_prob(actions)[i]
                lp_down = DiagGaussian(down, log_std).log_prob(actions)[i]
                assert np.isclose(analytic[i, j], (lp_up - lp_down) / (2 * eps), atol=1e-5)

    def test_dlogp_dlogstd_finite_difference(self, rng):
        mean = rng.standard_normal((3, 2))
        log_std = np.array([0.2, -0.1])
        actions = rng.standard_normal((3, 2))
        analytic = DiagGaussian(mean, log_std).dlogp_dlogstd(actions)
        eps = 1e-6
        for j in range(2):
            up, down = log_std.copy(), log_std.copy()
            up[j] += eps
            down[j] -= eps
            lp_up = DiagGaussian(mean, up).log_prob(actions)
            lp_down = DiagGaussian(mean, down).log_prob(actions)
            num = (lp_up - lp_down) / (2 * eps)
            assert np.allclose(analytic[:, j], num, atol=1e-5)


class TestTanhGaussian:
    def test_actions_bounded(self, rng):
        dist = TanhGaussian(rng.standard_normal((100, 2)) * 3, np.zeros(2))
        out = dist.rsample(rng)
        assert np.all(np.abs(out["action"]) < 1.0)
        assert np.allclose(out["action"], np.tanh(out["pre_tanh"]))

    def test_log_prob_change_of_variables(self, rng):
        """logp must equal gaussian logp minus log|J| of tanh."""
        mean = np.zeros((1, 1))
        log_std = np.zeros(1)
        dist = TanhGaussian(mean, log_std)
        z = np.array([[0.7]])
        lp = dist.log_prob_from_pre_tanh(z)
        gauss = stats.norm.logpdf(0.7)
        jac = np.log(1 - np.tanh(0.7) ** 2)
        assert np.isclose(lp[0], gauss - jac, atol=1e-9)

    def test_log_prob_integrates_to_one(self, rng):
        # numeric integral of p(a) over (-1, 1) ≈ 1
        dist = TanhGaussian(np.array([[0.3]]), np.array([np.log(0.8)]))
        a = np.linspace(-0.999, 0.999, 4001)
        z = np.arctanh(a)
        lp = np.array([dist.log_prob_from_pre_tanh(np.array([[zi]]))[0] for zi in z])
        integral = np.trapezoid(np.exp(lp), a)
        assert integral == pytest.approx(1.0, abs=5e-3)

    def test_log_std_clipped(self):
        dist = TanhGaussian(np.zeros((1, 1)), np.array([100.0]))
        assert dist.log_std[0, 0] <= 2.0
        dist = TanhGaussian(np.zeros((1, 1)), np.array([-100.0]))
        assert dist.log_std[0, 0] >= -8.0

    def test_reparam_gradients_finite_difference(self, rng):
        """Check grads_wrt_params against numeric differentiation of
        L = sum(w·a) + sum(v·logp) under fixed noise eps."""
        batch, dim = 4, 2
        mean = rng.standard_normal((batch, dim)) * 0.5
        log_std = rng.standard_normal((batch, dim)) * 0.2
        w = rng.standard_normal((batch, dim))
        v = rng.standard_normal(batch)
        eps_noise = rng.standard_normal((batch, dim))

        def compute(m, ls):
            d = TanhGaussian(m, ls)
            z = d.mean + d.std * eps_noise
            a = np.tanh(z)
            lp = d.log_prob_from_pre_tanh(z)
            return float(np.sum(w * a) + np.sum(v * lp))

        dist = TanhGaussian(mean, log_std)
        z = dist.mean + dist.std * eps_noise
        sample = {
            "action": np.tanh(z),
            "pre_tanh": z,
            "eps": eps_noise,
            "log_prob": dist.log_prob_from_pre_tanh(z),
        }
        dmean, dlog_std = dist.grads_wrt_params(sample, w, v)

        eps = 1e-6
        for i in range(batch):
            for j in range(dim):
                up, down = mean.copy(), mean.copy()
                up[i, j] += eps
                down[i, j] -= eps
                num = (compute(up, log_std) - compute(down, log_std)) / (2 * eps)
                assert np.isclose(dmean[i, j], num, atol=1e-4), (i, j)

                up, down = log_std.copy(), log_std.copy()
                up[i, j] += eps
                down[i, j] -= eps
                num = (compute(mean, up) - compute(mean, down)) / (2 * eps)
                assert np.isclose(dlog_std[i, j], num, atol=1e-4), (i, j)

    def test_mode(self):
        dist = TanhGaussian(np.array([[0.5]]), np.zeros(1))
        assert np.allclose(dist.mode(), np.tanh(0.5))


class TestCategorical:
    def test_probs_normalized(self, rng):
        dist = Categorical(rng.standard_normal((6, 4)) * 3)
        assert np.allclose(dist.probs.sum(axis=-1), 1.0)

    def test_log_prob_consistent(self, rng):
        logits = rng.standard_normal((5, 3))
        dist = Categorical(logits)
        actions = np.array([0, 1, 2, 0, 1])
        lp = dist.log_prob(actions)
        assert np.allclose(np.exp(lp), dist.probs[np.arange(5), actions])

    def test_sampling_distribution(self, rng):
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        dist = Categorical(np.repeat(logits, 30000, axis=0))
        samples = dist.sample(rng)
        freq = np.bincount(samples, minlength=3) / len(samples)
        assert np.allclose(freq, [0.7, 0.2, 0.1], atol=0.02)

    def test_entropy_uniform_is_log_n(self):
        dist = Categorical(np.zeros((1, 8)))
        assert dist.entropy()[0] == pytest.approx(np.log(8))

    def test_mode(self):
        dist = Categorical(np.array([[0.1, 3.0, -1.0]]))
        assert dist.mode()[0] == 1

    def test_dlogp_dlogits_finite_difference(self, rng):
        logits = rng.standard_normal((3, 4))
        actions = np.array([1, 3, 0])
        analytic = Categorical(logits).dlogp_dlogits(actions)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                up, down = logits.copy(), logits.copy()
                up[i, j] += eps
                down[i, j] -= eps
                num = (
                    Categorical(up).log_prob(actions)[i]
                    - Categorical(down).log_prob(actions)[i]
                ) / (2 * eps)
                assert np.isclose(analytic[i, j], num, atol=1e-5)

    def test_dentropy_dlogits_finite_difference(self, rng):
        logits = rng.standard_normal((2, 3))
        analytic = Categorical(logits).dentropy_dlogits()
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                up, down = logits.copy(), logits.copy()
                up[i, j] += eps
                down[i, j] -= eps
                num = (
                    Categorical(up).entropy()[i] - Categorical(down).entropy()[i]
                ) / (2 * eps)
                assert np.isclose(analytic[i, j], num, atol=1e-5)

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_entropy_bounded_property(self, n):
        logits = np.random.default_rng(n).standard_normal((3, n)) * 2
        ent = Categorical(logits).entropy()
        assert np.all(ent >= 0)
        assert np.all(ent <= np.log(n) + 1e-9)
