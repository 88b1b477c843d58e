"""The update layer against the arithmetic it replaced, bit for bit.

``repro.rl`` computes its layers in place, keeps each optimizer's
parameters in one flat buffer, skips the gradients no caller reads and
fuses the gradient-norm pass with the divergence check. None of that may
change a single bit of a parameter. The references below are
the textbook forms the layer replaced (``np.where`` ReLU, ``x @ W + b``,
per-parameter Adam and polyak, the per-parameter global norm, and test
copies of the SAC and PPO update methods as they were before), and every
comparison is of bit patterns. No result value is stored: numpy builds
may round differently, but each build must agree with itself.
"""

from __future__ import annotations

import copy
import pickle
import types

import numpy as np
import pytest

from repro.rl import (
    MLP,
    Adam,
    Dense,
    DivergenceError,
    Parameter,
    PPOAgent,
    PPOConfig,
    ReLU,
    RolloutBatch,
    SACAgent,
    SACConfig,
    Tanh,
    TanhGaussian,
    Transition,
    VTraceAgent,
)
from repro.rl.distributions import LOG_STD_MAX, LOG_STD_MIN, DiagGaussian
from repro.rl.errors import check_finite_update
from repro.rl.nn import ParameterStore, clip_grad_norm, flat_parameter

SHAPES = [(1, 1), (3, 7), (128, 64), (64, 1), (257, 11)]


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b) -> None:
    assert np.shape(a) == np.shape(b)
    assert np.array_equal(bits(a), bits(b))


def special_values(rng, n: int = 200_000) -> np.ndarray:
    """Random magnitudes across the float range plus NaN, ±0, ±inf, subnormals."""
    specials = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308]
    size = n - len(specials)
    body = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
    return np.concatenate([body, specials])


# ------------------------------------------------------------------ kernels
class TestKernels:
    def test_relu_forward_equals_where_on_special_values(self, rng):
        x = special_values(rng)
        reference = np.where(x > 0, x, 0.0)
        with np.errstate(invalid="ignore"):
            assert_same_bits(ReLU().forward(x.copy()), reference)
            # np.maximum propagates NaN and keeps -0.0: not the same function
            assert not np.array_equal(bits(np.maximum(x, 0.0)), bits(reference))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_relu_backward_masks_like_where(self, rng, shape):
        x = rng.standard_normal(shape)
        x[0, 0] = -0.0
        dout = rng.standard_normal(shape)
        layer = ReLU()
        layer.forward(x.copy())
        assert_same_bits(layer.backward(dout.copy()), dout * (x > 0))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_tanh_equals_reference(self, rng, shape):
        x = rng.standard_normal(shape) * 3.0
        dout = rng.standard_normal(shape)
        layer = Tanh()
        y = layer.forward(x.copy())
        ref_y = np.tanh(x)
        assert_same_bits(y, ref_y)
        assert_same_bits(layer.backward(dout), dout * (1.0 - ref_y * ref_y))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dense_equals_reference(self, rng, shape):
        batch, in_dim = shape
        layer = Dense(in_dim, 5, rng)
        layer.b.value[...] = rng.standard_normal(5)
        x = rng.standard_normal((batch, in_dim))
        dout = rng.standard_normal((batch, 5))
        w, b = layer.w.value.copy(), layer.b.value.copy()
        assert_same_bits(layer.forward(x), x @ w + b)
        dx = layer.backward(dout)
        assert_same_bits(dx, dout @ w.T)
        assert_same_bits(layer.w.grad, np.zeros_like(w) + x.T @ dout)
        assert_same_bits(layer.b.grad, np.zeros_like(b) + dout.sum(axis=0))

    def test_dense_backward_can_skip_input_and_parameter_grads(self, rng):
        layer = Dense(4, 3, rng)
        x, dout = rng.standard_normal((6, 4)), rng.standard_normal((6, 3))
        layer.forward(x)
        assert layer.backward(dout, input_grad=False) is None
        layer.forward(x)
        before = layer.w.grad.copy()
        dx = layer.backward(dout, param_grads=False)
        assert_same_bits(layer.w.grad, before)
        assert_same_bits(dx, dout @ layer.w.value.T)

    def test_backward_consumes_the_forward_cache(self, rng):
        net = MLP((3, 8, 2), rng)
        net.forward(rng.standard_normal((4, 3)))
        assert net.backward(np.ones((4, 2)), input_grad=False) is None
        with pytest.raises(RuntimeError):
            net.backward(np.ones((4, 2)))


def store_params(rng, shapes):
    """Random parameters of these shapes, taken in turn from one store."""
    size = 0
    for shape in shapes:
        size += int(np.prod(shape))
    store = ParameterStore(size)
    return [store.take(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]


class TestFlatOptimizers:
    def test_adam_equals_per_parameter_reference(self, rng):
        shapes = [(9, 64), (64,), (64, 64), (64,), (64, 4), (4,), (2,)]
        params = store_params(rng, shapes)
        ref_values = [p.value.copy() for p in params]
        ref_m = [np.zeros_like(v) for v in ref_values]
        ref_v = [np.zeros_like(v) for v in ref_values]
        opt = Adam(params, lr=3e-4)
        for t in range(1, 6):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
            # the parent's per-parameter Adam step
            bias1, bias2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            step_size = 3e-4 * np.sqrt(bias2) / bias1
            for value, m, v, g in zip(ref_values, ref_m, ref_v, grads):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                value -= step_size * m / (np.sqrt(v) + 1e-8)
        for p, value in zip(params, ref_values):
            assert_same_bits(p.value, value)
        assert_same_bits(opt._m, np.concatenate([m.ravel() for m in ref_m]))
        assert_same_bits(opt._v, np.concatenate([v.ravel() for v in ref_v]))

    def test_polyak_and_copy_equal_per_parameter_reference(self, rng):
        a = MLP((5, 16, 16, 2), rng)
        b = MLP((5, 16, 16, 2), np.random.default_rng(7))
        expected = []
        for mine, theirs in zip(b.parameters(), a.parameters()):
            value = mine.value.copy()
            value *= 1.0 - 0.005
            value += 0.005 * theirs.value
            expected.append(value)
        b.polyak_from(a, 0.005)
        for p, value in zip(b.parameters(), expected):
            assert_same_bits(p.value, value)
        b.copy_from(a)
        for mine, theirs in zip(b.parameters(), a.parameters()):
            assert_same_bits(mine.value, theirs.value)

    def test_fused_check_returns_the_per_parameter_norm(self, rng):
        params = store_params(rng, [(11, 64), (64,), (64, 64), (64,), (64, 1), (1,)])
        for p in params:
            p.grad[...] = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 4)
        total = 0.0
        for p in params:  # the parent's global_grad_norm
            total += float(np.sum(p.grad * p.grad))
        norm = check_finite_update("sac", 0, {"q_loss": 1.0}, Adam(params))
        assert norm == float(np.sqrt(total))
        expected = [p.grad * (0.5 / norm) for p in params]
        clip_grad_norm(params, 0.5, norm)
        for p, g in zip(params, expected):
            assert_same_bits(p.grad, g)

    def test_optimizer_needs_one_tiled_buffer(self, rng):
        a, b = Parameter("a", np.zeros(3)), Parameter("b", np.zeros(2))
        with pytest.raises(ValueError, match="ParameterStore"):
            Adam([a, b], lr=0.1)
        params = store_params(rng, [(2,), (3,)])
        with pytest.raises(ValueError):
            Adam(params[::-1], lr=0.1)
        with pytest.raises(ValueError):
            ParameterStore(2).take("x", np.zeros(3))

    def test_parameters_are_views_of_the_flat_buffer(self, rng):
        net = MLP((3, 8, 2), rng)
        opt = Adam(net.parameters(), lr=0.1)
        flat = flat_parameter("net", net.parameters())
        for p in net.parameters():
            assert np.shares_memory(p.value, opt.flat.value)
            assert np.shares_memory(p.grad, flat.grad)


class TestDivergenceGuard:
    def test_non_finite_gradient_is_named_before_an_overflowing_norm(self, rng):
        params = store_params(rng, [(3,), (4,), (5,)])
        params[0].grad[...] = 1e200
        params[2].grad[1] = np.nan
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                check_finite_update("ppo", 3, {"policy_loss": 0.0}, Adam(params))
        assert excinfo.value.extras["quantity"] == "grad[p2]"

    def test_overflowing_norm_of_finite_gradients_raises(self, rng):
        params = store_params(rng, [(3,), (4,)])
        for p in params:
            p.grad[...] = 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                check_finite_update("ppo", 3, {"policy_loss": 0.0}, Adam(params))
        assert excinfo.value.extras["quantity"] == "grad_norm"
        assert excinfo.value.extras["value"] == "inf"

    @staticmethod
    def exploding_backward(monkeypatch, params):
        """Every MLP backward leaves ``params`` with gradients of 1e200."""
        original = MLP.backward

        def backward(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            for p in params:
                p.grad[...] = 1e200
            return out

        monkeypatch.setattr(MLP, "backward", backward)

    def test_ppo_update_raises_instead_of_zeroing_gradients(self, monkeypatch):
        agent = PPOAgent(3, 1, seed=0)
        n = 8
        batch = RolloutBatch(
            observations=np.ones((n, 3)),
            actions=np.zeros((n, 1)),
            log_probs=np.zeros(n),
            advantages=np.ones(n),
            returns=np.zeros(n),
            values=np.zeros(n),
        )
        before = agent.policy_state()
        self.exploding_backward(monkeypatch, agent._params)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                agent._update_minibatch(batch)
        assert excinfo.value.extras["algorithm"] == "ppo"
        assert excinfo.value.extras["quantity"] == "grad_norm"
        after = agent.policy_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_sac_update_raises_instead_of_zeroing_gradients(self, monkeypatch):
        agent = SACAgent(2, 1, SACConfig(hidden_sizes=(16,)), seed=0)
        n = 4
        batch = Transition(
            observations=np.ones((n, 2)),
            actions=np.zeros((n, 1)),
            rewards=np.ones(n),
            next_observations=np.ones((n, 2)),
            terminations=np.zeros(n),
        )
        self.exploding_backward(monkeypatch, agent.q_optimizer.params)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                agent._update_once(batch)
        assert excinfo.value.extras["algorithm"] == "sac"
        assert excinfo.value.extras["quantity"] == "grad_norm"
        assert excinfo.value.extras["n_updates"] == 0

    @staticmethod
    def vtrace_batch(agent, T=4, N=2):
        """A finished ``(T, N)`` trajectory buffer acted by ``agent``."""
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((T, N, agent.obs_dim))
        out = agent.act(obs.reshape(T * N, agent.obs_dim))
        actions = out["action"].reshape(T, N, agent.act_dim)
        log_probs = out["log_prob"].reshape(T, N)
        rewards = rng.standard_normal((T, N))
        buffer = agent.make_buffer(T, N)
        for t in range(T):
            buffer.add(
                obs[t], actions[t], log_probs[t], rewards[t], np.zeros(N), np.zeros(N), np.zeros(N)
            )
        buffer.finish(rng.standard_normal((N, agent.obs_dim)))
        return buffer

    @pytest.mark.parametrize("cause", ["nan-reward", "exploding-backward"])
    def test_vtrace_update_raises_and_leaves_the_learner_untouched(self, monkeypatch, cause):
        agent = VTraceAgent(3, 1, seed=0)
        agent.update(self.vtrace_batch(agent))  # Adam moments away from zero
        batch = self.vtrace_batch(agent)
        if cause == "nan-reward":
            batch.rewards[1, 0] = np.nan
        else:
            self.exploding_backward(monkeypatch, agent._params)
        state = agent.policy_state()
        moments = agent.optimizer._m.copy(), agent.optimizer._v.copy()
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                agent.update(batch)
        extras = excinfo.value.extras
        assert (extras["algorithm"], extras["n_updates"]) == ("vtrace", 1)
        expected = "policy_loss" if cause == "nan-reward" else "grad_norm"
        assert extras["quantity"] == expected
        assert all(np.array_equal(value, agent.policy_state()[k]) for k, value in state.items())
        assert_same_bits(agent.optimizer._m, moments[0])
        assert_same_bits(agent.optimizer._v, moments[1])
        assert agent.optimizer.t == 1


# ------------------------------------------------- the parent's update code
class RefAdam:
    """The parent's per-parameter Adam."""

    def __init__(self, params, lr):
        self.params, self.lr = list(params), lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        step_size = self.lr * np.sqrt(bias2) / bias1
        for p, m, v in zip(self.params, self._m, self._v, strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad * p.grad)
            p.value -= step_size * m / (np.sqrt(v) + self.eps)


def ref_check_and_clip(algorithm, n_updates, losses, params, max_norm):
    """The parent's check_finite_update, then its clip_grad_norm."""
    for name, value in losses.items():
        if not np.isfinite(value):
            raise DivergenceError(algorithm, n_updates, name, float(value))
    for param in params:
        if not np.all(np.isfinite(param.grad)):
            sample = param.grad[~np.isfinite(param.grad)].flat[0]
            raise DivergenceError(algorithm, n_updates, f"grad[{param.name}]", float(sample))
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        for p in params:
            p.grad *= max_norm / norm
    return norm


def ref_sac_update_once(self, batch):
    """The parent's SACAgent._update_once: separate heads, two passes."""
    cfg = self.config
    n = len(batch)
    obs, actions = batch.observations, batch.actions
    rewards, next_obs = batch.rewards, batch.next_observations
    terminations = batch.terminations

    next_dist = self._policy_dist(next_obs)
    next_sample = next_dist.rsample(self.rng)
    next_actions, next_logp = next_sample["action"], next_sample["log_prob"]
    q1_t = self.q1_target.forward(next_obs, next_actions)
    q2_t = self.q2_target.forward(next_obs, next_actions)
    min_q_t = np.minimum(q1_t, q2_t) - self.alpha * next_logp
    target = rewards + cfg.gamma * (1.0 - terminations) * min_q_t

    is_weights = getattr(batch, "weights", None)
    w = np.ones(n) if is_weights is None else np.asarray(is_weights)
    q1 = self.q1.forward(obs, actions)
    q2 = self.q2.forward(obs, actions)
    q_loss = 0.5 * float(np.mean(w * (q1 - target) ** 2) + np.mean(w * (q2 - target) ** 2))
    self.q1.net.zero_grad()
    self.q2.net.zero_grad()
    self.q1.net.backward((w * (q1 - target) / n).reshape(-1, 1))
    self.q2.net.backward((w * (q2 - target) / n).reshape(-1, 1))
    ref_check_and_clip("sac", self.n_updates, {"q_loss": q_loss}, self.q_optimizer.params,
                       cfg.max_grad_norm)
    self.q_optimizer.step()

    raw = self.policy.forward(obs)
    raw_log_std = raw[:, self.act_dim :]
    dist = TanhGaussian(raw[:, : self.act_dim], raw_log_std)
    sample = dist.rsample(self.rng)
    new_actions, logp = sample["action"], sample["log_prob"]
    q1_pi = self.q1.forward(obs, new_actions)
    q2_pi = self.q2.forward(obs, new_actions)
    use_q1 = q1_pi <= q2_pi
    min_q_pi = np.where(use_q1, q1_pi, q2_pi)
    policy_loss = float(np.mean(self.alpha * logp - min_q_pi))
    dq1 = np.where(use_q1, -1.0, 0.0) / n
    dq2 = np.where(use_q1, 0.0, -1.0) / n
    self.q1.net.zero_grad()
    self.q2.net.zero_grad()
    da_q1 = self.q1.net.backward(dq1.reshape(-1, 1))[:, self.obs_dim :]
    da_q2 = self.q2.net.backward(dq2.reshape(-1, 1))[:, self.obs_dim :]
    dL_daction = da_q1 + da_q2
    dL_dlogp = np.full(n, self.alpha / n)
    dmean, dlog_std = dist.grads_wrt_params(sample, dL_daction, dL_dlogp)
    active = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
    dlog_std = np.where(active, dlog_std, 0.0)
    self.policy.zero_grad()
    self.policy.backward(np.concatenate([dmean, dlog_std], axis=-1))
    ref_check_and_clip("sac", self.n_updates, {"policy_loss": policy_loss},
                       self.policy_optimizer.params, cfg.max_grad_norm)
    self.policy_optimizer.step()

    entropy = float(-logp.mean())
    if cfg.alpha is None:
        self._log_alpha.zero_grad()
        self._log_alpha.grad += -float(np.mean(logp + self.target_entropy))
        self.alpha_optimizer.step()

    for target_net, net in ((self.q1_target.net, self.q1.net), (self.q2_target.net, self.q2.net)):
        for mine, theirs in zip(target_net.parameters(), net.parameters()):
            mine.value *= 1.0 - cfg.tau
            mine.value += cfg.tau * theirs.value

    self.n_updates += 1
    return {"q_loss": q_loss, "policy_loss": policy_loss, "alpha": self.alpha, "entropy": entropy}


def ref_ppo_update_minibatch(self, batch):
    """The parent's PPOAgent._update_minibatch: both forwards, then both backwards."""
    cfg = self.config
    obs, actions, advantages = batch.observations, batch.actions, batch.advantages
    n = len(batch)
    mean = self.actor.forward(obs)
    dist = DiagGaussian(mean, self.log_std.value)
    log_probs = dist.log_prob(actions)
    entropy = dist.entropy()
    values = self.critic.forward(obs)[:, 0]
    log_ratio = log_probs - batch.log_probs
    ratio = np.exp(log_ratio)
    clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
    surr1 = ratio * advantages
    surr2 = clipped_ratio * advantages
    policy_loss = -np.minimum(surr1, surr2).mean()
    value_loss = 0.5 * np.mean((values - batch.returns) ** 2)
    entropy_mean = float(entropy.mean())
    use_unclipped = surr1 <= surr2
    inside_clip = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
    dl_dratio = np.where(use_unclipped | inside_clip, -advantages, 0.0) / n
    dl_dlogp = dl_dratio * ratio
    dmean = dl_dlogp[:, None] * dist.dlogp_dmean(actions)
    dlog_std = (dl_dlogp[:, None] * dist.dlogp_dlogstd(actions)).sum(axis=0)
    dlog_std += -cfg.ent_coef * np.ones(self.act_dim)
    dvalues = cfg.vf_coef * (values - batch.returns)[:, None] / n
    self.actor.zero_grad()
    self.critic.zero_grad()
    self.log_std.zero_grad()
    self.actor.backward(dmean)
    self.critic.backward(dvalues)
    self.log_std.grad += dlog_std
    grad_norm = ref_check_and_clip(
        "ppo", self.n_updates,
        {"policy_loss": float(policy_loss), "value_loss": float(value_loss)},
        self._params, cfg.max_grad_norm,
    )
    self.optimizer.step()
    self.n_updates += 1
    with np.errstate(over="ignore"):
        approx_kl = float(np.mean((ratio - 1.0) - log_ratio))
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
    return {
        "policy_loss": float(policy_loss), "value_loss": float(value_loss),
        "entropy": entropy_mean, "approx_kl": approx_kl,
        "clip_fraction": clip_fraction, "grad_norm": float(grad_norm),
    }


def reference_sac(**config):
    agent = SACAgent(9, 2, SACConfig(**config), seed=3)
    agent._update_once = types.MethodType(ref_sac_update_once, agent)
    lr = agent.config.learning_rate
    agent.q_optimizer = RefAdam(agent.q_optimizer.params, lr)
    agent.policy_optimizer = RefAdam(agent.policy_optimizer.params, lr)
    agent.alpha_optimizer = RefAdam(agent.alpha_optimizer.params, lr)
    return agent


def reference_ppo():
    agent = PPOAgent(9, 2, PPOConfig(), seed=5)
    agent._update_minibatch = types.MethodType(ref_ppo_update_minibatch, agent)
    agent.optimizer = RefAdam(agent._params, agent.config.learning_rate)
    return agent


def sac_networks(agent):
    return [agent.policy, agent.q1.net, agent.q2.net, agent.q1_target.net, agent.q2_target.net]


def assert_optimizers_equal(new, ref):
    assert new.t == ref._t
    assert [p.name for p in new.params] == [p.name for p in ref.params]
    for p, q in zip(new.params, ref.params):
        assert_same_bits(p.value, q.value)
    assert_same_bits(new._m, np.concatenate([m.ravel() for m in ref._m]))
    assert_same_bits(new._v, np.concatenate([v.ravel() for v in ref._v]))


def train_sac(agent, n_updates, seed=1):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal(9)
    stats = []
    step = 0
    while len(stats) < n_updates:
        action = agent.act(obs[None])["action"][0]
        next_obs = rng.standard_normal(9)
        agent.observe(obs, action, float(rng.standard_normal()), next_obs, step % 40 == 39)
        if agent.ready_to_update():
            stats.append(agent.update())
        obs, step = next_obs, step + 1
    return stats


def train_ppo(agent, n_updates, seed=2):
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((4, 9))
    stats = []
    for _ in range(n_updates):
        buf = agent.make_buffer(64, 4)
        for _ in range(64):
            out = agent.act(obs)
            terms = (rng.random(4) < 0.05).astype(float)
            buf.add(obs, out["action"], out["log_prob"], rng.standard_normal(4), out["value"],
                    terms, np.zeros(4), np.zeros(4))
            obs = rng.standard_normal((4, 9))
        buf.finish(agent.value(obs))
        stats.append(agent.update(buf))
    return stats


class TestAgentsMatchTheParentUpdates:
    # SAC samples its replay buffer uniformly; the ids say so
    @pytest.mark.parametrize("activation", ["relu", "tanh"], ids=["relu-uniform", "tanh-uniform"])
    def test_sac_fifty_updates_bit_identical(self, activation):
        config = dict(learning_starts=150, activation=activation)
        agent = SACAgent(9, 2, SACConfig(**config), seed=3)
        reference = reference_sac(**config)
        assert train_sac(agent, 50) == train_sac(reference, 50)
        for mine, theirs in zip(sac_networks(agent), sac_networks(reference)):
            for p, q in zip(mine.parameters(), theirs.parameters()):
                assert_same_bits(p.value, q.value)
        assert_optimizers_equal(agent.q_optimizer, reference.q_optimizer)
        assert_optimizers_equal(agent.policy_optimizer, reference.policy_optimizer)
        assert_optimizers_equal(agent.alpha_optimizer, reference.alpha_optimizer)

    def test_ppo_two_updates_bit_identical(self):
        agent, reference = PPOAgent(9, 2, PPOConfig(), seed=5), reference_ppo()
        assert train_ppo(agent, 2) == train_ppo(reference, 2)
        assert_optimizers_equal(agent.optimizer, reference.optimizer)


# ------------------------------------------------------ views survive copies
def sac_state(agent):
    state = {}
    for net in sac_networks(agent):
        state.update(net.state_dict())
    state["log_alpha"] = agent._log_alpha.value.copy()
    return state


class TestViewsSurviveCopies:
    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_sac_copy_trains_like_the_original(self, how):
        make = lambda: SACAgent(9, 2, SACConfig(learning_starts=150), seed=3)  # noqa: E731
        original = make()
        copied = pickle.loads(pickle.dumps(make())) if how == "pickle" else copy.deepcopy(make())
        assert np.shares_memory(copied.q1.net.parameters()[0].value, copied.q_optimizer.flat.value)
        assert train_sac(original, 20) == train_sac(copied, 20)
        mine, theirs = sac_state(original), sac_state(copied)
        for key in mine:
            assert_same_bits(mine[key], theirs[key])

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_ppo_copy_trains_like_the_original(self, how):
        original = PPOAgent(9, 2, PPOConfig(), seed=5)
        fresh = PPOAgent(9, 2, PPOConfig(), seed=5)
        copied = pickle.loads(pickle.dumps(fresh)) if how == "pickle" else copy.deepcopy(fresh)
        assert train_ppo(original, 1) == train_ppo(copied, 1)
        for key, value in original.policy_state().items():
            assert_same_bits(value, copied.policy_state()[key])

    def test_loaded_and_copied_weights_train_like_the_source(self):
        source = SACAgent(9, 2, SACConfig(learning_starts=150), seed=3)
        loaded = SACAgent(9, 2, SACConfig(learning_starts=150), seed=4)
        loaded.policy.load_state_dict(source.policy.state_dict())
        loaded.q1.net.copy_from(source.q1.net)
        loaded.q2.net.load_state_dict(source.q2.net.state_dict())
        loaded.q1_target.net.polyak_from(source.q1_target.net, 1.0)
        loaded.q2_target.net.polyak_from(source.q2_target.net, 1.0)
        loaded.rng.bit_generator.state = source.rng.bit_generator.state
        assert train_sac(source, 20) == train_sac(loaded, 20)
        mine, theirs = sac_state(source), sac_state(loaded)
        for key in mine:
            assert_same_bits(mine[key], theirs[key])

    def test_loaded_ppo_trains_like_the_source(self):
        source = PPOAgent(9, 2, PPOConfig(), seed=5)
        loaded = PPOAgent(9, 2, PPOConfig(), seed=6)
        loaded.load_policy_state(source.policy_state())
        loaded.rng.bit_generator.state = source.rng.bit_generator.state
        assert train_ppo(source, 1) == train_ppo(loaded, 1)
        for key, value in source.policy_state().items():
            assert_same_bits(value, loaded.policy_state()[key])
