"""Tests for V-trace returns and the IMPALA-like back-end."""

from __future__ import annotations

import numpy as np
import pytest

import repro.airdrop  # noqa: F401
from repro.frameworks import ImpalaLike, TrainSpec, get_framework
from repro.obs import RingBufferSink, Telemetry
from repro.rl import VTraceAgent, VTraceConfig, compute_gae, vtrace_returns


def trajectories(agent, observations, actions, rewards, terminations, log_probs, last_obs):
    """A finished trajectory buffer of ``agent`` holding ``(T, N)`` arrays."""
    T, N = rewards.shape
    buffer = agent.make_buffer(T, N)
    for t in range(T):
        buffer.add(
            observations[t], actions[t], log_probs[t], rewards[t], np.zeros(N),
            terminations[t], np.zeros(N, dtype=bool),
        )
    buffer.finish(last_obs)
    return buffer


class TestVTraceReturns:
    def test_on_policy_reduces_to_gae_lambda_one(self):
        """With π == μ and no truncation active (ratios == 1 ≤ bars), the
        V-trace targets equal the λ=1 GAE returns."""
        rng = np.random.default_rng(0)
        T, N = 6, 3
        rewards = rng.standard_normal((T, N))
        values = rng.standard_normal((T, N))
        terms = np.zeros((T, N))
        terms[3, 1] = 1.0
        logp = rng.standard_normal((T, N))
        boot = rng.standard_normal(N)

        vs, pg = vtrace_returns(rewards, values, boot, logp, logp, terms, gamma=0.95)
        _, gae_ret = compute_gae(rewards, values, terms, boot, gamma=0.95, lam=1.0)
        assert np.allclose(vs, gae_ret)

    def test_rho_truncation_limits_correction(self):
        """A hugely off-policy action must not blow up the targets."""
        T, N = 4, 1
        rewards = np.ones((T, N))
        values = np.zeros((T, N))
        terms = np.zeros((T, N))
        behaviour = np.full((T, N), -10.0)   # very unlikely under mu
        target = np.zeros((T, N))            # likely under pi → ratio e^10
        vs, pg = vtrace_returns(
            rewards, values, np.zeros(N), behaviour, target, terms, gamma=1.0,
            rho_bar=1.0, c_bar=1.0,
        )
        capped, _ = vtrace_returns(
            rewards, values, np.zeros(N), target, target, terms, gamma=1.0
        )
        assert np.allclose(vs, capped)  # clipped at rho_bar/c_bar == on-policy

    def test_terminations_cut_bootstrap(self):
        rewards = np.array([[1.0]])
        values = np.array([[0.0]])
        terms = np.array([[1.0]])
        logp = np.zeros((1, 1))
        vs, pg = vtrace_returns(rewards, values, np.array([100.0]), logp, logp, terms)
        assert vs[0, 0] == pytest.approx(1.0)
        assert pg[0, 0] == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vtrace_returns(
                np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(2),
                np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2)),
            )

    def test_zero_ratio_freezes_values(self):
        """ρ = 0 (infinitely off-policy, clipped below) leaves V unchanged."""
        T, N = 3, 1
        rewards = np.ones((T, N))
        values = np.full((T, N), 5.0)
        terms = np.zeros((T, N))
        behaviour = np.zeros((T, N))
        target = np.full((T, N), -50.0)  # ratio ~ e^-50 ≈ 0
        vs, pg = vtrace_returns(rewards, values, np.zeros(N), behaviour, target, terms)
        assert np.allclose(vs, values, atol=1e-10)
        assert np.allclose(pg, 0.0, atol=1e-10)


class TestVTraceAgent:
    def test_act_shapes(self):
        agent = VTraceAgent(5, 2, seed=0)
        out = agent.act(np.zeros((4, 5)))
        assert out["action"].shape == (4, 2)
        assert out["log_prob"].shape == (4,)

    def test_update_runs_and_reports(self):
        agent = VTraceAgent(3, 1, seed=0)
        rng = np.random.default_rng(0)
        T, N = 8, 4
        stats = agent.update(trajectories(
            agent,
            rng.standard_normal((T, N, 3)),
            rng.standard_normal((T, N, 1)),
            rng.standard_normal((T, N)),
            np.zeros((T, N)),
            rng.standard_normal((T, N)),
            rng.standard_normal((N, 3)),
        ))
        for key in ("policy_loss", "value_loss", "entropy", "mean_is_ratio"):
            assert key in stats
        assert agent.n_updates == 1

    def test_reports_the_entropy_of_the_policy_it_trained_on(self):
        agent = VTraceAgent(3, 2, VTraceConfig(initial_log_std=-0.3), seed=0)
        log_std = agent.log_std.value.copy()
        rng = np.random.default_rng(0)
        T, N = 8, 4
        stats = agent.update(trajectories(
            agent,
            rng.standard_normal((T, N, 3)),
            rng.standard_normal((T, N, 2)),
            rng.standard_normal((T, N)),
            np.zeros((T, N)),
            rng.standard_normal((T, N)),
            rng.standard_normal((N, 3)),
        ))
        # the differential entropy of N(mean, diag(exp(log_std))^2)
        before = float(np.sum(log_std + 0.5 * np.log(2.0 * np.pi * np.e)))
        after = float(np.sum(agent.log_std.value + 0.5 * np.log(2.0 * np.pi * np.e)))
        assert after != pytest.approx(before, rel=1e-12, abs=0.0)
        assert stats["entropy"] == pytest.approx(before, rel=1e-12, abs=0.0)

    def test_truncation_ends_a_trajectory_without_a_bootstrap(self):
        agent = VTraceAgent(3, 1, seed=0)
        buffer = agent.make_buffer(1, 3)
        buffer.add(
            np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(3), np.array([1.0, -0.0, 2.0]),
            np.zeros(3), np.array([True, False, False]), np.array([False, True, False]),
            np.full(3, 5.0),
        )
        assert not buffer.bootstraps
        assert buffer.terminations.tolist() == [[1.0, 1.0, 0.0]]
        assert buffer.rewards[0].tobytes() == np.array([1.0, -0.0, 2.0]).tobytes()

    def test_learns_simple_objective(self):
        """Reward = -a²: the policy mean must shrink toward zero."""
        agent = VTraceAgent(2, 1, VTraceConfig(learning_rate=3e-3), seed=0)
        rng = np.random.default_rng(1)
        T, N = 16, 8
        for _ in range(60):
            obs = rng.standard_normal((T, N, 2))
            flat = obs.reshape(T * N, 2)
            out = agent.act(flat)
            actions = out["action"].reshape(T, N, 1)
            logp = out["log_prob"].reshape(T, N)
            rewards = -(actions[..., 0] ** 2)
            agent.update(trajectories(agent, obs, actions, rewards, np.zeros((T, N)), logp,
                                      rng.standard_normal((N, 2))))
        test_actions = agent.act(rng.standard_normal((100, 2)), deterministic=True)["action"]
        assert np.mean(np.abs(test_actions)) < 0.15

    def test_policy_state_roundtrip(self):
        a = VTraceAgent(3, 1, seed=0)
        b = VTraceAgent(3, 1, seed=5)
        b.load_policy_state(a.policy_state())
        obs = np.random.default_rng(0).standard_normal((2, 3))
        assert np.allclose(
            a.act(obs, deterministic=True)["action"],
            b.act(obs, deterministic=True)["action"],
        )


class TestImpalaLike:
    def test_registered(self):
        assert isinstance(get_framework("impala"), ImpalaLike)

    def test_rejects_sac(self):
        fw = get_framework("impala")
        with pytest.raises(ValueError, match="V-trace"):
            fw.train(TrainSpec(algorithm="sac", total_steps=100))

    def test_trains_and_reports(self):
        fw = get_framework("impala")
        spec = TrainSpec(
            algorithm="ppo", n_nodes=1, cores_per_node=2,
            env_kwargs={"rk_order": 3}, seed=0, total_steps=1500,
            eval_episodes=2,
        )
        result = fw.train(spec)
        assert result.framework == "impala"
        assert np.isfinite(result.reward)
        assert result.computation_time_s > 0

    def test_emits_the_on_policy_phase_spans(self):
        sink = RingBufferSink()
        spec = TrainSpec(
            algorithm="ppo", n_nodes=2, cores_per_node=2,
            env_kwargs={"rk_order": 3}, seed=0, total_steps=300, eval_episodes=1,
        )
        result = ImpalaLike().train(spec, telemetry=Telemetry(sink))
        names = [span["name"] for span in sink.spans()]
        iterations = result.diagnostics["real_steps"] / 128  # 4 actors x 32 steps
        for phase in ("rollout", "weight_sync", "update"):
            assert names.count(phase) == iterations, phase

    def test_pipelining_beats_rllib_wall_clock(self):
        """The async DAG must make IMPALA faster than synchronous RLlib at
        the same 2-node configuration."""
        spec = TrainSpec(
            algorithm="ppo", n_nodes=2, cores_per_node=4,
            env_kwargs={"rk_order": 5}, seed=0, total_steps=4000,
        )
        impala = get_framework("impala").train(spec)
        rllib = get_framework("rllib").train(spec)
        assert impala.computation_time_s < rllib.computation_time_s * 0.8

    def test_multi_node_ships_experience(self):
        fw = get_framework("impala")
        spec = TrainSpec(
            algorithm="ppo", n_nodes=2, cores_per_node=2,
            env_kwargs={"rk_order": 3}, seed=0, total_steps=1000,
            eval_episodes=1,
        )
        result = fw.train(spec)
        assert result.diagnostics["bytes_transferred"] > 0
