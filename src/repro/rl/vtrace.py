"""V-trace off-policy correction (Espeholt et al., 2018 — IMPALA).

The paper's background (§II-A) singles out IMPALA as "a highly scalable
agent introducing a new off-policy algorithm called V-trace". This module
implements that algorithm as an extension back-end: actors sample with a
*behaviour* policy that lags the learner, and the learner corrects the
resulting off-policy-ness with truncated importance sampling:

``ρ_t = min(ρ̄, π(a_t|x_t) / μ(a_t|x_t))``
``c_t = min(c̄, π(a_t|x_t) / μ(a_t|x_t))``
``δ_t = ρ_t (r_t + γ V(x_{t+1}) − V(x_t))``
``v_t = V(x_t) + δ_t + γ c_t (v_{t+1} − V(x_{t+1}))``

The policy gradient uses ``ρ_t (r_t + γ v_{t+1} − V(x_t))`` as its
advantage; the value function regresses onto the ``v_t`` targets.

:class:`VTraceAgent` trains the shared
:class:`~repro.rl.actor_critic.ActorCritic` (the networks, Gaussian head,
acting, snapshots and divergence guard PPO uses) this way, with a single
optimization pass per batch (IMPALA performs one SGD step per
trajectory batch, unlike PPO's epochs). Its :class:`TrajectoryBuffer`
fills like PPO's rollout buffer, so one actor-learner loop drives both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actor_critic import ActorCritic
from .buffers import RolloutBuffer

__all__ = ["vtrace_returns", "VTraceConfig", "VTraceAgent", "TrajectoryBuffer"]


def vtrace_returns(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap_value: np.ndarray,
    behaviour_log_probs: np.ndarray,
    target_log_probs: np.ndarray,
    terminations: np.ndarray,
    gamma: float = 0.99,
    rho_bar: float = 1.0,
    c_bar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute V-trace value targets and policy-gradient advantages.

    All per-step arrays have shape ``(T, N)``; ``bootstrap_value`` is
    ``(N,)``. ``terminations[t]`` cuts the recursion after step ``t``.

    Returns ``(vs, pg_advantages)``, both ``(T, N)``.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    T, N = rewards.shape
    if values.shape != (T, N):
        raise ValueError("values must match rewards shape")
    log_rhos = np.asarray(target_log_probs, dtype=np.float64) - np.asarray(
        behaviour_log_probs, dtype=np.float64
    )
    rhos = np.exp(log_rhos)
    clipped_rhos = np.minimum(rho_bar, rhos)
    clipped_cs = np.minimum(c_bar, rhos)
    non_terminal = 1.0 - np.asarray(terminations, dtype=np.float64)

    next_values = np.vstack([values[1:], np.asarray(bootstrap_value).reshape(1, N)])
    deltas = clipped_rhos * (rewards + gamma * non_terminal * next_values - values)

    vs_minus_v = np.zeros((T, N))
    acc = np.zeros(N)
    for t in range(T - 1, -1, -1):
        acc = deltas[t] + gamma * non_terminal[t] * clipped_cs[t] * acc
        vs_minus_v[t] = acc
    vs = values + vs_minus_v

    next_vs = np.vstack([vs[1:], np.asarray(bootstrap_value).reshape(1, N)])
    pg_advantages = clipped_rhos * (rewards + gamma * non_terminal * next_vs - values)
    return vs, pg_advantages


@dataclass(frozen=True)
class VTraceConfig:
    """IMPALA-style actor-critic hyperparameters."""

    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    learning_rate: float = 3e-4
    gamma: float = 0.99
    rho_bar: float = 1.0
    c_bar: float = 1.0
    vf_coef: float = 0.5
    ent_coef: float = 1e-3
    max_grad_norm: float = 0.5
    initial_log_std: float = 0.0


class TrajectoryBuffer(RolloutBuffer):
    """``(T, N)`` trajectories for one V-trace update.

    The learner bootstraps inside its update, so the buffer folds no
    bootstrap value in: a truncation ends a trajectory like a
    termination, and :meth:`finish` keeps the observations after the
    segment for the learner's current critic.
    """

    bootstraps = False

    def add(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        rewards: np.ndarray,
        values: np.ndarray,
        terminations: np.ndarray,
        truncations: np.ndarray,
        bootstrap_values: np.ndarray | None = None,
    ) -> None:
        """Record one vector-env step; ``bootstrap_values`` are ignored."""
        super().add(obs, actions, log_probs, rewards, values, terminations, truncations)

    def finish(self, last_observations: np.ndarray) -> None:
        """Keep the ``(N, obs_dim)`` observations after the segment."""
        if not self.full:
            raise RuntimeError("cannot finish a partially filled buffer")
        self.bootstrap_observations = np.asarray(last_observations, dtype=np.float64)
        self._finished = True


class VTraceAgent(ActorCritic):
    """Continuous-control actor-critic trained with V-trace targets."""

    config: VTraceConfig

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: VTraceConfig | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(obs_dim, act_dim, config or VTraceConfig(), seed)

    def update(self, buffer: TrajectoryBuffer) -> dict[str, float]:
        """One V-trace gradient step over a finished trajectory buffer."""
        cfg = self.config
        T, N = buffer.rewards.shape
        n = T * N
        flat_obs = buffer.observations.reshape(n, self.obs_dim)
        flat_actions = buffer.actions.reshape(n, self.act_dim)

        dist = self.head.distribution(self.actor.forward(flat_obs))
        target_log_probs = dist.log_prob(flat_actions).reshape(T, N)
        # before the step: the distribution shares log_std's storage
        entropy = float(dist.entropy().mean())
        # the bootstrap pass first, so the critic's backward reads the batch's caches
        bootstrap_value = self.critic.forward(buffer.bootstrap_observations)[:, 0]
        values = self.critic.forward(flat_obs)[:, 0]
        vs, pg_adv = vtrace_returns(
            buffer.rewards,
            values.reshape(T, N),
            bootstrap_value,
            buffer.log_probs,
            target_log_probs,
            buffer.terminations,
            gamma=cfg.gamma,
            rho_bar=cfg.rho_bar,
            c_bar=cfg.c_bar,
        )

        # policy loss: -E[adv * log pi]; vs/adv treated as constants
        flat_adv = pg_adv.reshape(n)
        policy_loss = float(-(flat_adv * target_log_probs.reshape(n)).mean())
        self._backward_policy(dist, flat_actions, -flat_adv / n)
        value_loss = self._backward_value(values, vs.reshape(n))
        grad_norm = self._step("vtrace", {"policy_loss": policy_loss, "value_loss": value_loss})

        self._metrics = {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "mean_is_ratio": float(np.exp(target_log_probs - buffer.log_probs).mean()),
            "grad_norm": grad_norm,
        }
        return dict(self._metrics)

    def make_buffer(self, n_steps: int, n_envs: int) -> TrajectoryBuffer:
        """Construct a trajectory buffer matching this agent's dimensions."""
        return TrajectoryBuffer(n_steps, n_envs, self.obs_dim, self.act_dim)
