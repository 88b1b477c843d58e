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

:class:`VTraceAgent` packages an actor-critic trained this way with a
single optimization pass per batch (IMPALA performs one SGD step per
trajectory batch, unlike PPO's epochs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .agent import Agent
from .distributions import DiagGaussian
from .nn import MLP, ParameterStore, clip_grad_norm
from .optim import Adam

__all__ = ["vtrace_returns", "VTraceConfig", "VTraceAgent"]


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


class VTraceAgent(Agent):
    """Continuous-control actor-critic trained with V-trace targets."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: VTraceConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.config = config or VTraceConfig()
        self.rng = np.random.default_rng(seed)
        cfg = self.config
        actor_sizes = (obs_dim, *cfg.hidden_sizes, act_dim)
        critic_sizes = (obs_dim, *cfg.hidden_sizes, 1)
        # one store in optimizer order: actor, log_std, critic
        store = ParameterStore(MLP.size_of(actor_sizes) + act_dim + MLP.size_of(critic_sizes))
        self.actor = MLP(
            actor_sizes,
            rng=self.rng,
            activation=cfg.activation,
            out_gain=0.01,
            name="actor",
            store=store,
        )
        self.log_std = store.take("actor.log_std", np.full(act_dim, cfg.initial_log_std))
        self.critic = MLP(
            critic_sizes,
            rng=self.rng,
            activation=cfg.activation,
            out_gain=1.0,
            name="critic",
            store=store,
        )
        self._params = self.actor.parameters() + [self.log_std] + self.critic.parameters()
        self.optimizer = Adam(self._params, lr=cfg.learning_rate)
        self._metrics: dict[str, Any] = {}
        self.n_updates = 0

    # ----------------------------------------------------------------- act
    def act(
        self, observations: np.ndarray, deterministic: bool = False
    ) -> dict[str, np.ndarray]:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        # deterministic rows never depend on what else shares the batch
        forward = MLP.forward_rows if deterministic else MLP.forward
        dist = DiagGaussian(forward(self.actor, observations), self.log_std.value)
        actions = dist.mode() if deterministic else dist.sample(self.rng)
        return {
            "action": actions,
            "log_prob": dist.log_prob(actions),
            "value": forward(self.critic, observations)[:, 0],
        }

    def value(self, observations: np.ndarray) -> np.ndarray:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        return self.critic.forward(observations)[:, 0]

    # -------------------------------------------------------------- update
    def update(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        terminations: np.ndarray,
        behaviour_log_probs: np.ndarray,
        bootstrap_obs: np.ndarray,
    ) -> dict[str, float]:
        """One V-trace gradient step over a ``(T, N, ...)`` trajectory batch."""
        cfg = self.config
        T, N = rewards.shape
        flat_obs = observations.reshape(T * N, self.obs_dim)
        flat_actions = actions.reshape(T * N, self.act_dim)

        mean = self.actor.forward(flat_obs)
        dist = DiagGaussian(mean, self.log_std.value)
        target_log_probs = dist.log_prob(flat_actions).reshape(T, N)
        values = self.critic.forward(flat_obs)[:, 0].reshape(T, N)
        bootstrap_value = self.critic.forward(bootstrap_obs)[:, 0]

        vs, pg_adv = vtrace_returns(
            rewards,
            values,
            bootstrap_value,
            behaviour_log_probs,
            target_log_probs.copy(),
            terminations,
            gamma=cfg.gamma,
            rho_bar=cfg.rho_bar,
            c_bar=cfg.c_bar,
        )

        n = T * N
        flat_adv = pg_adv.reshape(n)
        flat_vs = vs.reshape(n)
        flat_values = values.reshape(n)

        # policy loss: -E[adv * log pi]; vs/adv treated as constants
        dl_dlogp = -flat_adv / n
        dmean = dl_dlogp[:, None] * dist.dlogp_dmean(flat_actions)
        dlog_std = (dl_dlogp[:, None] * dist.dlogp_dlogstd(flat_actions)).sum(axis=0)
        dlog_std += -cfg.ent_coef * np.ones(self.act_dim)
        dvalues = cfg.vf_coef * (flat_values - flat_vs)[:, None] / n

        self.actor.zero_grad()
        self.critic.zero_grad()
        self.log_std.zero_grad()
        # one combined backward per network (bootstrap critic pass was a
        # separate forward; re-run the flat forward so caches align)
        self.critic.forward(flat_obs)
        self.actor.backward(dmean)
        self.critic.backward(dvalues)
        self.log_std.grad += dlog_std
        grad_norm = clip_grad_norm(self._params, cfg.max_grad_norm)
        self.optimizer.step()
        self.n_updates += 1

        entropy = float(dist.entropy().mean())
        policy_loss = float(-(flat_adv * target_log_probs.reshape(n)).mean())
        value_loss = float(0.5 * np.mean((flat_values - flat_vs) ** 2))
        rho_mean = float(np.exp(target_log_probs - behaviour_log_probs).mean())
        self._metrics = {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "mean_is_ratio": rho_mean,
            "grad_norm": float(grad_norm),
        }
        return dict(self._metrics)

    # ------------------------------------------------------------ snapshot
    def policy_state(self) -> dict[str, np.ndarray]:
        state = self.actor.state_dict()
        state["actor.log_std"] = self.log_std.value.copy()
        state.update(self.critic.state_dict())
        return state

    def load_policy_state(self, state: dict[str, np.ndarray]) -> None:
        self.actor.load_state_dict(state)
        self.critic.load_state_dict(state)
        self.log_std.value[...] = state["actor.log_std"]

    def metrics(self) -> dict[str, Any]:
        return dict(self._metrics)
