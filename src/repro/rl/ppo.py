"""Proximal Policy Optimization (Schulman et al., 2017) with manual backprop.

The implementation is the canonical clipped-surrogate PPO:

* diagonal-Gaussian actor with a state-independent ``log_std`` vector
  (:class:`PPOAgent`, continuous control — the airdrop task), or a
  categorical actor over logits (:class:`CategoricalPPOAgent`, discrete
  control — the classic-control pack);
* separate value network;
* GAE(λ) advantages (computed by :class:`~repro.rl.buffers.RolloutBuffer`);
* minibatched epochs over each rollout with advantage normalization,
  entropy bonus, value-loss coefficient and global gradient clipping.

Because the autodiff stack is manual, the loss gradients are assembled
from the analytic distribution derivatives in
:mod:`repro.rl.distributions` and pushed through the actor/critic MLPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .agent import Agent
from .buffers import RolloutBatch, RolloutBuffer
from .distributions import Categorical, DiagGaussian
from .errors import check_finite_update
from .nn import MLP, ParameterStore, clip_grad_norm
from .optim import Adam

__all__ = ["PPOConfig", "PPOAgent", "CategoricalPPOAgent"]


@dataclass(frozen=True)
class PPOConfig:
    """Hyperparameters; defaults follow the common framework defaults."""

    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "tanh"
    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    n_epochs: int = 10
    n_minibatches: int = 4
    vf_coef: float = 0.5
    ent_coef: float = 0.0
    max_grad_norm: float = 0.5
    initial_log_std: float = 0.0
    normalize_advantages: bool = True
    #: optional early stop when the mean KL exceeds this (None = off)
    target_kl: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_range < 1.0:
            raise ValueError("clip_range must be in (0, 1)")
        if self.n_epochs < 1 or self.n_minibatches < 1:
            raise ValueError("n_epochs and n_minibatches must be >= 1")


class PPOAgent(Agent):
    """Clipped-surrogate PPO for continuous control."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: PPOConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.config = config or PPOConfig()
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
        self.log_std = store.take("actor.log_std", np.full(act_dim, float(cfg.initial_log_std)))
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
        #: cumulative gradient updates performed (for cost accounting)
        self.n_updates = 0

    # ----------------------------------------------------------------- act
    def act(
        self, observations: np.ndarray, deterministic: bool = False
    ) -> dict[str, np.ndarray]:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        # deterministic rows never depend on what else shares the batch
        forward = MLP.forward_rows if deterministic else MLP.forward
        mean = forward(self.actor, observations)
        dist = DiagGaussian(mean, self.log_std.value)
        actions = dist.mode() if deterministic else dist.sample(self.rng)
        values = forward(self.critic, observations)[:, 0]
        return {
            "action": actions,
            "log_prob": dist.log_prob(actions),
            "value": values,
        }

    def value(self, observations: np.ndarray) -> np.ndarray:
        """Critic values for a batch of observations."""
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        return self.critic.forward(observations)[:, 0]

    # -------------------------------------------------------------- update
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        """Run the PPO epochs over a finished rollout buffer."""
        cfg = self.config
        stats: dict[str, list[float]] = {
            "policy_loss": [],
            "value_loss": [],
            "entropy": [],
            "approx_kl": [],
            "clip_fraction": [],
            "grad_norm": [],
        }
        early_stop = False
        for _ in range(cfg.n_epochs):
            if early_stop:
                break
            for batch in buffer.minibatches(
                cfg.n_minibatches, self.rng, normalize_advantages=cfg.normalize_advantages
            ):
                step_stats = self._update_minibatch(batch)
                for key, value in step_stats.items():
                    stats[key].append(value)
                if cfg.target_kl is not None and step_stats["approx_kl"] > 1.5 * cfg.target_kl:
                    early_stop = True
                    break
        self._metrics = {key: float(np.mean(vals)) for key, vals in stats.items() if vals}
        return dict(self._metrics)

    def _update_minibatch(self, batch: RolloutBatch) -> dict[str, float]:
        cfg = self.config
        obs = batch.observations
        actions = batch.actions
        advantages = batch.advantages
        n = len(batch)

        # ---- actor: forward, loss gradients and backward run before the
        # critic's forward, so one network's activations are alive at a time
        mean = self.actor.forward(obs)
        dist = DiagGaussian(mean, self.log_std.value)
        log_probs = dist.log_prob(actions)
        entropy_mean = float(dist.entropy().mean())

        log_ratio = log_probs - batch.log_probs
        ratio = np.exp(log_ratio)
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
        surr1 = ratio * advantages
        surr2 = clipped_ratio * advantages
        policy_loss = -np.minimum(surr1, surr2).mean()

        # d(policy_loss)/d(log_prob): active branch of the min().
        use_unclipped = surr1 <= surr2
        inside_clip = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
        dl_dratio = np.where(use_unclipped | inside_clip, -advantages, 0.0) / n
        dl_dlogp = dl_dratio * ratio  # d(ratio)/d(log_prob) = ratio

        dmean = dl_dlogp[:, None] * dist.dlogp_dmean(actions)
        dlog_std = (dl_dlogp[:, None] * dist.dlogp_dlogstd(actions)).sum(axis=0)
        # entropy bonus: loss -= ent_coef * H  → d/dlog_std = -ent_coef per dim
        dlog_std += -cfg.ent_coef * np.ones(self.act_dim)

        self.optimizer.zero_grad()
        self.actor.backward(dmean, input_grad=False)
        self.log_std.grad += dlog_std

        # ---- critic
        values = self.critic.forward(obs)[:, 0]
        value_loss = 0.5 * np.mean((values - batch.returns) ** 2)
        dvalues = cfg.vf_coef * (values - batch.returns)[:, None] / n
        self.critic.backward(dvalues, input_grad=False)

        grad_norm = check_finite_update(
            "ppo",
            self.n_updates,
            {"policy_loss": float(policy_loss), "value_loss": float(value_loss)},
            self.optimizer,
        )
        clip_grad_norm(self._params, cfg.max_grad_norm, grad_norm)
        self.optimizer.step()
        self.n_updates += 1

        with np.errstate(over="ignore"):
            approx_kl = float(np.mean((ratio - 1.0) - log_ratio))
        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
        return {
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": entropy_mean,
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "grad_norm": float(grad_norm),
        }

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

    def make_buffer(self, n_steps: int, n_envs: int) -> RolloutBuffer:
        """Construct a rollout buffer matching this agent's dimensions."""
        return RolloutBuffer(
            n_steps=n_steps,
            n_envs=n_envs,
            obs_dim=self.obs_dim,
            act_dim=self.act_dim,
            gamma=self.config.gamma,
            lam=self.config.gae_lambda,
        )


class CategoricalPPOAgent(Agent):
    """Clipped-surrogate PPO for discrete action spaces.

    The actor outputs one logit per action; actions are stored in the
    rollout buffer as a single float column (``act_dim == 1``).
    """

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        config: PPOConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.obs_dim = int(obs_dim)
        self.n_actions = int(n_actions)
        if self.n_actions < 2:
            raise ValueError("need at least two discrete actions")
        self.act_dim = 1
        self.config = config or PPOConfig()
        self.rng = np.random.default_rng(seed)

        cfg = self.config
        actor_sizes = (obs_dim, *cfg.hidden_sizes, self.n_actions)
        critic_sizes = (obs_dim, *cfg.hidden_sizes, 1)
        store = ParameterStore(MLP.size_of(actor_sizes) + MLP.size_of(critic_sizes))
        self.actor = MLP(
            actor_sizes,
            rng=self.rng,
            activation=cfg.activation,
            out_gain=0.01,
            name="actor",
            store=store,
        )
        self.critic = MLP(
            critic_sizes,
            rng=self.rng,
            activation=cfg.activation,
            out_gain=1.0,
            name="critic",
            store=store,
        )
        self._params = self.actor.parameters() + self.critic.parameters()
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
        dist = Categorical(forward(self.actor, observations))
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
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        cfg = self.config
        stats: dict[str, list[float]] = {
            "policy_loss": [], "value_loss": [], "entropy": [],
            "approx_kl": [], "clip_fraction": [], "grad_norm": [],
        }
        early_stop = False
        for _ in range(cfg.n_epochs):
            if early_stop:
                break
            for batch in buffer.minibatches(
                cfg.n_minibatches, self.rng, normalize_advantages=cfg.normalize_advantages
            ):
                step_stats = self._update_minibatch(batch)
                for key, value in step_stats.items():
                    stats[key].append(value)
                if cfg.target_kl is not None and step_stats["approx_kl"] > 1.5 * cfg.target_kl:
                    early_stop = True
                    break
        self._metrics = {key: float(np.mean(vals)) for key, vals in stats.items() if vals}
        return dict(self._metrics)

    def _update_minibatch(self, batch: RolloutBatch) -> dict[str, float]:
        cfg = self.config
        obs = batch.observations
        actions = batch.actions[:, 0].astype(np.int64)
        advantages = batch.advantages
        n = len(batch)

        # actor first, then the critic (see PPOAgent._update_minibatch)
        dist = Categorical(self.actor.forward(obs))
        log_probs = dist.log_prob(actions)
        entropy = dist.entropy()

        log_ratio = log_probs - batch.log_probs
        ratio = np.exp(log_ratio)
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
        surr1 = ratio * advantages
        surr2 = clipped_ratio * advantages
        policy_loss = -np.minimum(surr1, surr2).mean()

        use_unclipped = surr1 <= surr2
        inside_clip = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
        dl_dratio = np.where(use_unclipped | inside_clip, -advantages, 0.0) / n
        dl_dlogp = dl_dratio * ratio

        dlogits = dl_dlogp[:, None] * dist.dlogp_dlogits(actions)
        dlogits += -cfg.ent_coef * dist.dentropy_dlogits() / n
        self.optimizer.zero_grad()
        self.actor.backward(dlogits, input_grad=False)

        values = self.critic.forward(obs)[:, 0]
        value_loss = 0.5 * np.mean((values - batch.returns) ** 2)
        dvalues = cfg.vf_coef * (values - batch.returns)[:, None] / n
        self.critic.backward(dvalues, input_grad=False)
        grad_norm = check_finite_update(
            "ppo",
            self.n_updates,
            {"policy_loss": float(policy_loss), "value_loss": float(value_loss)},
            self.optimizer,
        )
        clip_grad_norm(self._params, cfg.max_grad_norm, grad_norm)
        self.optimizer.step()
        self.n_updates += 1

        with np.errstate(over="ignore"):
            approx_kl = float(np.mean((ratio - 1.0) - log_ratio))
        return {
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy.mean()),
            "approx_kl": approx_kl,
            "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range)),
            "grad_norm": float(grad_norm),
        }

    # ------------------------------------------------------------ snapshot
    def policy_state(self) -> dict[str, np.ndarray]:
        state = self.actor.state_dict()
        state.update(self.critic.state_dict())
        return state

    def load_policy_state(self, state: dict[str, np.ndarray]) -> None:
        self.actor.load_state_dict(state)
        self.critic.load_state_dict(state)

    def metrics(self) -> dict[str, Any]:
        return dict(self._metrics)

    def make_buffer(self, n_steps: int, n_envs: int) -> RolloutBuffer:
        return RolloutBuffer(
            n_steps=n_steps,
            n_envs=n_envs,
            obs_dim=self.obs_dim,
            act_dim=1,
            gamma=self.config.gamma,
            lam=self.config.gae_lambda,
        )
