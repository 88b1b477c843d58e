"""Proximal Policy Optimization (Schulman et al., 2017) with manual backprop.

The implementation is the canonical clipped-surrogate PPO over the
shared :class:`~repro.rl.actor_critic.ActorCritic`:

* one agent for both policy heads: :class:`PPOAgent` with the
  diagonal-Gaussian head (continuous control — the airdrop task), and
  :class:`CategoricalPPOAgent`, which only swaps in the categorical head
  (discrete control — the classic-control pack);
* separate value network;
* GAE(λ) advantages (computed by :class:`~repro.rl.buffers.RolloutBuffer`);
* minibatched epochs over each rollout with advantage normalization,
  entropy bonus, value-loss coefficient and global gradient clipping.

Because the autodiff stack is manual, the surrogate's gradient with
respect to each action's log-probability is handed to the head, which
chains it through its distribution's analytic derivatives
(:mod:`repro.rl.distributions`) into the actor MLP.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .actor_critic import ActorCritic, CategoricalHead
from .buffers import RolloutBatch, RolloutBuffer

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


class PPOAgent(ActorCritic):
    """Clipped-surrogate PPO; the Gaussian head serves continuous control."""

    config: PPOConfig

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: PPOConfig | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(obs_dim, act_dim, config or PPOConfig(), seed)

    # PPO's own attributes, not only inherited ones: perfbench/layers.py
    # times acting by wrapping the methods of this class
    act = ActorCritic.act
    value = ActorCritic.value

    # -------------------------------------------------------------- update
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        """Run the PPO epochs over a finished rollout buffer."""
        cfg = self.config
        stats: defaultdict[str, list[float]] = defaultdict(list)
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
        self._metrics = {key: float(np.mean(vals)) for key, vals in stats.items()}
        return dict(self._metrics)

    def _update_minibatch(self, batch: RolloutBatch) -> dict[str, float]:
        cfg = self.config
        actions = batch.actions
        advantages = batch.advantages

        # ---- actor: forward, loss gradients and backward run before the
        # critic's forward, so one network's activations are alive at a time
        dist = self.head.distribution(self.actor.forward(batch.observations))
        log_probs = dist.log_prob(actions)
        entropy = float(dist.entropy().mean())

        log_ratio = log_probs - batch.log_probs
        ratio = np.exp(log_ratio)
        clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range)
        surr1 = ratio * advantages
        surr2 = clipped_ratio * advantages
        policy_loss = float(-np.minimum(surr1, surr2).mean())

        # d(policy_loss)/d(log_prob): active branch of the min().
        use_unclipped = surr1 <= surr2
        inside_clip = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
        dl_dratio = np.where(use_unclipped | inside_clip, -advantages, 0.0) / len(batch)
        # d(ratio)/d(log_prob) = ratio
        self._backward_policy(dist, actions, dl_dratio * ratio)

        # ---- critic
        values = self.critic.forward(batch.observations)[:, 0]
        value_loss = self._backward_value(values, batch.returns)
        grad_norm = self._step("ppo", {"policy_loss": policy_loss, "value_loss": value_loss})

        with np.errstate(over="ignore"):
            approx_kl = float(np.mean((ratio - 1.0) - log_ratio))
        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range))
        return {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "grad_norm": grad_norm,
        }

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


class CategoricalPPOAgent(PPOAgent):
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
        self.n_actions = int(n_actions)
        if self.n_actions < 2:
            raise ValueError("need at least two discrete actions")
        super().__init__(obs_dim, 1, config, seed)

    def _make_head(self) -> CategoricalHead:
        return CategoricalHead(self.n_actions)
