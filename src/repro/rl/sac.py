"""Soft Actor-Critic (Haarnoja et al., 2018) with manual backprop.

Twin Q-networks with polyak-averaged targets, a tanh-Gaussian policy
trained by the reparameterization trick, and automatic entropy-temperature
tuning. The policy gradient needs ``∂Q/∂a``, which falls out of the
layer stack's input gradients (see :mod:`repro.rl.nn`).

The default hyperparameters mirror the usual framework defaults —
including ``learning_starts`` — which is deliberate: the paper ran SAC at
framework defaults and found it "inefficient, either taking too much time
for computation and consuming too much power, or failing in learning
tasks and collecting low rewards" (§VI-D). An update per environment step
also makes SAC an order of magnitude more compute-hungry than PPO, which
the cluster cost model translates into the long virtual times and high
energies of the paper's SAC rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .agent import Agent
from .buffers import ReplayBuffer, Transition
from .distributions import LOG_STD_MAX, LOG_STD_MIN, TanhGaussian
from .errors import guarded_step
from .nn import MLP, Parameter, ParameterStore
from .optim import Adam

__all__ = ["SACConfig", "SACAgent"]


@dataclass(frozen=True)
class SACConfig:
    """Hyperparameters; defaults follow common framework defaults."""

    hidden_sizes: tuple[int, ...] = (64, 64)
    activation: str = "relu"
    learning_rate: float = 3e-4
    gamma: float = 0.99
    tau: float = 0.005
    batch_size: int = 128
    buffer_capacity: int = 100_000
    learning_starts: int = 1_000
    update_every: int = 1
    updates_per_step: int = 1
    #: None → automatic temperature with target entropy = -act_dim
    alpha: float | None = None
    init_alpha: float = 0.2
    max_grad_norm: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.batch_size < 1 or self.update_every < 1 or self.updates_per_step < 1:
            raise ValueError("batch_size/update_every/updates_per_step must be >= 1")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must hold at least one batch")

    def updates_between(self, start: int, stop: int) -> int:
        """Gradient updates made while transitions ``start + 1`` to ``stop``
        are observed: ``updates_per_step`` after every ``update_every``-th
        one, once ``learning_starts`` are in and the buffer holds a batch.
        The one statement of the cadence, read by
        :meth:`SACAgent.ready_to_update` and the virtual cost plan."""
        first = max(start + 1, self.learning_starts, self.batch_size)
        if first > stop:
            return 0
        due = stop // self.update_every - (first - 1) // self.update_every
        return due * self.updates_per_step


class _QNetwork:
    """Q(s, a) head: an MLP over the concatenated state-action vector."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        cfg: SACConfig,
        rng,
        name: str,
        store: ParameterStore | None = None,
    ) -> None:
        self.net = MLP(
            (obs_dim + act_dim, *cfg.hidden_sizes, 1),
            rng=rng,
            activation=cfg.activation,
            out_gain=1.0,
            name=name,
            store=store,
        )
        self.obs_dim = obs_dim

    def forward(self, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        x = np.concatenate([obs, actions], axis=-1)
        return self.net.forward(x)[:, 0]

    def backward(self, dq: np.ndarray, **which: bool) -> np.ndarray | None:
        """Backprop ``dL/dQ``; returns ``dL/dactions`` unless ``input_grad=False``.

        ``which`` selects gradients as for :meth:`MLP.backward`.
        """
        dinput = self.net.backward(dq.reshape(-1, 1), **which)
        return None if dinput is None else dinput[:, self.obs_dim :]

    def parameters(self):
        return self.net.parameters()


class SACAgent(Agent):
    """Twin-Q soft actor-critic for continuous control."""

    def __init__(
        self,
        obs_dim: int,
        act_dim: int,
        config: SACConfig | None = None,
        seed: int | None = None,
    ) -> None:
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.config = config or SACConfig()
        self.rng = np.random.default_rng(seed)
        cfg = self.config

        # Policy outputs concatenated (mean, log_std).
        self.policy = MLP(
            (obs_dim, *cfg.hidden_sizes, 2 * act_dim),
            rng=self.rng,
            activation=cfg.activation,
            out_gain=0.01,
            name="policy",
        )
        # one store for the heads one optimizer trains
        q_store = ParameterStore(2 * MLP.size_of((obs_dim + act_dim, *cfg.hidden_sizes, 1)))
        self.q1 = _QNetwork(obs_dim, act_dim, cfg, self.rng, "q1", q_store)
        self.q2 = _QNetwork(obs_dim, act_dim, cfg, self.rng, "q2", q_store)
        self.q1_target = _QNetwork(obs_dim, act_dim, cfg, self.rng, "q1t")
        self.q2_target = _QNetwork(obs_dim, act_dim, cfg, self.rng, "q2t")
        self.q1_target.net.copy_from(self.q1.net)
        self.q2_target.net.copy_from(self.q2.net)

        self.policy_optimizer = Adam(self.policy.parameters(), lr=cfg.learning_rate)
        self.q_optimizer = Adam(
            self.q1.parameters() + self.q2.parameters(), lr=cfg.learning_rate
        )

        self._log_alpha = Parameter("log_alpha", np.array([np.log(cfg.init_alpha)]))
        self.alpha_optimizer = Adam([self._log_alpha], lr=cfg.learning_rate)
        self.target_entropy = -float(act_dim)

        self.buffer = ReplayBuffer(cfg.buffer_capacity, obs_dim, act_dim)
        self.total_env_steps = 0
        self.n_updates = 0
        self._metrics: dict[str, Any] = {}

    # ----------------------------------------------------------------- act
    @property
    def alpha(self) -> float:
        if self.config.alpha is not None:
            return float(self.config.alpha)
        return float(np.exp(self._log_alpha.value[0]))

    def _policy_dist(self, observations: np.ndarray, row_exact: bool = False) -> TanhGaussian:
        forward = MLP.forward_rows if row_exact else MLP.forward
        out = forward(self.policy, observations)
        mean, log_std = out[:, : self.act_dim], out[:, self.act_dim :]
        return TanhGaussian(mean, log_std)

    def act(
        self, observations: np.ndarray, deterministic: bool = False
    ) -> dict[str, np.ndarray]:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        if self.total_env_steps < self.config.learning_starts and not deterministic:
            # uniform warmup, the framework-default exploration phase
            actions = self.rng.uniform(-1.0, 1.0, size=(len(observations), self.act_dim))
            return {"action": actions}
        # deterministic rows never depend on what else shares the batch
        dist = self._policy_dist(observations, row_exact=deterministic)
        if deterministic:
            return {"action": dist.mode()}
        return {"action": dist.rsample(self.rng)["action"]}

    # ------------------------------------------------------------ training
    def observe(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        terminated: bool,
    ) -> None:
        """Store a transition and advance the environment-step counter."""
        self.buffer.add(obs, action, reward, next_obs, terminated)
        self.total_env_steps += 1

    def ready_to_update(self) -> bool:
        """Whether the transition just observed makes an update due
        (:meth:`SACConfig.updates_between`)."""
        n = self.total_env_steps
        return self.config.updates_between(n - 1, n) > 0

    def update(self) -> dict[str, float]:
        """Run ``updates_per_step`` gradient updates from the replay buffer."""
        stats: dict[str, list[float]] = {"q_loss": [], "policy_loss": [], "alpha": [],
                                         "entropy": []}
        for _ in range(self.config.updates_per_step):
            batch = self.buffer.sample(self.config.batch_size, self.rng)
            step = self._update_once(batch)
            for key, value in step.items():
                stats[key].append(value)
        self._metrics = {key: float(np.mean(vals)) for key, vals in stats.items()}
        return dict(self._metrics)

    def _update_once(self, batch: Transition) -> dict[str, float]:
        cfg = self.config
        n = len(batch)
        obs, actions = batch.observations, batch.actions
        rewards, next_obs = batch.rewards, batch.next_observations
        terminations = batch.terminations

        # ---- target values
        next_dist = self._policy_dist(next_obs)
        next_sample = next_dist.rsample(self.rng)
        next_actions, next_logp = next_sample["action"], next_sample["log_prob"]
        q1_t = self.q1_target.forward(next_obs, next_actions)
        q2_t = self.q2_target.forward(next_obs, next_actions)
        min_q_t = np.minimum(q1_t, q2_t) - self.alpha * next_logp
        target = rewards + cfg.gamma * (1.0 - terminations) * min_q_t

        # ---- critic update
        err1 = self.q1.forward(obs, actions) - target
        err2 = self.q2.forward(obs, actions) - target
        q_loss = 0.5 * float(np.mean(err1**2) + np.mean(err2**2))
        dq1, dq2 = err1 / n, err2 / n
        self.q_optimizer.zero_grad()
        self.q1.backward(dq1, input_grad=False)
        self.q2.backward(dq2, input_grad=False)
        guarded_step("sac", self.n_updates, {"q_loss": q_loss}, self.q_optimizer, cfg.max_grad_norm)

        # ---- actor update (reparameterized)
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

        # ∂L/∂a via the active Q head's input gradient (fresh forward passes
        # above mean the caches are aligned); the heads' parameter gradients
        # are not needed here.
        dq1 = np.where(use_q1, -1.0, 0.0) / n
        dq2 = np.where(use_q1, 0.0, -1.0) / n
        dL_daction = self.q1.backward(dq1, param_grads=False) + self.q2.backward(
            dq2, param_grads=False
        )
        dL_dlogp = np.full(n, self.alpha / n)
        dmean, dlog_std = dist.grads_wrt_params(sample, dL_daction, dL_dlogp)
        # the log_std head is clipped; zero gradients outside the active range
        active = (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX)
        dlog_std = np.where(active, dlog_std, 0.0)
        self.policy_optimizer.zero_grad()
        self.policy.backward(np.concatenate([dmean, dlog_std], axis=-1), input_grad=False)
        guarded_step(
            "sac", self.n_updates, {"policy_loss": policy_loss}, self.policy_optimizer,
            cfg.max_grad_norm,
        )

        # ---- temperature update
        entropy = float(-logp.mean())
        if cfg.alpha is None:
            # L(α) = -log α * (logp + target_entropy).mean()
            self._log_alpha.zero_grad()
            self._log_alpha.grad += -float(np.mean(logp + self.target_entropy))
            self.alpha_optimizer.step()

        # ---- target polyak
        self.q1_target.net.polyak_from(self.q1.net, cfg.tau)
        self.q2_target.net.polyak_from(self.q2.net, cfg.tau)

        self.n_updates += 1
        return {
            "q_loss": q_loss,
            "policy_loss": policy_loss,
            "alpha": self.alpha,
            "entropy": entropy,
        }

    # ------------------------------------------------------------ snapshot
    def policy_state(self) -> dict[str, np.ndarray]:
        return self.policy.state_dict()

    def load_policy_state(self, state: dict[str, np.ndarray]) -> None:
        self.policy.load_state_dict(state)

    def metrics(self) -> dict[str, Any]:
        return dict(self._metrics)
