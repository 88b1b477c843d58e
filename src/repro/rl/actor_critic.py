"""The actor-critic that PPO and V-trace both train.

The two on-policy learners differ in their losses, not their networks:
an actor MLP whose output a policy head turns into an action
distribution, and a critic MLP, trained by one Adam over one
:class:`~repro.rl.nn.ParameterStore` in the order actor, head, critic.
:class:`ActorCritic` builds them, acts, snapshots the acting parameters
and applies every gradient step through
:func:`~repro.rl.errors.guarded_step`.

A head is the distribution it builds from the actor's output, its mode
(deterministic acting) and the gradient it sends back:
:class:`GaussianHead` (continuous actions, the default) or
:class:`CategoricalHead` (discrete actions).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from .agent import Agent
from .distributions import Categorical, DiagGaussian
from .errors import guarded_step
from .nn import MLP, Parameter, ParameterStore
from .optim import Adam

if TYPE_CHECKING:  # pragma: no cover
    from .ppo import PPOConfig
    from .vtrace import VTraceConfig

__all__ = ["ActorCritic", "GaussianHead", "CategoricalHead"]


class GaussianHead:
    """``N(mean, diag(exp(log_std))²)`` with the actor's output as ``mean``
    and a learned ``log_std`` vector that no observation changes."""

    def __init__(self, act_dim: int, initial_log_std: float) -> None:
        self.n_outputs = act_dim
        #: how many parameters the head holds
        self.size = act_dim
        self._initial_log_std = float(initial_log_std)

    def take(self, store: ParameterStore) -> list[Parameter]:
        """Take the head's parameters from the next slots of ``store``."""
        self.log_std = store.take("actor.log_std", np.full(self.n_outputs, self._initial_log_std))
        return [self.log_std]

    def distribution(self, out: np.ndarray) -> DiagGaussian:
        return DiagGaussian(out, self.log_std.value)

    def mode(self, out: np.ndarray) -> np.ndarray:
        """The most likely action: the mean, which is ``out`` itself."""
        return out

    def backward(
        self, dist: DiagGaussian, actions: np.ndarray, dl_dlogp: np.ndarray, ent_coef: float
    ) -> np.ndarray:
        """Chain ``dL/d log p(actions)`` and the entropy bonus
        ``-ent_coef * mean(H)`` back: add ``log_std``'s gradient to its
        accumulator and return ``dL/d mean``."""
        dlog_std = (dl_dlogp[:, None] * dist.dlogp_dlogstd(actions)).sum(axis=0)
        dlog_std -= ent_coef  # dH/dlog_std is 1 in every dimension
        self.log_std.grad += dlog_std
        return dl_dlogp[:, None] * dist.dlogp_dmean(actions)


class CategoricalHead:
    """A categorical over the actor's outputs, read as logits."""

    size = 0

    def __init__(self, n_actions: int) -> None:
        self.n_outputs = n_actions

    def take(self, store: ParameterStore) -> list[Parameter]:
        return []

    def distribution(self, out: np.ndarray) -> Categorical:
        return Categorical(out)

    def mode(self, out: np.ndarray) -> np.ndarray:
        """The most likely action."""
        return Categorical(out).mode()

    def backward(
        self, dist: Categorical, actions: np.ndarray, dl_dlogp: np.ndarray, ent_coef: float
    ) -> np.ndarray:
        """``dL/d logits`` of ``dL/d log p(actions)`` plus the entropy
        bonus ``-ent_coef * mean(H)``."""
        dlogits = dl_dlogp[:, None] * dist.dlogp_dlogits(actions)
        dlogits += -ent_coef * dist.dentropy_dlogits() / len(dl_dlogp)
        return dlogits


class ActorCritic(Agent):
    """Actor, policy head and critic under one Adam; subclasses add a loss.

    ``config`` supplies ``hidden_sizes``, ``activation``,
    ``learning_rate``, ``initial_log_std``, ``ent_coef``, ``vf_coef`` and
    ``max_grad_norm``.
    """

    config: PPOConfig | VTraceConfig
    head: GaussianHead | CategoricalHead

    def __init__(
        self, obs_dim: int, act_dim: int, config: PPOConfig | VTraceConfig, seed: int | None
    ) -> None:
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.head = self._make_head()
        actor_sizes = (obs_dim, *config.hidden_sizes, self.head.n_outputs)
        critic_sizes = (obs_dim, *config.hidden_sizes, 1)
        store = ParameterStore(
            MLP.size_of(actor_sizes) + self.head.size + MLP.size_of(critic_sizes)
        )
        self.actor = MLP(
            actor_sizes, self.rng, config.activation, out_gain=0.01, name="actor", store=store
        )
        self._head_params = self.head.take(store)
        self.critic = MLP(
            critic_sizes, self.rng, config.activation, out_gain=1.0, name="critic", store=store
        )
        self._params = self.actor.parameters() + self._head_params + self.critic.parameters()
        self.optimizer = Adam(self._params, lr=config.learning_rate)
        self._metrics: dict[str, Any] = {}
        #: cumulative gradient updates performed (for cost accounting)
        self.n_updates = 0

    def _make_head(self) -> GaussianHead | CategoricalHead:
        """The policy head: a Gaussian over ``act_dim`` outputs by default."""
        return GaussianHead(self.act_dim, self.config.initial_log_std)

    @property
    def log_std(self) -> Parameter:
        """The Gaussian head's log-std vector."""
        return self.head.log_std

    # ----------------------------------------------------------------- act
    def act(
        self, observations: np.ndarray, deterministic: bool = False
    ) -> dict[str, np.ndarray]:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        if deterministic:  # rows never depend on what else shares the batch
            return {"action": self.head.mode(self.actor.forward_rows(observations))}
        dist = self.head.distribution(self.actor.forward(observations))
        actions = dist.sample(self.rng)
        return {
            "action": actions,
            "log_prob": dist.log_prob(actions),
            "value": self.critic.forward(observations)[:, 0],
        }

    def value(self, observations: np.ndarray) -> np.ndarray:
        """Critic values for a batch of observations."""
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        return self.critic.forward(observations)[:, 0]

    # ---------------------------------------------------------------- step
    def _backward_policy(
        self, dist: DiagGaussian | Categorical, actions: np.ndarray, dl_dlogp: np.ndarray
    ) -> None:
        """Zero every gradient, then send ``dL/d log π(actions)`` and the
        entropy bonus back through the head and the actor, whose last
        forward pass built ``dist``."""
        self.optimizer.zero_grad()
        dout = self.head.backward(dist, actions, dl_dlogp, self.config.ent_coef)
        self.actor.backward(dout, input_grad=False)

    def _backward_value(self, values: np.ndarray, targets: np.ndarray) -> float:
        """Add the gradient of ``vf_coef`` times the value loss
        ``½ mean((values − targets)²)`` through the critic's last forward
        pass, which gave ``values``; return the value loss."""
        error = values - targets
        self.critic.backward(self.config.vf_coef * error[:, None] / len(error), input_grad=False)
        return float(0.5 * np.mean(error**2))

    def _step(self, algorithm: str, losses: dict[str, float]) -> float:
        """Apply the accumulated gradients (:func:`~repro.rl.errors.guarded_step`);
        return their pre-clip norm."""
        grad_norm = guarded_step(
            algorithm, self.n_updates, losses, self.optimizer, self.config.max_grad_norm
        )
        self.n_updates += 1
        return grad_norm

    # ------------------------------------------------------------ snapshot
    def policy_state(self) -> dict[str, np.ndarray]:
        state = self.actor.state_dict()
        state.update((p.name, p.value.copy()) for p in self._head_params)
        state.update(self.critic.state_dict())
        return state

    def load_policy_state(self, state: dict[str, np.ndarray]) -> None:
        self.actor.load_state_dict(state)
        self.critic.load_state_dict(state)
        for p in self._head_params:
            p.value[...] = state[p.name]

    def metrics(self) -> dict[str, Any]:
        return dict(self._metrics)
