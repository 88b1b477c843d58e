"""Experience storage: on-policy rollouts (PPO) and a replay buffer (SAC).

:class:`RolloutBuffer` stores fixed-length segments from a vectorized env
(shape ``(steps, n_envs, ...)``), computes GAE(λ) advantages with correct
handling of truncated-versus-terminated episodes, and yields flattened
minibatches. :class:`ReplayBuffer` is a preallocated ring buffer with
uniform sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["RolloutBuffer", "RolloutBatch", "ReplayBuffer", "Transition", "compute_gae"]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    terminations: np.ndarray,
    last_values: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Advantage Estimation over a ``(T, N)`` segment.

    Parameters
    ----------
    rewards, values, terminations:
        Per-step arrays of shape ``(T, N)``. ``terminations[t, i]`` marks a
        boundary after step ``t`` in env ``i``: the value chain is cut there
        (truncated episodes should fold ``gamma * V(s_final)`` into the
        reward beforehand — :meth:`RolloutBuffer.add` does exactly that).
    last_values:
        ``(N,)`` value estimates of the observation following the segment.
    gamma, lam:
        Discount and GAE smoothing factors.

    Returns
    -------
    (advantages, returns), both ``(T, N)``.
    """
    T, N = rewards.shape
    advantages = np.zeros((T, N), dtype=np.float64)
    gae = np.zeros(N, dtype=np.float64)
    next_values = np.asarray(last_values, dtype=np.float64).reshape(N)
    for t in range(T - 1, -1, -1):
        non_terminal = 1.0 - terminations[t]
        delta = rewards[t] + gamma * next_values * non_terminal - values[t]
        gae = delta + gamma * lam * non_terminal * gae
        advantages[t] = gae
        next_values = values[t]
    return advantages, advantages + values


@dataclass
class RolloutBatch:
    """A flattened minibatch of on-policy experience."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.observations)


class RolloutBuffer:
    """Fixed-length on-policy storage for ``n_envs`` parallel workers.

    Usage per iteration::

        buffer.reset()
        for t in range(n_steps):
            buffer.add(obs, act, logp, reward, value, terminated, truncated,
                       bootstrap_value)
        buffer.finish(last_values)
        for batch in buffer.minibatches(n, rng): ...
    """

    #: whoever fills the buffer values what follows a truncation and the
    #: segment (``bootstrap_values`` and ``last_values``), with the critic
    #: that acted
    bootstraps = True

    def __init__(
        self,
        n_steps: int,
        n_envs: int,
        obs_dim: int,
        act_dim: int,
        gamma: float = 0.99,
        lam: float = 0.95,
    ) -> None:
        if n_steps < 1 or n_envs < 1:
            raise ValueError("n_steps and n_envs must be >= 1")
        if not (0.0 < gamma <= 1.0 and 0.0 <= lam <= 1.0):
            raise ValueError("gamma in (0,1], lam in [0,1]")
        self.n_steps = int(n_steps)
        self.n_envs = int(n_envs)
        self.gamma = float(gamma)
        self.lam = float(lam)
        self.observations = np.zeros((n_steps, n_envs, obs_dim))
        self.actions = np.zeros((n_steps, n_envs, act_dim))
        self.log_probs = np.zeros((n_steps, n_envs))
        self.rewards = np.zeros((n_steps, n_envs))
        self.values = np.zeros((n_steps, n_envs))
        self.terminations = np.zeros((n_steps, n_envs))
        self.bootstrap_values = np.zeros((n_steps, n_envs))
        self.advantages = np.zeros((n_steps, n_envs))
        self.returns = np.zeros((n_steps, n_envs))
        self._pos = 0
        self._finished = False

    @property
    def full(self) -> bool:
        return self._pos >= self.n_steps

    def reset(self) -> None:
        self._pos = 0
        self._finished = False

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
        """Record one vector-env step.

        ``bootstrap_values`` should hold ``V(final_observation)`` for
        sub-envs that were truncated this step (so their return keeps the
        tail value); zeros are fine otherwise.
        """
        if self.full:
            raise RuntimeError("rollout buffer is full; call finish()/reset()")
        t = self._pos
        self.observations[t] = obs
        self.actions[t] = actions.reshape(self.n_envs, -1)
        self.log_probs[t] = log_probs
        self.rewards[t] = rewards
        self.values[t] = values
        # A truncation bootstraps through the final observation: encode it
        # as "non-terminal" but substitute the bootstrap value into the
        # reward so the recursion stays simple and unbiased:
        #   r + gamma * V(s_final)  ==  reward augmented at the cut.
        term = np.asarray(terminations, dtype=np.float64)
        trunc = np.asarray(truncations, dtype=np.float64) * (1.0 - term)
        if bootstrap_values is not None:
            self.rewards[t] += self.gamma * trunc * np.asarray(bootstrap_values)
        # After a truncation the next stored value belongs to a fresh
        # episode, so the GAE chain must be cut exactly like a termination.
        self.terminations[t] = np.clip(term + trunc, 0.0, 1.0)
        self._pos += 1

    def finish(self, last_values: np.ndarray) -> None:
        """Compute advantages/returns; call once the buffer is full."""
        if not self.full:
            raise RuntimeError("cannot finish a partially filled buffer")
        self.advantages, self.returns = compute_gae(
            self.rewards,
            self.values,
            self.terminations,
            np.asarray(last_values, dtype=np.float64),
            self.gamma,
            self.lam,
        )
        self._finished = True

    def minibatches(
        self, n_minibatches: int, rng: np.random.Generator, normalize_advantages: bool = True
    ) -> Iterator[RolloutBatch]:
        """Yield shuffled flattened minibatches for one epoch."""
        if not self._finished:
            raise RuntimeError("call finish() before sampling minibatches")
        total = self.n_steps * self.n_envs
        if n_minibatches < 1 or n_minibatches > total:
            raise ValueError("n_minibatches must be in [1, n_steps * n_envs]")
        obs = self.observations.reshape(total, -1)
        actions = self.actions.reshape(total, -1)
        log_probs = self.log_probs.reshape(total)
        advantages = self.advantages.reshape(total).copy()
        returns = self.returns.reshape(total)
        values = self.values.reshape(total)
        if normalize_advantages:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        indices = rng.permutation(total)
        for chunk in np.array_split(indices, n_minibatches):
            yield RolloutBatch(
                observations=obs[chunk],
                actions=actions[chunk],
                log_probs=log_probs[chunk],
                advantages=advantages[chunk],
                returns=returns[chunk],
                values=values[chunk],
            )


@dataclass
class Transition:
    """A batch of transitions sampled from the replay buffer."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_observations: np.ndarray
    terminations: np.ndarray

    def __len__(self) -> int:
        return len(self.observations)


class ReplayBuffer:
    """Uniform ring replay buffer (SAC's experience store)."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.observations = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, act_dim))
        self.rewards = np.zeros(capacity)
        self.next_observations = np.zeros((capacity, obs_dim))
        self.terminations = np.zeros(capacity)
        self._pos = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        terminated: bool,
    ) -> None:
        """Store one transition (truncations store ``terminated=False``)."""
        i = self._pos
        self.observations[i] = obs
        self.actions[i] = np.asarray(action).reshape(-1)
        self.rewards[i] = float(reward)
        self.next_observations[i] = next_obs
        self.terminations[i] = float(terminated)
        self._pos = (self._pos + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transition:
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty replay buffer")
        indices = rng.integers(self._size, size=batch_size)
        return Transition(
            observations=self.observations[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            next_observations=self.next_observations[indices],
            terminations=self.terminations[indices],
        )
