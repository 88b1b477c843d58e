"""Vectorized environments: the vector-env contract and its Python front.

The paper's Stable-Baselines back-end "provides parallelized environments
through vectorization" with **one vectorized environment per CPU core**
(§VI-C). :class:`VectorEnv` is that substrate's contract, written once;
:class:`SyncVectorEnv` steps any sub-envs one by one behind it, and
:class:`~repro.airdrop.batch.AirdropVectorEnv` steps airdrop rows as one
batch.

The host executes slots sequentially (this is a simulation — parallel
speed-up is accounted by the cluster simulator, not by host threads), but
the semantics match a parallel vector env exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .env import Env
from .spaces import Space

__all__ = ["VectorEnv", "SyncVectorEnv", "EpisodeStats"]


class EpisodeStats:
    """Rolling record of completed episodes across all sub-envs."""

    def __init__(self) -> None:
        self.returns: list[float] = []
        self.lengths: list[int] = []

    def add(self, episode_return: float, episode_length: int) -> None:
        self.returns.append(float(episode_return))
        self.lengths.append(int(episode_length))

    def recent_mean_return(self, window: int = 100) -> float:
        if not self.returns:
            return float("nan")
        return float(np.mean(self.returns[-window:]))

    def __len__(self) -> int:
        return len(self.returns)


class VectorEnv:
    """``num_envs`` episodes (slots) stepped in lockstep, with auto-reset.

    ``step(actions)`` returns batched ``(observations, rewards,
    terminated, truncated, infos)``. A front adds each reward to its
    slot's counters and closes every finished episode through
    :meth:`_close_out` before resetting the slot: the returned
    observation is the first of the slot's *next* episode, while
    ``info['final_observation']`` carries the terminal one (the
    convention PPO's GAE bootstrapping relies on) and ``info['episode']``
    its return and length. A front implements ``step``,
    :meth:`_reset_slots` and :meth:`_keep_slots`, and sets
    ``single_observation_space`` and ``single_action_space``.
    """

    single_observation_space: Space
    single_action_space: Space
    #: the sub-environments :meth:`close` closes (a native batch has none)
    envs: Sequence[Env] = ()

    def __init__(self, num_envs: int) -> None:
        if num_envs < 1:
            raise ValueError(f"{type(self).__name__} needs at least one env")
        self.num_envs = int(num_envs)
        self.stats = EpisodeStats()
        # per-slot Python floats: cheaper to update one at a time than numpy
        self._episode_returns = [0.0] * self.num_envs
        self._episode_lengths = [0] * self.num_envs

    def reset(
        self, *, seed: int | Sequence[int | None] | None = None
    ) -> tuple[np.ndarray, list[dict]]:
        """Reset every slot.

        A scalar seed is fanned out as ``seed + index``; a sequence gives
        each slot its own seed (``None`` entries keep the slot's RNG).
        """
        if seed is None or isinstance(seed, (int, np.integer)):
            seeds: list[int | None] = [
                None if seed is None else int(seed) + i for i in range(self.num_envs)
            ]
        else:
            seeds = [None if s is None else int(s) for s in seed]
            if len(seeds) != self.num_envs:
                raise ValueError(f"got {len(seeds)} seeds for {self.num_envs} sub-envs")
        self._episode_returns = [0.0] * self.num_envs
        self._episode_lengths = [0] * self.num_envs
        return self._reset_slots(seeds)

    def step(
        self, actions: np.ndarray | Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        raise NotImplementedError

    def drop(self, slots: Iterable[int]) -> None:
        """Remove ``slots``. The kept slots close up in order, each keeping
        its episode's state, step count, RNG and counters, and step on as
        they would have beside the dropped ones."""
        dropped = set(slots)
        kept = [i for i in range(self.num_envs) if i not in dropped]
        self._keep_slots(kept)
        self._episode_returns = [self._episode_returns[i] for i in kept]
        self._episode_lengths = [self._episode_lengths[i] for i in kept]
        self.num_envs = len(kept)

    def close(self) -> None:
        for env in self.envs:
            env.close()

    def __len__(self) -> int:
        return self.num_envs

    # ------------------------------------------------------------ internals
    def _close_out(self, index: int, info: dict, final_observation: np.ndarray) -> None:
        """Record slot ``index``'s finished episode in ``info`` and
        :attr:`stats`, and restart the slot's counters."""
        episode_return = self._episode_returns[index]
        episode_length = self._episode_lengths[index]
        info["final_observation"] = final_observation
        info["episode"] = {"r": episode_return, "l": episode_length}
        self.stats.add(episode_return, episode_length)
        self._episode_returns[index] = 0.0
        self._episode_lengths[index] = 0

    def _reset_slots(self, seeds: list[int | None]) -> tuple[np.ndarray, list[dict]]:
        """Start a new episode in slot ``i`` seeded ``seeds[i]``, for every slot."""
        raise NotImplementedError

    def _keep_slots(self, kept: list[int]) -> None:
        """Keep the per-slot state of the slots ``kept`` only, in order."""
        raise NotImplementedError


class SyncVectorEnv(VectorEnv):
    """Step ``n`` sub-environments in lockstep with auto-reset.

    Parameters
    ----------
    env_fns:
        Factories creating each sub-environment.
    """

    def __init__(self, env_fns: Sequence[Callable[[], Env]]) -> None:
        super().__init__(len(env_fns))
        self.envs = [fn() for fn in env_fns]
        self.single_observation_space = self.envs[0].observation_space
        self.single_action_space = self.envs[0].action_space
        for env in self.envs[1:]:
            if env.observation_space.shape != self.single_observation_space.shape:
                raise ValueError("all sub-envs must share one observation space")

    def step(
        self, actions: np.ndarray | Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step the sub-envs one by one; finished episodes are reset
        immediately. An exception a sub-env's ``step`` raises propagates
        unchanged, tagged with ``env_index``, the slot that raised."""
        if len(actions) != self.num_envs:
            raise ValueError(f"got {len(actions)} actions for {self.num_envs} sub-envs")
        returns, lengths = self._episode_returns, self._episode_lengths
        observations, rewards, terminations, truncations = [], [], [], []
        infos: list[dict] = []
        for index, env in enumerate(self.envs):
            try:
                obs, reward, terminated, truncated, info = env.step(actions[index])
            except Exception as exc:
                exc.env_index = index  # type: ignore[attr-defined]
                raise
            reward = float(reward)
            returns[index] += reward
            lengths[index] += 1
            if terminated or truncated:
                info = dict(info)
                self._close_out(index, info, np.asarray(obs, dtype=np.float64))
                obs, _ = env.reset()
            observations.append(obs)
            rewards.append(reward)
            terminations.append(terminated)
            truncations.append(truncated)
            infos.append(info)
        return (
            np.array(observations, dtype=np.float64),
            np.array(rewards, dtype=np.float64),
            np.array(terminations, dtype=bool),
            np.array(truncations, dtype=bool),
            infos,
        )

    def __repr__(self) -> str:
        return f"SyncVectorEnv(num_envs={self.num_envs})"

    def _reset_slots(self, seeds: list[int | None]) -> tuple[np.ndarray, list[dict]]:
        observations, infos = [], []
        for env, seed in zip(self.envs, seeds, strict=True):
            obs, info = env.reset(seed=seed)
            observations.append(np.asarray(obs, dtype=np.float64))
            infos.append(info)
        return np.stack(observations), infos

    def _keep_slots(self, kept: list[int]) -> None:
        self.envs = [self.envs[i] for i in kept]
