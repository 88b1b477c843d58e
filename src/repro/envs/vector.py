"""Synchronous vectorized environments.

The paper's Stable-Baselines back-end "provides parallelized environments
through vectorization" with **one vectorized environment per CPU core**
(§VI-C). :class:`SyncVectorEnv` is that substrate: it steps ``n`` sub-envs
in lockstep and auto-resets finished episodes, returning batched arrays
ready for the numpy policy networks.

The host executes sub-envs sequentially (this is a simulation — parallel
speed-up is accounted by the cluster simulator, not by host threads), but
the semantics match a parallel vector env exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from .env import Env
from .spaces import Space

__all__ = ["SyncVectorEnv", "EpisodeStats"]


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


class SyncVectorEnv:
    """Step ``n`` sub-environments in lockstep with auto-reset.

    Parameters
    ----------
    env_fns:
        Factories creating each sub-environment.
    """

    def __init__(self, env_fns: Sequence[Callable[[], Env]]) -> None:
        if not env_fns:
            raise ValueError("SyncVectorEnv needs at least one env factory")
        self.envs: list[Env] = [fn() for fn in env_fns]
        self.num_envs = len(self.envs)
        self.single_observation_space: Space = self.envs[0].observation_space
        self.single_action_space: Space = self.envs[0].action_space
        for env in self.envs[1:]:
            if env.observation_space.shape != self.single_observation_space.shape:
                raise ValueError("all sub-envs must share one observation space")
        self.stats = EpisodeStats()
        self._episode_returns = [0.0] * self.num_envs
        self._episode_lengths = [0] * self.num_envs

    # ------------------------------------------------------------------ API
    def reset(
        self, *, seed: int | Sequence[int | None] | None = None
    ) -> tuple[np.ndarray, list[dict]]:
        """Reset every sub-env.

        A scalar seed is fanned out as ``seed + index``; a sequence gives
        each sub-env its own seed (``None`` entries keep the env's RNG).
        """
        if seed is None or isinstance(seed, (int, np.integer)):
            seeds: list[int | None] = [
                None if seed is None else int(seed) + i for i in range(self.num_envs)
            ]
        else:
            seeds = [None if s is None else int(s) for s in seed]
            if len(seeds) != self.num_envs:
                raise ValueError(f"got {len(seeds)} seeds for {self.num_envs} sub-envs")
        observations, infos = [], []
        for index, env in enumerate(self.envs):
            obs, info = env.reset(seed=seeds[index])
            observations.append(np.asarray(obs, dtype=np.float64))
            infos.append(info)
        self._episode_returns = [0.0] * self.num_envs
        self._episode_lengths = [0] * self.num_envs
        return np.stack(observations), infos

    def step(
        self, actions: np.ndarray | Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step all sub-envs; finished episodes are reset immediately.

        The returned observation for a finished sub-env is the first
        observation of its *next* episode, while ``info['final_observation']``
        carries the terminal observation — the convention PPO's GAE
        bootstrapping relies on. An exception a sub-env's ``step`` raises
        propagates unchanged, tagged with ``env_index``, the slot that raised.
        """
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
                info["final_observation"] = np.asarray(obs, dtype=np.float64)
                info["episode"] = {"r": returns[index], "l": lengths[index]}
                self.stats.add(returns[index], lengths[index])
                returns[index] = 0.0
                lengths[index] = 0
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

    def close(self) -> None:
        for env in self.envs:
            env.close()

    def __len__(self) -> int:
        return self.num_envs

    def __repr__(self) -> str:
        return f"SyncVectorEnv(num_envs={self.num_envs})"
