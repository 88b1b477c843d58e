"""Natively batched airdrop environment: ``N`` episodes per step() call.

:class:`AirdropVectorEnv` is the ``N``-row front of the shared simulation
model (:mod:`repro.airdrop.model`): one call integrates all ``N`` canopy
states through the Runge–Kutta tableau as a single ``(N, 9)`` batch
instead of looping Python-level sub-envs. Over the model it adds only
what a :class:`~repro.envs.SyncVectorEnv` of
:class:`~repro.airdrop.env.AirdropEnv` wrapped in ``TimeLimit`` adds:
auto-reset, the per-row step limit (``final_observation`` / ``episode``
info conventions) and episode stats, so the two are drop-in
interchangeable.

Exactness guarantee
-------------------
Row ``i`` of a batched step is **bit-identical** to stepping a serial
``make("Airdrop-v0")`` env seeded the same way:

* both fronts run the same model code over the trailing state axis, and
  every step of it is either elementwise or a per-row matrix-vector
  product that reduces over the Runge–Kutta stages in the same order
  whatever the batch holds (verified bitwise in
  ``tests/test_vector_airdrop.py``);
* randomness stays per-env: each sub-env owns its own
  :class:`numpy.random.Generator` and :class:`~repro.airdrop.wind.WindModel`,
  consumed in the same order as the serial path;
* touchdown interpolation / landing scores are evaluated per landed row
  with the identical scalar code.

This is what lets the frameworks assert that a vectorized training run
at ``n_envs=1`` reproduces the single-env path byte for byte.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..envs import Box, EpisodeStats
from .dynamics import STATE_DIM
from .model import OBS_DIM, AirdropModel
from .wind import WindModel

__all__ = ["AirdropVectorEnv"]


class AirdropVectorEnv(AirdropModel):
    """``num_envs`` airdrop episodes stepped in lockstep as one batch.

    Takes ``num_envs``, the :class:`~repro.airdrop.model.AirdropModel`
    parameters, and ``max_episode_steps`` (the registry's default
    600-step horizon, applied like a per-env ``TimeLimit`` wrapper).
    """

    def __init__(
        self,
        num_envs: int,
        *args: Any,
        max_episode_steps: int | None = 600,
        **kwargs: Any,
    ) -> None:
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        super().__init__(*args, **kwargs)
        self.num_envs = int(num_envs)
        self.max_episode_steps = None if max_episode_steps is None else int(max_episode_steps)
        self.wind_models = [WindModel(self.wind_config) for _ in range(self.num_envs)]

        self.single_observation_space = Box(low=-np.inf, high=np.inf, shape=(OBS_DIM,))
        self.single_action_space = Box(low=-1.0, high=1.0, shape=(1,))
        self.observation_space = Box(low=-np.inf, high=np.inf, shape=(self.num_envs, OBS_DIM))
        self.action_space = Box(low=-1.0, high=1.0, shape=(self.num_envs, 1))

        self.stats = EpisodeStats()
        self._rngs: list[np.random.Generator | None] = [None] * self.num_envs
        self._states: np.ndarray | None = None
        self._elapsed = np.zeros(self.num_envs, dtype=np.int64)
        self._episode_returns = np.zeros(self.num_envs, dtype=np.float64)
        self._episode_lengths = np.zeros(self.num_envs, dtype=np.int64)

    # ------------------------------------------------------------------ API
    def reset(
        self, *, seed: int | Sequence[int | None] | None = None
    ) -> tuple[np.ndarray, list[dict]]:
        """Reset every sub-env.

        ``seed`` may be ``None``, a scalar (fanned out as ``seed + index``,
        the SyncVectorEnv convention) or a sequence of per-env seeds.
        """
        if seed is None or isinstance(seed, (int, np.integer)):
            seeds: list[int | None] = [
                None if seed is None else int(seed) + i for i in range(self.num_envs)
            ]
        else:
            seeds = [None if s is None else int(s) for s in seed]
            if len(seeds) != self.num_envs:
                raise ValueError(
                    f"got {len(seeds)} seeds for {self.num_envs} sub-envs"
                )
        self._states = np.zeros((self.num_envs, STATE_DIM), dtype=np.float64)
        infos = [self._reset_row(i, seeds[i]) for i in range(self.num_envs)]
        self._episode_returns[:] = 0.0
        self._episode_lengths[:] = 0
        return self._observe(self._states), infos

    def step(
        self, actions: np.ndarray | Sequence[Any]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[dict]]:
        """Step all sub-envs as one batch; finished episodes auto-reset."""
        prev = self._states
        if prev is None:
            raise RuntimeError("cannot step before reset()")
        n = self.num_envs
        if len(actions) != n:
            raise ValueError(f"got {len(actions)} actions for {n} sub-envs")
        u = np.asarray(actions, dtype=np.float64).reshape(n, -1)[:, 0]
        if self._static_wind is not None:
            winds = np.broadcast_to(self._static_wind, (n, 2))
        else:
            winds = np.array(
                [
                    model.update(rng, self.dt)
                    for model, rng in zip(self.wind_models, self._rngs, strict=True)
                ]
            )
        self._elapsed += 1
        infos: list[dict] = [
            {"rhs_evals": self.rhs_evals_per_step, "wind": wind.copy()} for wind in winds
        ]
        states, rewards, terms = self._settle(
            prev, self._advance(prev, u, winds), self._elapsed, infos
        )
        self._states = states

        # TimeLimit semantics, applied per env like the serial wrapper.
        truncs = np.zeros(n, dtype=bool)
        if self.max_episode_steps is not None:
            truncs = (self._elapsed >= self.max_episode_steps) & ~terms
            for i in np.flatnonzero(truncs):
                infos[i].setdefault("TimeLimit.truncated", True)

        observations = self._observe(states)
        self._episode_returns += rewards
        self._episode_lengths += 1
        for i in np.flatnonzero(terms | truncs):
            infos[i]["final_observation"] = observations[i].copy()
            infos[i]["episode"] = {
                "r": float(self._episode_returns[i]),
                "l": int(self._episode_lengths[i]),
            }
            self.stats.add(self._episode_returns[i], self._episode_lengths[i])
            self._episode_returns[i] = 0.0
            self._episode_lengths[i] = 0
            self._reset_row(i, None)
            observations[i] = self._observe(states[i])
        return observations, rewards, terms, truncs, infos

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return self.num_envs

    def __repr__(self) -> str:
        return (
            f"AirdropVectorEnv(num_envs={self.num_envs}, rk_order={self.rk_order}, "
            f"dt={self.dt})"
        )

    # ------------------------------------------------------------ internals
    def _reset_row(self, index: int, seed: int | None) -> dict[str, Any]:
        """Start a new episode in row ``index``, as ``AirdropEnv.reset`` does."""
        if seed is not None or self._rngs[index] is None:
            self._rngs[index] = np.random.default_rng(seed)
        assert self._states is not None
        self._states[index], info = self._draw(self._rngs[index])
        self._elapsed[index] = 0
        self.wind_models[index].reset()
        return info
