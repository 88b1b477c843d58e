"""Natively batched airdrop environment: ``N`` episodes per step() call.

:class:`AirdropVectorEnv` is the ``N``-row front of the shared simulation
model (:mod:`repro.airdrop.model`): one call integrates all ``N`` canopy
states through the Runge–Kutta tableau as a single ``(N, 9)`` batch
instead of looping Python-level sub-envs. The vector-env contract
(:class:`~repro.envs.VectorEnv`) supplies the seeded reset, auto-reset
close-out, episode stats and dropping slots; this front adds only the
batched step, the per-row step limit (``TimeLimit`` semantics) and the
per-row reset, so it is a drop-in for a :class:`~repro.envs.SyncVectorEnv`
of :class:`~repro.airdrop.env.AirdropEnv`.

Exactness guarantee
-------------------
Row ``i`` of a batched step is **bit-identical** to stepping a serial
``make("Airdrop-v0")`` env seeded the same way, whatever else the batch
holds or has dropped:

* both fronts run the same model code over the trailing state axis, and
  every step of it is either elementwise or a per-row matrix-vector
  product that reduces over the Runge–Kutta stages in the same order
  whatever the batch holds (verified bitwise in
  ``tests/test_vector_airdrop.py``);
* randomness stays per-env: each row owns its own
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

from ..envs import Box, VectorEnv
from .dynamics import STATE_DIM
from .model import OBS_DIM, AirdropModel
from .wind import WindModel

__all__ = ["AirdropVectorEnv"]


class AirdropVectorEnv(AirdropModel, VectorEnv):
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
        VectorEnv.__init__(self, num_envs)
        AirdropModel.__init__(self, *args, **kwargs)
        self.max_episode_steps = None if max_episode_steps is None else int(max_episode_steps)
        self.wind_models = [WindModel(self.wind_config) for _ in range(self.num_envs)]
        self.single_observation_space = Box(low=-np.inf, high=np.inf, shape=(OBS_DIM,))
        self.single_action_space = Box(low=-1.0, high=1.0, shape=(1,))
        self._rngs: list[np.random.Generator | None] = [None] * self.num_envs
        self._states: np.ndarray | None = None

    # ------------------------------------------------------------------ API
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
        infos: list[dict] = [{} for _ in range(n)]
        states, rewards, terms = self._settle(prev, self._advance(prev, u, winds), infos)
        self._states = states
        returns, lengths = self._episode_returns, self._episode_lengths
        for i, reward in enumerate(rewards.tolist()):
            returns[i] += reward
            lengths[i] += 1

        # TimeLimit semantics, applied per env like the serial wrapper.
        truncs = np.zeros(n, dtype=bool)
        if self.max_episode_steps is not None:
            truncs = (np.array(lengths) >= self.max_episode_steps) & ~terms
            for i in np.flatnonzero(truncs):
                infos[i]["TimeLimit.truncated"] = True

        observations = self._observe(states)
        for i in np.flatnonzero(terms | truncs):
            self._close_out(i, infos[i], observations[i].copy())
            self._reset_row(i, None)
            observations[i] = self._observe(states[i])
        return observations, rewards, terms, truncs, infos

    def __repr__(self) -> str:
        return (
            f"AirdropVectorEnv(num_envs={self.num_envs}, rk_order={self.rk_order}, "
            f"dt={self.dt})"
        )

    # ------------------------------------------------------------ internals
    def _reset_slots(self, seeds: list[int | None]) -> tuple[np.ndarray, list[dict]]:
        self._states = np.zeros((self.num_envs, STATE_DIM), dtype=np.float64)
        infos = [self._reset_row(i, seed) for i, seed in enumerate(seeds)]
        return self._observe(self._states), infos

    def _reset_row(self, index: int, seed: int | None) -> dict[str, Any]:
        """Start a new episode in row ``index``, as ``AirdropEnv.reset`` does."""
        if seed is not None or self._rngs[index] is None:
            self._rngs[index] = np.random.default_rng(seed)
        assert self._states is not None
        self._states[index], info = self._draw(self._rngs[index])
        self.wind_models[index].reset()
        return info

    def _keep_slots(self, kept: list[int]) -> None:
        assert self._states is not None
        self._states = self._states[kept]
        self._rngs = [self._rngs[i] for i in kept]
        self.wind_models = [self.wind_models[i] for i in kept]
