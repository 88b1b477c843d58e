"""The Airdrop Package Delivery Simulator as a gym-style environment.

Implements the paper's Algorithm 1:

1. the package is dropped from a random altitude inside
   ``altitude_limits`` (default the paper's 30–1000 units);
2. at each control step the simulator computes the canopy dynamics with a
   Runge–Kutta method of the configured order and hands the agent an
   observation of rotation, position, orientation and velocity;
3. the agent selects a steering command for the canopy;
4. at touchdown the agent receives a reward reflecting how close the
   package landed to the target point.

Environment parameters mirror §IV-B: wind on/off, gusts on/off,
``gust_probability``, ``altitude_limits`` and the Runge–Kutta order
(3, 5 or 8 — scipy's RK23 / DOPRI5 / DOP853 tableaus).

Each control step costs ``n_stages`` right-hand-side evaluations of the
order's tableau (:attr:`~repro.airdrop.integrators.ButcherTableau.n_stages`);
the cost plan charges virtual compute time per env step from the tableau
of ``TrainSpec.rk_order``, which is how the order-3/5/8 choice trades
accuracy against computation time exactly as in the paper.

:class:`AirdropEnv` is the one-row front of the shared simulation model
(:mod:`repro.airdrop.model`): it steps a single ``(9,)`` state row, and
:class:`~repro.airdrop.batch.AirdropVectorEnv` steps ``N`` rows through
the same code.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..envs import Box, Env
from .model import OBS_DIM, AirdropModel
from .wind import WindModel

__all__ = ["AirdropEnv", "OBS_DIM"]


class AirdropEnv(AirdropModel, Env[np.ndarray, np.ndarray]):
    """Precision-landing parafoil environment: one episode, one state row.

    Takes the :class:`~repro.airdrop.model.AirdropModel` parameters
    (``rk_order``, ``dt``, ``altitude_limits``, the wind switches,
    ``params`` and ``reward_config``).
    """

    metadata = {"render_modes": []}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.observation_space = Box(low=-np.inf, high=np.inf, shape=(OBS_DIM,))
        self.action_space = Box(low=-1.0, high=1.0, shape=(1,))
        self.wind_model = WindModel(self.wind_config)
        self._state: np.ndarray | None = None

    # ------------------------------------------------------------------ API
    @property
    def state(self) -> np.ndarray:
        """A copy of the internal physical state (for analysis/tests)."""
        if self._state is None:
            raise RuntimeError("environment not reset")
        return self._state.copy()

    def reset(
        self, *, seed: int | None = None, options: dict[str, Any] | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        super().reset(seed=seed)
        self._state, info = self._draw(self.np_random, options)
        self.wind_model.reset()
        return self._observe(self._state), info

    def step(
        self, action: np.ndarray
    ) -> tuple[np.ndarray, float, bool, bool, dict[str, Any]]:
        prev = self._state
        if prev is None:
            raise RuntimeError("cannot step before reset()")
        u = np.asarray(action, dtype=np.float64).reshape(-1)[0]
        wind = self._static_wind
        if wind is None:
            wind = self.wind_model.update(self.np_random, self.dt)
        info: dict[str, Any] = {}
        state, reward, terminated = self._settle(prev, self._advance(prev, u, wind), [info])
        self._state = state
        return self._observe(state), float(reward), bool(terminated), False, info

    def __repr__(self) -> str:
        return (
            f"AirdropEnv(rk_order={self.rk_order}, dt={self.dt}, "
            f"altitude_limits={self.altitude_limits})"
        )
