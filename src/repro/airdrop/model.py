"""The airdrop simulation model both environment fronts share.

One model of a drop, written over the trailing state axis: every method
takes one state row ``(9,)`` or a batch of rows ``(N, 9)`` and runs the
same code on both, so row ``i`` of a batch is bit-identical to that row
stepped alone. :class:`AirdropModel` holds the configuration and the four
pieces of the paper's Algorithm 1:

* :meth:`~AirdropModel._draw` — the random drop (altitude, offset,
  heading);
* :meth:`~AirdropModel._advance` — one control period of canopy dynamics
  through the Runge–Kutta tableau of the configured order;
* :meth:`~AirdropModel._settle` — landing (touchdown interpolation and
  landing score) or numerical failure;
* :meth:`~AirdropModel._observe` — the observation the agent sees.

Two gym fronts (classes implementing the ``reset``/``step`` contract) sit
on it: :class:`~repro.airdrop.env.AirdropEnv` steps one ``(9,)`` row and
:class:`~repro.airdrop.batch.AirdropVectorEnv` steps ``N`` rows behind
the vector-env contract, adding only the per-row step limit and reset.

A single episode is stepped as a ``(9,)`` row, not as a ``(1, 9)``
batch: on a row every quantity in the right-hand side is a numpy scalar,
whose arithmetic costs a fraction of a ufunc call on a one-element
array, so one row stays as cheap as a dedicated scalar model would be.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .dynamics import (
    IPSI,
    IVH,
    IVZ,
    IX,
    IY,
    IZ,
    STATE_DIM,
    ParafoilParams,
    make_rhs,
    trim_glide_ratio,
    turn_radius,
)
from .integrators import get_integrator
from .reward import RewardConfig, interpolate_touchdown, landing_score, potential
from .wind import WindConfig, WindModel

__all__ = ["AirdropModel", "OBS_DIM"]

#: Observation layout (see :meth:`AirdropModel._observe`).
OBS_DIM = 13

_POSITION_SCALE = 500.0
_ALTITUDE_SCALE = 500.0


class AirdropModel:
    """Configuration and physics of the airdrop simulator.

    Parameters
    ----------
    rk_order:
        Runge–Kutta order used to integrate the canopy dynamics (3, 5, 8).
    dt:
        Control period in seconds; one agent action is held for ``dt``,
        integrated as one Runge–Kutta step.
    altitude_limits:
        ``(low, high)`` drop-altitude interval, the paper default (30, 1000).
    wind / gusts / gust_probability / wind_speed / wind_direction_deg:
        The §IV-B environment switches.
    params / reward_config:
        Physical and reward-shaping parameter overrides.
    """

    def __init__(
        self,
        rk_order: int = 5,
        dt: float = 1.0,
        altitude_limits: tuple[float, float] = (30.0, 1000.0),
        wind: bool = False,
        gusts: bool = False,
        gust_probability: float = 0.05,
        wind_speed: float = 3.0,
        wind_direction_deg: float = 90.0,
        params: ParafoilParams | None = None,
        reward_config: RewardConfig | None = None,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        low, high = float(altitude_limits[0]), float(altitude_limits[1])
        if not 0 < low <= high:
            raise ValueError("altitude_limits must satisfy 0 < low <= high")

        self.rk_order = int(rk_order)
        self.integrator = get_integrator(self.rk_order)
        self.dt = float(dt)
        self.altitude_limits = (low, high)
        self.params = params or ParafoilParams()
        self.reward_config = reward_config or RewardConfig()
        self.wind_config = WindConfig(
            enable_wind=bool(wind),
            wind_speed=float(wind_speed),
            wind_direction_deg=float(wind_direction_deg),
            enable_gusts=bool(gusts),
            gust_probability=float(gust_probability),
        )
        #: with gusts off the wind is the constant vector a gust-free
        #: WindModel returns on every step and consumes no randomness, so
        #: the fronts skip the per-step wind-model update
        self._static_wind = (
            None if self.wind_config.enable_gusts else WindModel(self.wind_config).current()
        )
        self.target = np.zeros(2)

    def _draw(
        self, rng: np.random.Generator, options: dict[str, Any] | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        """Draw one drop: a ``(9,)`` start state and the reset info.

        ``options`` may fix ``altitude``, ``radius``, ``bearing`` or
        ``heading``; the generator is consumed the same way either way.
        """
        options = options or {}
        z0 = float(options.get("altitude", rng.uniform(*self.altitude_limits)))
        max_range = trim_glide_ratio(self.params) * z0
        min_radius = min(2.0 * turn_radius(self.params), 0.45 * max_range)
        radius = float(options.get("radius", rng.uniform(min_radius, 0.65 * max_range)))
        bearing = float(options.get("bearing", rng.uniform(0.0, 2.0 * np.pi)))
        psi0 = float(options.get("heading", rng.uniform(-np.pi, np.pi)))

        state = np.zeros(STATE_DIM)
        state[IX] = radius * np.cos(bearing)
        state[IY] = radius * np.sin(bearing)
        state[IZ] = z0
        state[IPSI] = psi0
        state[IVH] = self.params.v_trim
        state[IVZ] = self.params.vz_trim
        return state, {"drop_altitude": z0, "drop_radius": radius}

    def _advance(
        self, states: np.ndarray, u: float | np.ndarray, wind: np.ndarray
    ) -> np.ndarray:
        """Integrate one control period; ``u``/``wind`` are per row."""
        return self.integrator.step(make_rhs(u, wind, self.params), 0.0, states, self.dt)

    def _settle(
        self,
        prev: np.ndarray,
        y: np.ndarray,
        infos: list[dict[str, Any]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle one integrated step: every row flies on, lands or fails.

        ``prev`` holds the rows before the step and ``y`` after it; ``y``
        is settled in place and returned. A row whose new state is not
        finite failed numerically (possible with a coarse low-order
        step): the package counts as destroyed far from the target, and
        the row goes back to its last state with non-finite entries
        zeroed, so observations stay finite even if the corruption
        predated this step. A row at or below ground landed: it stops at
        the touchdown point interpolated between the two states and earns
        the landing score. ``infos`` has one dict per row, which gets
        the failure or landing facts. Returns ``(states, rewards,
        terminated)``, the last two shaped like the leading axes.
        """
        cfg = self.reward_config
        failed = ~np.isfinite(y).all(axis=-1)
        ended = failed | (y.T[IZ] <= 0.0)
        if cfg.shaping:
            with np.errstate(invalid="ignore"):
                phi_prev = potential(prev.T[IX], prev.T[IY], self.target, cfg)
                shaped = potential(y.T[IX], y.T[IY], self.target, cfg) - phi_prev
            rewards = np.asarray(cfg.shaping_coef * shaped)
        else:
            rewards = np.zeros(ended.shape)
        if not ended.any():
            return y, rewards, ended

        # one row per leading index, as views: writes land in y and rewards
        rows, before = y.reshape(-1, STATE_DIM), prev.reshape(-1, STATE_DIM)
        row_rewards, row_failed = rewards.reshape(-1), failed.reshape(-1)
        for i in np.flatnonzero(ended):
            info = infos[i]
            if row_failed[i]:
                rows[i] = np.where(np.isfinite(before[i]), before[i], 0.0)
                row_rewards[i] = -10.0
                info["numerical_failure"] = True
                info["landing_score"] = -10.0
                info["miss_distance"] = 10.0 * cfg.distance_scale
                continue
            x_td, y_td = interpolate_touchdown(before[i], rows[i])
            score = landing_score(x_td, y_td, self.target, cfg)
            rows[i, IX], rows[i, IY], rows[i, IZ] = x_td, y_td, 0.0
            reward = score
            if cfg.shaping:
                phi_land = potential(x_td, y_td, self.target, cfg)
                reward += cfg.shaping_coef * (phi_land - phi_prev.reshape(-1)[i])
            row_rewards[i] = reward
            info["landing_score"] = score
            info["miss_distance"] = -score * cfg.distance_scale
            info["touchdown"] = (x_td, y_td)
        return y, rewards, ended

    def _observe(self, states: np.ndarray) -> np.ndarray:
        """Observation: rotation, position, orientation, velocity (§IV-A).

        Layout (all roughly unit-scaled), one row per state row:

        ====  =======================================================
        0–1   position relative to target / 500 m
        2     altitude / 500 m
        3–4   orientation ``sin ψ, cos ψ``
        5     rotation rate ``ω / ω_max``
        6–7   velocities ``vh / v_trim``, ``vz / vz_trim``
        8–9   canopy roll ``φ`` and roll rate ``p``
        10–11 bearing to target relative to heading (sin, cos)
        12    reachability: distance / (glide ratio × altitude)
        ====  =======================================================
        """
        x, y, z, psi, omega, vh, vz, phi, p = states.T
        dx = x - self.target[0]
        dy = y - self.target[1]
        bearing_to_target = np.arctan2(-dy, -dx)  # direction the canopy should fly
        rel = bearing_to_target - psi
        glide_range = trim_glide_ratio(self.params) * np.maximum(z, 1e-6)
        obs = np.array(
            [
                dx / _POSITION_SCALE,
                dy / _POSITION_SCALE,
                z / _ALTITUDE_SCALE,
                np.sin(psi),
                np.cos(psi),
                omega / self.params.omega_max,
                vh / self.params.v_trim,
                vz / self.params.vz_trim,
                phi,
                p,
                np.sin(rel),
                np.cos(rel),
                np.minimum(np.hypot(dx, dy) / glide_range, 3.0),
            ]
        )
        return np.ascontiguousarray(obs.T)
