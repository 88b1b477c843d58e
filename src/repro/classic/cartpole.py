"""CartPole balance task, rebuilt on the shared Runge–Kutta substrate.

The paper motivates its methodology with "gym environments such as Atari
Breakout or Atari Pong" as alternative case studies (§III-B-a). This pack
provides classic-control environments so the methodology and the RL stack
can be exercised on tasks other than the airdrop simulator.

Dynamics follow Barto, Sutton & Anderson (1983) — the same equations the
gym implementation discretizes with explicit Euler — but integrated here
with the selectable-order Runge–Kutta tableaus, so the environment exposes
the paper's accuracy/cost knob too.

State: ``[x, x_dot, theta, theta_dot]``. Actions: 0 = push left,
1 = push right. Reward: +1 per step until the pole falls (|θ| > 12°) or
the cart leaves the track (|x| > 2.4).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..airdrop.integrators import get_integrator
from ..envs import Box, Discrete, Env

__all__ = ["CartPoleEnv"]

_GRAVITY = 9.8
_CART_MASS = 1.0
_POLE_MASS = 0.1
_TOTAL_MASS = _CART_MASS + _POLE_MASS
_POLE_HALF_LENGTH = 0.5
_POLE_MASS_LENGTH = _POLE_MASS * _POLE_HALF_LENGTH
_FORCE_MAG = 10.0

_THETA_LIMIT = 12.0 * np.pi / 180.0
_X_LIMIT = 2.4


def _cartpole_rhs(t: float, state: np.ndarray, force: float) -> np.ndarray:
    """Barto–Sutton–Anderson cart-pole equations of motion."""
    _, x_dot, theta, theta_dot = state
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    temp = (force + _POLE_MASS_LENGTH * theta_dot**2 * sin_t) / _TOTAL_MASS
    theta_acc = (_GRAVITY * sin_t - cos_t * temp) / (
        _POLE_HALF_LENGTH * (4.0 / 3.0 - _POLE_MASS * cos_t**2 / _TOTAL_MASS)
    )
    x_acc = temp - _POLE_MASS_LENGTH * theta_acc * cos_t / _TOTAL_MASS
    return np.array([x_dot, x_acc, theta_dot, theta_acc])


class CartPoleEnv(Env[np.ndarray, int]):
    """The classic balance task with a selectable integrator order."""

    def __init__(self, rk_order: int = 5, dt: float = 0.02) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.integrator = get_integrator(int(rk_order))
        self.rk_order = int(rk_order)
        self.dt = float(dt)
        high = np.array([_X_LIMIT * 2, np.inf, _THETA_LIMIT * 2, np.inf])
        self.observation_space = Box(-high, high)
        self.action_space = Discrete(2)
        self._state: np.ndarray | None = None
        self._steps = 0

    def reset(
        self, *, seed: int | None = None, options: dict[str, Any] | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        super().reset(seed=seed)
        self._state = self.np_random.uniform(-0.05, 0.05, size=4)
        self._steps = 0
        return self._state.copy(), {}

    def step(self, action: int):
        if self._state is None:
            raise RuntimeError("cannot step before reset()")
        if not self.action_space.contains(int(action)):
            raise ValueError(f"invalid action {action!r}")
        force = _FORCE_MAG if int(action) == 1 else -_FORCE_MAG
        rhs = lambda t, y: _cartpole_rhs(t, y, force)  # noqa: E731
        self._state = self.integrator.step(rhs, self._steps * self.dt, self._state, self.dt)
        self._steps += 1
        x, _, theta, _ = self._state
        terminated = bool(abs(x) > _X_LIMIT or abs(theta) > _THETA_LIMIT)
        return self._state.copy(), 1.0, terminated, False, {}

    def __repr__(self) -> str:
        return f"CartPoleEnv(rk_order={self.rk_order}, dt={self.dt})"
