"""Pendulum swing-up: continuous-control companion to CartPole.

A torque-limited pendulum must be swung upright and balanced — the
standard continuous-control smoke test. Dynamics are integrated with the
selectable Runge–Kutta order (shared numerical substrate).

State: ``[theta, theta_dot]`` with θ = 0 upright. Observation:
``[cos θ, sin θ, θ̇]``. Action: torque in ``[-max_torque, max_torque]``.
Reward: ``-(θ² + 0.1·θ̇² + 0.001·torque²)`` per step (the gym convention).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..airdrop.integrators import get_integrator
from ..envs import Box, Env

__all__ = ["PendulumEnv"]

_GRAVITY = 10.0
_MASS = 1.0
_LENGTH = 1.0
_MAX_SPEED = 8.0


def _angle_normalize(theta: float) -> float:
    return float(((theta + np.pi) % (2.0 * np.pi)) - np.pi)


class PendulumEnv(Env[np.ndarray, np.ndarray]):
    """Torque-limited pendulum swing-up."""

    def __init__(self, rk_order: int = 5, dt: float = 0.05, max_torque: float = 2.0) -> None:
        if dt <= 0 or max_torque <= 0:
            raise ValueError("dt and max_torque must be positive")
        self.integrator = get_integrator(int(rk_order))
        self.rk_order = int(rk_order)
        self.dt = float(dt)
        self.max_torque = float(max_torque)
        high = np.array([1.0, 1.0, _MAX_SPEED])
        self.observation_space = Box(-high, high)
        self.action_space = Box(-max_torque, max_torque, shape=(1,))
        self._state: np.ndarray | None = None
        self._t = 0

    def _observe(self) -> np.ndarray:
        theta, theta_dot = self._state
        return np.array([np.cos(theta), np.sin(theta), theta_dot])

    def reset(
        self, *, seed: int | None = None, options: dict[str, Any] | None = None
    ) -> tuple[np.ndarray, dict[str, Any]]:
        super().reset(seed=seed)
        theta = self.np_random.uniform(-np.pi, np.pi)
        theta_dot = self.np_random.uniform(-1.0, 1.0)
        self._state = np.array([theta, theta_dot])
        self._t = 0
        return self._observe(), {}

    def step(self, action: np.ndarray):
        if self._state is None:
            raise RuntimeError("cannot step before reset()")
        torque = float(np.clip(np.asarray(action, dtype=float).reshape(-1)[0],
                               -self.max_torque, self.max_torque))

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            theta, theta_dot = y
            theta_acc = (
                3.0 * _GRAVITY / (2.0 * _LENGTH) * np.sin(theta)
                + 3.0 / (_MASS * _LENGTH**2) * torque
            )
            return np.array([theta_dot, theta_acc])

        theta, theta_dot = self._state
        cost = _angle_normalize(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2
        new_state = self.integrator.step(rhs, self._t * self.dt, self._state, self.dt)
        new_state[1] = np.clip(new_state[1], -_MAX_SPEED, _MAX_SPEED)
        self._state = new_state
        self._t += 1
        return self._observe(), -float(cost), False, False, {}

    def __repr__(self) -> str:
        return f"PendulumEnv(rk_order={self.rk_order}, dt={self.dt})"
