"""The two wrappers :func:`~repro.envs.registry.make` applies.

:class:`TimeLimit` cuts episodes at a registered horizon and
:class:`OrderEnforcing` refuses a ``step`` before the first ``reset``.
Nothing else wraps an environment:
:class:`~repro.envs.vector.SyncVectorEnv` records episode returns and
lengths, and the framework layer maps the policy's unit-scaled actions
onto an env's bounds.
"""

from __future__ import annotations

from typing import Any

from .env import Env, Wrapper

__all__ = ["TimeLimit", "OrderEnforcing"]


class TimeLimit(Wrapper):
    """Truncate episodes after ``max_episode_steps`` steps.

    Sets ``truncated=True`` (without touching ``terminated``) so value
    bootstrapping in the learners can distinguish horizon cuts from real
    terminal states.
    """

    def __init__(self, env: Env, max_episode_steps: int) -> None:
        super().__init__(env)
        if max_episode_steps <= 0:
            raise ValueError("max_episode_steps must be positive")
        self.max_episode_steps = int(max_episode_steps)
        self._elapsed_steps: int | None = None

    def reset(self, **kwargs: Any):
        self._elapsed_steps = 0
        return self.env.reset(**kwargs)

    def step(self, action: Any):
        if self._elapsed_steps is None:
            raise RuntimeError("cannot step a TimeLimit env before reset()")
        obs, reward, terminated, truncated, info = self.env.step(action)
        self._elapsed_steps += 1
        if self._elapsed_steps >= self.max_episode_steps and not terminated:
            truncated = True
            info.setdefault("TimeLimit.truncated", True)
        return obs, reward, terminated, truncated, info


class OrderEnforcing(Wrapper):
    """Raise if ``step`` is called before the first ``reset``."""

    def __init__(self, env: Env) -> None:
        super().__init__(env)
        self._has_reset = False

    def reset(self, **kwargs: Any):
        self._has_reset = True
        return self.env.reset(**kwargs)

    def step(self, action: Any):
        if not self._has_reset:
            raise RuntimeError("cannot call step() before reset()")
        return self.env.step(action)
