"""Core environment API (gym-style) used by the whole reproduction.

The contract matches the modern gym/gymnasium five-tuple step API:

``observation, info = env.reset(seed=..., options=...)``
``observation, reward, terminated, truncated, info = env.step(action)``

``terminated`` signals a true MDP terminal state (the package landed);
``truncated`` signals an artificial horizon (e.g. :class:`TimeLimit`).
"""

from __future__ import annotations

from typing import Any, Generic, SupportsFloat, TypeVar

import numpy as np

from .spaces import Space

__all__ = ["Env", "Wrapper"]

ObsType = TypeVar("ObsType")
ActType = TypeVar("ActType")


class Env(Generic[ObsType, ActType]):
    """Abstract base environment.

    Subclasses must define :attr:`observation_space` and
    :attr:`action_space` and implement :meth:`reset` and :meth:`step`.
    A per-instance :class:`numpy.random.Generator` is available as
    :attr:`np_random`; it is re-created whenever ``reset`` receives a seed,
    which is the only sanctioned source of environment randomness.
    """

    observation_space: Space
    action_space: Space

    # Optional metadata, mirroring gym conventions.
    metadata: dict[str, Any] = {"render_modes": []}
    spec: Any = None

    _np_random: np.random.Generator | None = None

    @property
    def np_random(self) -> np.random.Generator:
        """Lazily-created environment RNG."""
        if self._np_random is None:
            # repro-lint: disable=RPR001 -- gym API parity: campaigns always replace this via reset(seed); only ad-hoc unseeded use reaches it
            self._np_random = np.random.default_rng()
        return self._np_random

    @np_random.setter
    def np_random(self, value: np.random.Generator) -> None:
        self._np_random = value

    def reset(
        self, *, seed: int | None = None, options: dict[str, Any] | None = None
    ) -> tuple[ObsType, dict[str, Any]]:
        """Reset the environment. Must be called before the first step.

        When ``seed`` is given the environment RNG is re-created from it,
        making the subsequent episode fully deterministic.
        """
        if seed is not None:
            self._np_random = np.random.default_rng(seed)
        return None, {}  # type: ignore[return-value]

    def step(
        self, action: ActType
    ) -> tuple[ObsType, SupportsFloat, bool, bool, dict[str, Any]]:
        """Advance the environment by one agent action."""
        raise NotImplementedError

    def render(self) -> Any:  # pragma: no cover - rendering is cosmetic
        return None

    def close(self) -> None:
        """Release resources. Idempotent."""

    @property
    def unwrapped(self) -> "Env":
        """The innermost environment (strips wrappers)."""
        return self

    def __enter__(self) -> "Env":
        return self

    def __exit__(self, *args: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class Wrapper(Env[ObsType, ActType]):
    """Base class for environment wrappers; forwards everything by default."""

    def __init__(self, env: Env) -> None:
        if not isinstance(env, Env):
            raise TypeError(f"expected Env, got {type(env).__name__}")
        self.env = env

    @property
    def observation_space(self) -> Space:  # type: ignore[override]
        if "_observation_space" in self.__dict__:
            return self.__dict__["_observation_space"]
        return self.env.observation_space

    @observation_space.setter
    def observation_space(self, space: Space) -> None:
        self.__dict__["_observation_space"] = space

    @property
    def action_space(self) -> Space:  # type: ignore[override]
        if "_action_space" in self.__dict__:
            return self.__dict__["_action_space"]
        return self.env.action_space

    @action_space.setter
    def action_space(self, space: Space) -> None:
        self.__dict__["_action_space"] = space

    @property
    def np_random(self) -> np.random.Generator:
        return self.env.np_random

    def reset(self, **kwargs: Any) -> tuple[ObsType, dict[str, Any]]:
        return self.env.reset(**kwargs)

    def step(self, action: ActType):
        return self.env.step(action)

    def close(self) -> None:
        self.env.close()

    @property
    def unwrapped(self) -> Env:
        return self.env.unwrapped

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails: delegate to the wrapped env.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.env, name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}{self.env!r}>"
