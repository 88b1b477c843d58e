"""Gym-style environment substrate (spaces, Env API, registry, vector envs)."""

from .env import Env, Wrapper
from .registry import EnvSpec, make, make_vec, register, registry, spec
from .spaces import Box, Discrete, Space
from .vector import EpisodeStats, SyncVectorEnv, VectorEnv
from .wrappers import OrderEnforcing, TimeLimit

__all__ = [
    "Env",
    "Wrapper",
    "Space",
    "Box",
    "Discrete",
    "register",
    "make",
    "make_vec",
    "spec",
    "registry",
    "EnvSpec",
    "VectorEnv",
    "SyncVectorEnv",
    "EpisodeStats",
    "TimeLimit",
    "OrderEnforcing",
]
