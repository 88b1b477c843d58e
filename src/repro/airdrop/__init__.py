"""The Airdrop Package Delivery Simulator (the paper's §IV case study)."""

from ..envs import register, registry
from .batch import AirdropVectorEnv
from .dynamics import (
    STATE_DIM,
    ParafoilParams,
    make_rhs,
    parafoil_rhs,
    steady_bank,
    trim_glide_ratio,
    turn_radius,
)
from .env import OBS_DIM, AirdropEnv
from .integrators import (
    DOP853,
    DOPRI5,
    RK23,
    ButcherTableau,
    available_orders,
    get_integrator,
)
from .reward import RewardConfig, interpolate_touchdown, landing_score, potential
from .wind import WindConfig, WindModel

__all__ = [
    "AirdropEnv",
    "AirdropVectorEnv",
    "OBS_DIM",
    "STATE_DIM",
    "ParafoilParams",
    "parafoil_rhs",
    "make_rhs",
    "steady_bank",
    "trim_glide_ratio",
    "turn_radius",
    "ButcherTableau",
    "RK23",
    "DOPRI5",
    "DOP853",
    "get_integrator",
    "available_orders",
    "RewardConfig",
    "landing_score",
    "potential",
    "interpolate_touchdown",
    "WindConfig",
    "WindModel",
]

if "Airdrop-v0" not in registry:
    register(
        "Airdrop-v0",
        AirdropEnv,
        max_episode_steps=600,
        vector_entry_point=AirdropVectorEnv,
    )
