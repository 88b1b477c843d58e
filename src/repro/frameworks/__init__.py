"""Framework back-ends: RLlib-like, Stable-Baselines-like, TF-Agents-like."""

from .base import Cost, CostPlan, EnvStepError, Framework, TrainResult, TrainSpec, WorkerLayout
from .costmodel import (
    RLLIB_PROFILE,
    STABLE_PROFILE,
    TFAGENTS_PROFILE,
    CostModel,
    FrameworkCostProfile,
)
from .impala_like import IMPALA_PROFILE, ImpalaLike
from .rllib_like import RLlibLike
from .stable_like import StableBaselinesLike
from .tfagents_like import TFAgentsLike

__all__ = [
    "Framework",
    "EnvStepError",
    "TrainSpec",
    "TrainResult",
    "WorkerLayout",
    "CostPlan",
    "Cost",
    "CostModel",
    "FrameworkCostProfile",
    "RLLIB_PROFILE",
    "STABLE_PROFILE",
    "TFAGENTS_PROFILE",
    "RLlibLike",
    "ImpalaLike",
    "IMPALA_PROFILE",
    "StableBaselinesLike",
    "TFAgentsLike",
    "get_framework",
    "FRAMEWORKS",
]

#: registry used by the methodology's Framework parameter
FRAMEWORKS: dict[str, type[Framework]] = {
    "rllib": RLlibLike,
    "stable": StableBaselinesLike,
    "tfagents": TFAgentsLike,
    # extension back-end (§II-A background, not part of the paper's campaign)
    "impala": ImpalaLike,
}


def get_framework(name: str, **kwargs) -> Framework:
    """Instantiate a framework back-end by registry name."""
    try:
        cls = FRAMEWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown framework {name!r}; available: {sorted(FRAMEWORKS)}"
        ) from None
    return cls(**kwargs)
