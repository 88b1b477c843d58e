"""Reward definition for the airdrop precision-landing task.

The paper's agent "gets a reward depending on how close the package landed
from the target point" (§IV-A), with best observed values around −0.45.
We reproduce that scale: the **landing score** is

``score = -distance_to_target_at_touchdown / DISTANCE_SCALE``

so a 45 m miss scores −0.45. The landing score is the quantity the
methodology's *Reward* evaluation metric aggregates.

The touchdown reward is deliberately sparse — the paper's environment
rewards nothing during the descent — and that sparsity is the honest
mechanism behind the paper's SAC failure (§VI-D): one-step TD backups
propagate a terminal-only signal over ~150-step episodes far more slowly
than PPO's GAE(λ) advantages. Optional potential-based shaping
(Ng et al., 1999) can be enabled for easier variants:
``r_t = phi(s_{t+1}) - phi(s_t)`` with ``phi(s) = -dist(s)/DISTANCE_SCALE``;
it leaves the optimal policy unchanged. The headline metric is always the
unshaped landing score, reported in ``info['landing_score']``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["RewardConfig", "landing_score", "potential", "interpolate_touchdown"]

#: metres of miss distance per unit of (negative) reward
DISTANCE_SCALE = 100.0


@dataclass(frozen=True)
class RewardConfig:
    """Reward shaping configuration."""

    distance_scale: float = DISTANCE_SCALE
    #: dense potential-based shaping is OFF by default: the paper's
    #: environment rewards only the touchdown (§IV-A), and that sparsity is
    #: precisely what makes SAC fail where PPO copes (§VI-D)
    shaping: bool = False
    #: weight of the dense potential-difference term when enabled
    shaping_coef: float = 1.0

    def __post_init__(self) -> None:
        if self.distance_scale <= 0:
            raise ValueError("distance_scale must be positive")
        if self.shaping_coef < 0:
            raise ValueError("shaping_coef must be non-negative")


def horizontal_distance(x: float, y: float, target: np.ndarray) -> float:
    """Euclidean miss distance in the ground plane."""
    return float(np.hypot(x - target[0], y - target[1]))


def potential(x: Any, y: Any, target: np.ndarray, config: RewardConfig) -> Any:
    """Shaping potential: negative scaled distance to the target.

    Elementwise: ``x`` and ``y`` may be scalars or arrays of rows.
    """
    return -np.hypot(x - target[0], y - target[1]) / config.distance_scale


def landing_score(x: float, y: float, target: np.ndarray, config: RewardConfig) -> float:
    """The paper's Reward metric for one episode: −miss/scale at touchdown."""
    return -horizontal_distance(x, y, target) / config.distance_scale


def interpolate_touchdown(
    state_before: np.ndarray, state_after: np.ndarray
) -> tuple[float, float]:
    """Ground-plane touchdown point, linearly interpolated at z = 0.

    ``state_after`` has crossed below ground during the last integration
    step; interpolating removes the step-size artefact from the landing
    position (otherwise a coarse step would bias the score).
    """
    z0, z1 = float(state_before[2]), float(state_after[2])
    if z1 > 0:
        raise ValueError("state_after must be at or below ground level")
    if z0 <= 0.0 or z0 <= z1:  # degenerate (already grounded); use the latest point
        return float(state_after[0]), float(state_after[1])
    frac = z0 / (z0 - z1)
    x = float(state_before[0] + frac * (state_after[0] - state_before[0]))
    y = float(state_before[1] + frac * (state_after[1] - state_before[1]))
    return x, y
