"""Virtual-cost model translating training operations into testbed seconds.

The reproduction runs real (scaled-down) training on the host, but reports
*Computation Time* on the paper's testbed scale. Every operation the
training loop performs is charged a virtual duration on the simulated
Xeon W-2102 cluster:

* one environment step costs a per-framework overhead (gym plumbing,
  policy inference, vector-env synchronization) plus ``rk_stage_s`` per
  Runge–Kutta stage — the §IV-B accuracy/time trade-off;
* a PPO learner pass costs ``ppo_update_per_sample_s`` per (sample ×
  epoch), parallelized over the learner node's cores at the framework's
  ``update_parallel_eff``;
* one SAC gradient update costs ``sac_update_s`` (five network passes over
  a replay batch — the reason the paper's SAC rows are so expensive);
* messages cost link latency + bytes/bandwidth.

Constants were calibrated analytically against the paper's five timing
anchors (solutions 2, 5, 7, 11, 16 → 46/49/85/49/65 minutes) and the two
energy anchors (solutions 2 and 11 → 201/120 kJ); see
``repro/paper/calibration.py`` for the closure of that fit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "FrameworkCostProfile"]


@dataclass(frozen=True)
class FrameworkCostProfile:
    """Per-framework structural cost constants (testbed seconds)."""

    #: fixed per-environment-step overhead: gym plumbing + policy inference
    #: + (for single-node back-ends) lockstep vector synchronization
    step_overhead_s: float
    #: fraction of linear speed-up the learner achieves on multiple cores
    update_parallel_eff: float
    #: fixed per-training-iteration overhead (scheduling, (de)serialization)
    iteration_overhead_s: float

    def __post_init__(self) -> None:
        if self.step_overhead_s < 0 or self.iteration_overhead_s < 0:
            raise ValueError("overheads must be non-negative")
        if not 0.0 < self.update_parallel_eff <= 1.0:
            raise ValueError("update_parallel_eff must be in (0, 1]")


@dataclass(frozen=True)
class CostModel:
    """Shared operation costs (testbed seconds unless noted)."""

    #: cost of one right-hand-side evaluation of the canopy ODE
    rk_stage_s: float = 2.4e-3
    #: PPO learner cost per sample per epoch (forward + backward, 1 core)
    ppo_update_per_sample_s: float = 2.1e-3
    #: one SAC gradient update (replay batch through 5 networks, 1 core)
    sac_update_s: float = 80e-3
    #: serialized size of one transition shipped to the learner (bytes)
    transition_bytes: float = 600.0
    #: serialized size of one policy-weights broadcast (bytes)
    weights_bytes: float = 250e3

    def __post_init__(self) -> None:
        if min(
            self.rk_stage_s,
            self.ppo_update_per_sample_s,
            self.sac_update_s,
            self.transition_bytes,
            self.weights_bytes,
        ) < 0:
            raise ValueError("cost constants must be non-negative")

    # ------------------------------------------------------------- helpers
    def env_step_s(self, n_stages: int, profile: FrameworkCostProfile) -> float:
        """Virtual duration of one environment step under ``profile``."""
        return profile.step_overhead_s + self.rk_stage_s * n_stages

    def ppo_update_s(
        self,
        batch_size: int,
        n_epochs: int,
        cores: int,
        profile: FrameworkCostProfile,
        core_speed: float = 1.0,
    ) -> float:
        """Virtual duration of one full PPO update on ``cores`` cores."""
        work = self.ppo_update_per_sample_s * batch_size * n_epochs
        return work / (cores * profile.update_parallel_eff * core_speed)

    def sac_updates_s(
        self,
        n_updates: int,
        cores: int,
        profile: FrameworkCostProfile,
        core_speed: float = 1.0,
    ) -> float:
        """Virtual duration of a block of SAC gradient updates."""
        return self.sac_update_s * n_updates / (cores * profile.update_parallel_eff * core_speed)


#: calibrated per-framework profiles (see module docstring)
RLLIB_PROFILE = FrameworkCostProfile(
    step_overhead_s=43.2e-3,  # ray actor plumbing + object-store serialization
    update_parallel_eff=0.70,
    iteration_overhead_s=0.25,
)
STABLE_PROFILE = FrameworkCostProfile(
    step_overhead_s=30.0e-3,  # vec-env lockstep + torch inference
    update_parallel_eff=1.00,
    iteration_overhead_s=0.10,
)
TFAGENTS_PROFILE = FrameworkCostProfile(
    step_overhead_s=30.0e-3,  # graph-compiled driver, similar per-step cost
    update_parallel_eff=0.625,  # fewer default epochs, less parallel update path
    iteration_overhead_s=0.10,
)
