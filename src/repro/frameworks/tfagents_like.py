"""Single-node parallel-driver back-end (the paper's TF-Agents).

TF-Agents parallelizes training "on a single node, using multiple CPUs"
(§V-b) through parallel drivers feeding a graph-compiled learner. The
structural layout is the Stable-Baselines back-end's, the default one
worker per core on one node; the difference is the cost profile: the
compiled update path parallelizes better, making this the most
power-efficient back-end — the paper's solution 11 (one node, four
cores) is the minimum-energy configuration at 120 kJ.
"""

from __future__ import annotations

from ..faults import DegradeRecovery, RecoveryPolicy
from .base import Framework, TrainSpec, WorkerLayout
from .costmodel import TFAGENTS_PROFILE

__all__ = ["TFAgentsLike"]


class TFAgentsLike(Framework):
    """TF-Agents-style single-node parallel execution."""

    name = "tfagents"
    supports_multi_node = False
    profile = TFAGENTS_PROFILE
    #: TF-Agents' stock PPO runs fewer optimizer epochs per batch
    ppo_defaults = {"n_epochs": 6}

    def recovery_policy(self, spec: TrainSpec, layout: WorkerLayout) -> RecoveryPolicy:
        """The parallel drivers block until their node returns (the run
        degrades: progress stalls for the downtime and killed work is
        re-executed); a crash with no scheduled restart aborts with the
        documented completion penalty."""
        return DegradeRecovery()
