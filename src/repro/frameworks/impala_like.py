"""IMPALA-like asynchronous actor-learner back-end (§II-A extension).

The paper's background motivates distributed RL with A3C, IMPALA and
Ape-X. This extension back-end reproduces the IMPALA architecture on the
simulated testbed, on RLlib's layout and supervision and through the
shared on-policy loop and DAG of :class:`~repro.frameworks.base.Framework`:

* actors on every allocated node, the learner's included, sample with
  weights that lag the learner by *two* update rounds (the defining
  IMPALA property: acting and learning are fully decoupled);
* the learner performs a **single** V-trace-corrected gradient pass per
  trajectory batch (no PPO epochs), making updates cheap;
* on the virtual cluster, actor sampling at iteration ``k`` depends only
  on the weight broadcast of iteration ``k−2`` — sampling and learning
  overlap, so the critical path is the *max* of the two phases rather
  than their sum.

The trade-off mirrors the paper's §VI-D observation taken further: better
hardware efficiency, more off-policy lag, lower final reward — quantified
in ``benchmarks/test_bench_impala.py``.
"""

from __future__ import annotations

from ..rl.vtrace import VTraceAgent, VTraceConfig
from .base import TrainSpec, WorkerLayout
from .costmodel import FrameworkCostProfile
from .rllib_like import RLlibLike

__all__ = ["ImpalaLike"]

#: IMPALA's graph-compiled learner and lighter per-step acting path
IMPALA_PROFILE = FrameworkCostProfile(
    step_overhead_s=38.0e-3,
    update_parallel_eff=0.85,
    iteration_overhead_s=0.15,
)


class ImpalaLike(RLlibLike):
    """IMPALA-style asynchronous distributed execution with V-trace."""

    name = "impala"
    profile = IMPALA_PROFILE

    #: in the DAG, actors wait for the weights of two updates back
    policy_lag = 2
    task_prefix = "impala_"
    update_task = "impala_update"
    #: IMPALA trains on small trajectory batches with a hotter learning
    #: rate than PPO (one gradient pass per batch instead of epochs)
    batch_divisor = 8
    ppo_defaults = {"learning_rate": 3e-3}

    def effective_batch(self, spec: TrainSpec) -> int:
        return max(64, spec.train_batch_size // self.batch_divisor)

    def validate(self, spec: TrainSpec) -> None:
        super().validate(spec)
        if spec.algorithm != "ppo":
            raise ValueError(
                "the IMPALA-like back-end implements its own V-trace actor-critic; "
                "request algorithm='ppo' (the on-policy slot) to use it"
            )

    def _acting_groups(self, layout: WorkerLayout) -> list[tuple[list[int], bool]]:
        """Every actor acts on the lagged weights, all in one call."""
        return [(list(range(layout.n_workers)), True)]

    def _envs_per_worker(self, spec: TrainSpec) -> int:
        """One env slot per actor; ``n_envs`` only picks the env that backs them."""
        return 1

    def _update_passes(self, spec: TrainSpec) -> int:
        return 1

    def _make_agent(self, spec: TrainSpec, obs_dim: int, act_dim: int) -> VTraceAgent:
        ppo = self.effective_ppo(spec)
        return VTraceAgent(
            obs_dim,
            act_dim,
            VTraceConfig(gamma=ppo.gamma, learning_rate=ppo.learning_rate),
            seed=self._seed(spec, "agent"),
        )
