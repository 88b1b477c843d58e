"""Distributed actor/learner back-end (the paper's Ray RLlib).

Structure reproduced from RLlib's synchronous-sampling PPO deployment:

* one environment worker per allocated core on every allocated node
  (``n_nodes × cores_per_node`` actors);
* the learner lives on node 0 and updates with all the node's cores;
* remote actors ship experience over the 1 GbE link and receive weight
  broadcasts, which pipeline with the learner update — the reason the
  2-node configurations post the best computation times in Table I;
* remote actors act with weights two updates old: at iteration ``k``
  they act on the learner's weights after update ``max(k − 2, 0)``. This
  genuine off-policy lag is what degrades the 2-node rewards relative to
  their 1-node twins (solutions 8 vs 7 in the paper: −0.73 vs −0.52).
"""

from __future__ import annotations

from ..faults import RecoveryPolicy, ReDispatchRecovery
from .base import Framework, TrainSpec, WorkerLayout
from .costmodel import RLLIB_PROFILE

__all__ = ["RLlibLike"]


class RLlibLike(Framework):
    """Ray-RLlib-style distributed execution."""

    name = "rllib"
    supports_multi_node = True
    profile = RLLIB_PROFILE

    def recovery_policy(self, spec: TrainSpec, layout: WorkerLayout) -> RecoveryPolicy:
        """Ray supervision: lost rollout workers are detected and their
        tasks re-dispatched to surviving allocated nodes; the learner
        restores from its last weight-sync checkpoint (one iteration
        overhead plus a round-trip of the weights over the link)."""
        nodes = sorted(set(layout.worker_nodes) | {layout.learner_node})
        restore_s = self.profile.iteration_overhead_s + 2.0 * self.cluster.link.transfer_time(
            self.cost_model.weights_bytes
        )
        return ReDispatchRecovery(nodes, restore_s=restore_s)

    def layout(self, spec: TrainSpec) -> WorkerLayout:
        worker_nodes: list[int] = []
        for node in range(spec.n_nodes):
            worker_nodes.extend([node] * spec.cores_per_node)
        return WorkerLayout(
            worker_nodes=tuple(worker_nodes),
            learner_node=0,
            stale_remote_policy=spec.n_nodes > 1,
            ships_experience=True,
        )
