"""IMPALA-like asynchronous actor-learner back-end (§II-A extension).

The paper's background motivates distributed RL with A3C, IMPALA and
Ape-X. This extension back-end reproduces the IMPALA architecture on the
simulated testbed:

* actors on every allocated node sample continuously with weights that
  lag the learner by *two* update rounds (the defining IMPALA property:
  acting and learning are fully decoupled);
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

from typing import Any, Callable

import numpy as np

from ..cluster import ClusterSimulator
from ..faults import RecoveryPolicy, ReDispatchRecovery
from ..obs import Telemetry
from ..rl.vtrace import VTraceAgent, VTraceConfig
from .base import CostPlan, EnvStepError, Framework, TrainResult, TrainSpec, WorkerLayout
from .base import _episode_score, _space_action_mapper
from .costmodel import FrameworkCostProfile

__all__ = ["ImpalaLike"]

#: IMPALA's graph-compiled learner and lighter per-step acting path
IMPALA_PROFILE = FrameworkCostProfile(
    step_overhead_s=38.0e-3,
    update_parallel_eff=0.85,
    iteration_overhead_s=0.15,
)


class ImpalaLike(Framework):
    """IMPALA-style asynchronous distributed execution with V-trace."""

    name = "impala"
    supports_multi_node = True
    profile = IMPALA_PROFILE

    #: how many update rounds the actors' weights lag the learner
    policy_lag = 2
    #: IMPALA trains on small trajectory batches with a hotter learning
    #: rate than PPO (one gradient pass per batch instead of epochs)
    batch_divisor = 8
    default_learning_rate = 3e-3

    def effective_batch(self, spec: TrainSpec) -> int:
        return max(64, spec.train_batch_size // self.batch_divisor)

    def layout(self, spec: TrainSpec) -> WorkerLayout:
        worker_nodes: list[int] = []
        for node in range(spec.n_nodes):
            worker_nodes.extend([node] * spec.cores_per_node)
        return WorkerLayout(
            worker_nodes=tuple(worker_nodes),
            learner_node=0,
            stale_remote_policy=True,
            ships_experience=True,
        )

    def validate(self, spec: TrainSpec) -> None:
        super().validate(spec)
        if spec.algorithm != "ppo":
            raise ValueError(
                "the IMPALA-like back-end implements its own V-trace actor-critic; "
                "request algorithm='ppo' (the on-policy slot) to use it"
            )

    def recovery_policy(self, spec: TrainSpec, layout: WorkerLayout) -> RecoveryPolicy:
        """IMPALA actors are supervised like RLlib's: re-dispatch to the
        surviving allocated nodes, restore the learner from its last
        broadcast weights."""
        nodes = sorted(set(layout.worker_nodes) | {layout.learner_node})
        restore_s = self.profile.iteration_overhead_s + 2.0 * self.cluster.link.transfer_time(
            self.cost_model.weights_bytes
        )
        return ReDispatchRecovery(nodes, restore_s=restore_s)

    def train(
        self,
        spec: TrainSpec,
        callback: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        self.validate(spec)
        return self._train_vtrace(spec, callback, telemetry)

    # --------------------------------------------------------------- loop
    def _train_vtrace(
        self,
        spec: TrainSpec,
        callback: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        n_workers = self.layout(spec).n_workers
        # one env slot per actor; n_envs only picks the env that backs them
        venv = self._env_batch(spec, n_workers)
        obs_batch, _ = venv.reset(seed=[self._seed(spec, f"env{i}") for i in range(n_workers)])
        obs_dim = int(np.prod(venv.single_observation_space.shape))
        act_dim = int(np.prod(venv.single_action_space.shape))
        map_action = _space_action_mapper(venv.single_action_space)

        from ..rl import PPOConfig

        lr = (
            self.default_learning_rate
            if spec.ppo == PPOConfig()
            else spec.ppo.learning_rate
        )
        agent = VTraceAgent(
            obs_dim,
            act_dim,
            VTraceConfig(gamma=spec.ppo.gamma, learning_rate=lr),
            seed=self._seed(spec, "agent"),
        )
        fragment = self._fragment(spec, n_workers)

        landings: list[float] = []
        curve: list[tuple[int, float]] = []

        # behaviour snapshots: a queue of past policy states
        snapshots = [agent.policy_state() for _ in range(self.policy_lag + 1)]

        steps_done = 0
        while steps_done < spec.total_steps:
            behaviour_state = snapshots[0]
            current_state = agent.policy_state()
            agent.load_policy_state(behaviour_state)

            T, N = fragment, n_workers
            obs_buf = np.zeros((T, N, obs_dim))
            act_buf = np.zeros((T, N, act_dim))
            rew_buf = np.zeros((T, N))
            term_buf = np.zeros((T, N))
            logp_buf = np.zeros((T, N))
            for t in range(T):
                out = agent.act(obs_batch)
                obs_buf[t] = obs_batch
                act_buf[t] = out["action"]
                logp_buf[t] = out["log_prob"]
                try:
                    obs_batch, rewards, terms, truncs, infos = venv.step(
                        map_action(out["action"])
                    )
                except Exception as exc:
                    raise EnvStepError(steps_done + t * N, exc) from exc
                done = terms | truncs
                rew_buf[t] = rewards
                term_buf[t] = done
                for i in np.flatnonzero(done):
                    landings.append(_episode_score(infos[i]))

            agent.load_policy_state(current_state)
            agent.update(obs_buf, act_buf, rew_buf, term_buf, logp_buf, obs_batch)
            snapshots.append(agent.policy_state())
            snapshots.pop(0)
            steps_done += T * N

            if landings:
                checkpoint = float(np.mean(landings[-40:]))
                curve.append((steps_done, checkpoint))
                if callback is not None and callback(steps_done, checkpoint):
                    break

        return self._finalize(spec, agent, landings, curve, steps_done, telemetry)

    def _plan_ppo(self, spec: TrainSpec, steps_done: int) -> CostPlan:
        """The on-policy slot runs V-trace: per iteration, one rollout task
        per actor, experience shipped from remote nodes, one serial
        learner pass and the weight broadcast the actors two iterations
        on wait for."""
        layout = self.layout(spec)
        groups = layout.groups()
        n_workers = layout.n_workers
        fragment = self._fragment(spec, n_workers)
        n_iterations = -(-steps_done // (fragment * n_workers))
        env_step_s = self._env_step_s(spec)

        def build(sim: ClusterSimulator) -> None:
            prev_updates: list[Any] = []
            prev_bcasts: list[dict[int, Any]] = []
            for iteration in range(n_iterations):
                # actors depend on the lag-2 broadcast only
                lag_index = iteration - self.policy_lag
                actor_tasks = []
                transfer_tasks = []
                for node, members in groups.items():
                    if lag_index >= 0:
                        if node == layout.learner_node:
                            deps = [prev_updates[lag_index]]
                        else:
                            deps = [prev_bcasts[lag_index][node]]
                    else:
                        deps = []
                    for i in members:
                        actor_tasks.append(
                            sim.task(
                                f"impala_rollout[{iteration}]w{i}",
                                node,
                                duration=fragment * env_step_s
                                / self.cluster.nodes[node].core_speed,
                                cores=1,
                                deps=deps,
                            )
                        )
                    if node != layout.learner_node:
                        node_tasks = [t for t in actor_tasks if t.node == node]
                        transfer_tasks.append(
                            sim.transfer(
                                f"impala_experience[{iteration}]n{node}",
                                node,
                                layout.learner_node,
                                n_bytes=len(members)
                                * fragment
                                * self.cost_model.transition_bytes,
                                deps=node_tasks,
                            )
                        )
                update_deps = [t for t in actor_tasks if t.node == layout.learner_node]
                update_deps += transfer_tasks
                if prev_updates:
                    update_deps.append(prev_updates[-1])  # the learner itself is serial
                update_task = sim.task(
                    f"impala_update[{iteration}]",
                    layout.learner_node,
                    duration=self.cost_model.ppo_update_s(
                        fragment * n_workers, 1, spec.cores_per_node, self.profile,
                        self.cluster.nodes[layout.learner_node].core_speed,
                    )
                    + self.profile.iteration_overhead_s,
                    cores=spec.cores_per_node,
                    deps=update_deps,
                )
                prev_updates.append(update_task)
                prev_bcasts.append(
                    {
                        node: sim.transfer(
                            f"impala_weights[{iteration}]n{node}",
                            layout.learner_node,
                            node,
                            n_bytes=self.cost_model.weights_bytes,
                            deps=[update_task],
                        )
                        for node in groups
                        if node != layout.learner_node
                    }
                )

        return CostPlan(spec, n_iterations * fragment * n_workers, build)
