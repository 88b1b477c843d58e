"""Framework back-ends: the common training machinery.

The paper compares three frameworks (Ray RLlib, Stable Baselines,
TF-Agents) that share algorithms but differ *structurally*:

* where environment workers run (how many nodes, how many per node);
* whether experience and weights cross the network;
* how fresh the acting policy is on remote workers (RLlib's distributed
  actors sample with slightly stale weights — the §VI-D reproducibility
  effect);
* per-step and per-update efficiency constants.

:class:`Framework` implements the on-policy actor-learner loop (PPO's
and V-trace's) and SAC's loop once, parameterized by a
:class:`WorkerLayout` and a few per-back-end hooks.
The *learning* runs for real on the host (scaled step budget). What a run
costs on the paper's testbed does not depend on what it learns: it is a
:class:`CostPlan`, a pure function of the configuration and of how many
env steps ran (:meth:`Framework.plan`), which the discrete-event cluster
simulator prices into the virtual Computation Time and the energy the
methodology's metrics consume (:meth:`Framework.price`). ``train`` prices
the plan of the steps it actually ran.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..airdrop.integrators import get_integrator
from ..obs import Telemetry
from ..cluster import (
    ClusterSimulator,
    ClusterSpec,
    CPUPowerModel,
    Trace,
    energy_from_trace,
    paper_testbed,
)
from ..envs import SyncVectorEnv, VectorEnv, make, make_vec
from ..faults import (
    ClusterFaultError,
    FailFastRecovery,
    FaultPlan,
    RecoveryPolicy,
)
from ..rl import PPOAgent, PPOConfig, SACAgent, SACConfig, VTraceAgent
from .costmodel import CostModel, FrameworkCostProfile

__all__ = [
    "TrainSpec", "TrainResult", "WorkerLayout", "CostPlan", "Cost", "Framework", "EnvStepError",
]

#: env steps per SAC block: one sampling task (and one update task) of
#: the virtual DAG, one telemetry rollout span, one learning-curve point
SAC_BLOCK = 100


class EnvStepError(RuntimeError):
    """The environment raised mid-episode during training.

    Wraps the original exception so campaigns record a structured trial
    failure with the offending step count in ``extras`` instead of a bare
    traceback killing an executor worker. The original message is kept in
    ours so error-matching on it (and on ``RuntimeError``) still works.

    ``env_step`` is the global index of the failing transition:
    ``first_step``, the index of the failing env call's first transition,
    plus the slot that raised when the env batch names it. A
    :class:`~repro.envs.SyncVectorEnv` does (it tags the exception with
    ``env_index``); a natively batched env steps every row in one
    computation, cannot name a row, and reports the call's first
    transition.
    """

    def __init__(self, first_step: int, cause: BaseException) -> None:
        env_step = first_step + getattr(cause, "env_index", 0)
        super().__init__(f"env step {env_step} failed: {cause}")
        self.extras = {
            "env_step": int(env_step),
            "failure_stage": "env_step",
            "env_error": type(cause).__name__,
        }


@dataclass(frozen=True)
class TrainSpec:
    """One learning configuration to execute (a Table I row)."""

    algorithm: str = "ppo"              # "ppo" | "sac"
    n_nodes: int = 1
    cores_per_node: int = 4
    seed: int = 0
    env_id: str = "Airdrop-v0"
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    #: real environment steps executed on the host (scaled budget)
    total_steps: int = 20_000
    #: the budget the virtual clock reports at (the paper's 200k)
    paper_steps: int = 200_000
    #: PPO samples per update, split across workers (RLlib's
    #: ``train_batch_size`` semantics — the update count stays constant
    #: when the worker count changes)
    train_batch_size: int = 1024
    eval_episodes: int = 30
    #: episodes stepped per env call by each rollout worker (1 steps one
    #: scalar env per worker; wider batches step the registered native
    #: batched env, see :meth:`Framework._env_batch`)
    n_envs: int = 1
    ppo: PPOConfig = field(default_factory=PPOConfig)
    sac: SACConfig = field(default_factory=SACConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in ("ppo", "sac"):
            raise ValueError("algorithm must be 'ppo' or 'sac'")
        if self.n_nodes < 1 or self.cores_per_node < 1:
            raise ValueError("n_nodes and cores_per_node must be >= 1")
        if self.total_steps < 1 or self.paper_steps < 1:
            raise ValueError("step budgets must be positive")
        if self.train_batch_size < 1:
            raise ValueError("train_batch_size must be positive")
        if self.n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")

    @property
    def rk_order(self) -> int:
        return int(self.env_kwargs.get("rk_order", 5))

    def scaled(self, total_steps: int) -> "TrainSpec":
        """The same configuration with a different real step budget."""
        return replace(self, total_steps=int(total_steps))


@dataclass
class Cost:
    """A priced :class:`CostPlan`: the paper's two cost metrics at
    ``spec.paper_steps`` and the virtual schedule they come from."""

    trace: Trace
    #: virtual wall time at paper scale (seconds)
    computation_time_s: float
    #: energy at paper scale (kilojoules)
    energy_kj: float
    diagnostics: dict[str, float] = field(default_factory=dict)
    #: extra virtual seconds vs. the fault-free run of the same DAG
    recovery_overhead_s: float = 0.0
    #: env-step equivalents of virtual work discarded by faults (paper scale)
    work_lost_steps: float = 0.0
    #: fraction of the virtual work completed (1.0 unless the run aborted)
    completion_under_faults: float = 1.0
    #: :meth:`repro.faults.FaultStats.to_dict` of the faulted run, if any
    fault_stats: dict[str, Any] | None = None

    @property
    def computation_time_min(self) -> float:
        return self.computation_time_s / 60.0


@dataclass(kw_only=True)
class TrainResult(Cost):
    """Everything one training run produces: the :class:`Cost` of the
    steps it ran, and what it learned."""

    framework: str
    spec: TrainSpec
    #: the paper's Reward metric: mean landing score over the last
    #: training episodes (the reward the learning run itself collects)
    reward: float
    #: deterministic post-training evaluation (diagnostic)
    eval_reward: float
    #: (real env steps, mean recent landing) checkpoints
    learning_curve: list[tuple[int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class WorkerLayout:
    """How a framework places environment workers on the cluster.

    ``worker_nodes[i]`` is the node index running worker ``i``; workers
    off the learner's node are *remote* (their experience crosses the
    link and, when ``stale_remote_policy``, they act with the weights of
    two updates earlier).
    """

    worker_nodes: tuple[int, ...]
    learner_node: int = 0
    stale_remote_policy: bool = False
    ships_experience: bool = False

    @property
    def n_workers(self) -> int:
        return len(self.worker_nodes)

    def groups(self) -> dict[int, list[int]]:
        """Map node index → worker indices on that node."""
        out: dict[int, list[int]] = {}
        for worker, node in enumerate(self.worker_nodes):
            out.setdefault(node, []).append(worker)
        return out


@dataclass(frozen=True)
class CostPlan:
    """The virtual DAG of one run, known before anything is learned.

    ``build`` submits the run's tasks and transfers to whatever
    :class:`~repro.cluster.ClusterSimulator` it is given, in the same
    order every time, so a plan replays identically on a clean and on a
    faulted simulator.
    """

    spec: TrainSpec
    #: env steps the run covers (whole on-policy iterations)
    steps: int
    build: Callable[[ClusterSimulator], None]


def _space_action_mapper(space: Any):
    """Map the policy's ``[-1, 1]`` outputs onto a Box space's bounds.

    The agents always emit unit-scaled actions; environments may use other
    ranges (e.g. the pendulum's ±2 N·m torque). Unbounded dimensions pass
    through unchanged. Elementwise, so applying it to a batch of actions
    equals applying it row by row.
    """
    low = np.asarray(getattr(space, "low", -1.0), dtype=np.float64)
    high = np.asarray(getattr(space, "high", 1.0), dtype=np.float64)
    bounded = np.isfinite(low) & np.isfinite(high)
    low_b = np.where(bounded, low, -1.0)
    span = np.where(bounded, high, 1.0) - low_b
    all_bounded = bool(bounded.all())

    def mapper(action: np.ndarray) -> np.ndarray:
        # the ufuncs np.clip ends in, called directly: it runs once per env
        # step, and its Python dispatch layers cost more than the arithmetic
        unit = np.minimum(np.maximum(np.asarray(action, dtype=np.float64), -1.0), 1.0)
        scaled = low_b + (unit + 1.0) * 0.5 * span
        return scaled if all_bounded else np.where(bounded, scaled, unit)

    return mapper


def _episode_score(info: dict) -> float:
    """Quality of the episode an auto-reset ``info`` closes: the landing
    score for the airdrop study, the plain episode return for any other
    environment."""
    return float(info.get("landing_score", info["episode"]["r"]))


class Framework:
    """Base class for the three framework back-ends."""

    #: human-readable framework name (subclasses override)
    name: str = "framework"
    #: whether the back-end can spread workers over several nodes
    supports_multi_node: bool = False
    #: cost constants of the back-end
    profile: FrameworkCostProfile

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        cost_model: CostModel | None = None,
        power_model: CPUPowerModel | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.cluster = cluster or paper_testbed(2)
        self.cost_model = cost_model or CostModel()
        self.power_model = power_model or CPUPowerModel()
        self.fault_plan = fault_plan

    #: framework-default PPO overrides, applied only when the spec carries
    #: the stock :class:`PPOConfig` (real frameworks ship different
    #: defaults — TF-Agents runs fewer SGD epochs, RLlib trains on larger
    #: batches — and the paper ran each framework at its defaults)
    ppo_defaults: dict[str, Any] = {}
    #: multiplier on the spec's train batch (RLlib defaults to larger
    #: train batches than the single-node frameworks)
    batch_multiplier: int = 1
    #: in the on-policy DAG, rollout ``k`` waits for the weights of update
    #: ``k - policy_lag``. The training loop's lagged groups act on the
    #: weights of two updates earlier whatever this says.
    policy_lag: int = 1
    #: prefix of the on-policy DAG's rollout, experience and weights task
    #: names, and the name of its update task. ``FaultSchedule`` hashes
    #: task names, so a rename moves faulted costs.
    task_prefix: str = ""
    update_task: str = "ppo_update"

    # ------------------------------------------------------------- layout
    def layout(self, spec: TrainSpec) -> WorkerLayout:
        """Worker placement for ``spec``: by default one worker per
        allocated core, all on node 0 beside the learner."""
        return WorkerLayout(worker_nodes=tuple([0] * spec.cores_per_node))

    def _acting_groups(self, layout: WorkerLayout) -> list[tuple[list[int], bool]]:
        """The on-policy loop's act calls: the workers each call covers,
        and whether they act on the lagged weights. One call per node
        group; the remote groups lag when ``layout.stale_remote_policy``
        is set."""
        return [
            (members, layout.stale_remote_policy and node != layout.learner_node)
            for node, members in layout.groups().items()
        ]

    def _envs_per_worker(self, spec: TrainSpec) -> int:
        """Env slots each on-policy worker steps per env call."""
        return spec.n_envs

    def _update_passes(self, spec: TrainSpec) -> int:
        """Passes over each on-policy batch the DAG's update pays for."""
        return self.effective_ppo(spec).n_epochs

    def _make_agent(
        self, spec: TrainSpec, obs_dim: int, act_dim: int
    ) -> PPOAgent | VTraceAgent:
        """The on-policy learner: PPO at this back-end's defaults."""
        return PPOAgent(obs_dim, act_dim, self.effective_ppo(spec), seed=self._seed(spec, "agent"))

    def effective_ppo(self, spec: TrainSpec) -> PPOConfig:
        """The PPO configuration this back-end actually runs.

        Framework defaults apply only when the user left the stock config;
        an explicit config is honoured verbatim.
        """
        if spec.ppo == PPOConfig() and self.ppo_defaults:
            return replace(spec.ppo, **self.ppo_defaults)
        return spec.ppo

    def effective_batch(self, spec: TrainSpec) -> int:
        return spec.train_batch_size * self.batch_multiplier

    def _seed(self, spec: TrainSpec, stream: str) -> int:
        """Deterministic per-(framework, spec-seed, stream) seed."""
        key = f"{self.name}/{spec.seed}/{stream}".encode()
        return zlib.crc32(key) & 0x7FFFFFFF

    def validate(self, spec: TrainSpec) -> None:
        if spec.n_nodes > 1 and not self.supports_multi_node:
            raise ValueError(
                f"{self.name} parallelizes on a single node; n_nodes={spec.n_nodes} "
                "is only supported by the distributed (RLlib-like) back-end"
            )
        if spec.n_nodes > self.cluster.n_nodes:
            raise ValueError(
                f"configuration wants {spec.n_nodes} nodes but the cluster has "
                f"{self.cluster.n_nodes}"
            )
        for node in range(spec.n_nodes):
            if spec.cores_per_node > self.cluster.nodes[node].n_cores:
                raise ValueError(
                    f"configuration wants {spec.cores_per_node} cores but node "
                    f"{node} has {self.cluster.nodes[node].n_cores}"
                )

    # --------------------------------------------------------------- cost
    def plan(self, spec: TrainSpec, steps_done: int) -> CostPlan:
        """The virtual DAG of ``spec``'s run over ``steps_done`` env steps.

        A pure function of the configuration and the step count: no env
        is built and nothing is learned, so what a configuration costs is
        known before it is trained. A run stops only between on-policy
        iterations or SAC blocks, so the plan of the steps a run executed
        is its DAG exactly. ``steps_done`` rounds up to whole iterations:
        ``plan(spec, spec.total_steps)`` is the plan of a run that is not
        stopped early.
        """
        self.validate(spec)
        if steps_done < 1:
            raise ValueError("steps_done must be >= 1")
        if spec.algorithm == "ppo":
            return self._plan_on_policy(spec, steps_done)
        return self._plan_sac(spec, steps_done)

    def price(self, plan: CostPlan) -> Cost:
        """Run ``plan`` on the virtual testbed and scale its makespan and
        energy from ``plan.steps`` to ``spec.paper_steps``.

        Under an active fault plan the faulted schedule is charged: an
        aborted run pays twice the fault-free time and keeps its partial
        completion fraction, unless the recovery policy raises
        :class:`~repro.faults.ClusterFaultError` instead.
        """
        spec = plan.spec
        layout = self.layout(spec)
        trace, fault_report = self._run_virtual(spec, layout, plan.build)
        scale = spec.paper_steps / plan.steps
        nodes_used = sorted(
            set(layout.worker_nodes) | {layout.learner_node} | {t.node for t in trace.tasks}
        )
        energy = energy_from_trace(
            trace, self.cluster, self.power_model, nodes_allocated=nodes_used
        )
        diagnostics = {
            "real_steps": float(plan.steps),
            "scale": float(scale),
            "makespan_unscaled_s": trace.makespan,
            "mean_power_w": energy.mean_power_w,
            "bytes_transferred": trace.bytes_transferred(),
        }

        makespan = trace.makespan
        recovery_overhead_s = 0.0
        work_lost_steps = 0.0
        completion = 1.0
        fault_stats: dict[str, Any] | None = None
        if fault_report is not None:
            stats = fault_report["stats"]
            clean = float(fault_report["clean_makespan_s"])
            if stats.aborted:
                # documented penalty: an aborted run is charged twice the
                # fault-free time and keeps its partial completion fraction
                makespan = 2.0 * clean
                completion = stats.completed_fraction
            recovery_overhead_s = max(0.0, makespan - clean) * scale
            env_step_s = self._env_step_s(spec)
            if env_step_s > 0.0:
                work_lost_steps = stats.work_lost_s / env_step_s * scale
            fault_stats = stats.to_dict()
            diagnostics.update(
                {
                    "fault_events": float(stats.n_events),
                    "tasks_killed": float(stats.n_killed),
                    "tasks_redispatched": float(stats.n_redispatched),
                    "task_failures": float(stats.n_task_failures),
                    "fault_work_lost_s": float(stats.work_lost_s),
                    "clean_makespan_s": clean,
                }
            )
        return Cost(
            trace=trace,
            computation_time_s=makespan * scale,
            energy_kj=energy.total_kilojoules * scale,
            diagnostics=diagnostics,
            recovery_overhead_s=recovery_overhead_s,
            work_lost_steps=work_lost_steps,
            completion_under_faults=completion,
            fault_stats=fault_stats,
        )

    def _env_step_s(self, spec: TrainSpec) -> float:
        """Virtual cost of one env step: the back-end's overhead plus one
        RHS evaluation per stage of the ``spec.rk_order`` tableau."""
        n_stages = get_integrator(spec.rk_order).n_stages
        return self.cost_model.env_step_s(n_stages, self.profile)

    def _fragment(self, spec: TrainSpec, n_slots: int) -> int:
        """Env steps each of ``n_slots`` slots samples per iteration."""
        return max(32, self.effective_batch(spec) // n_slots)

    # ------------------------------------------------------------- faults
    def recovery_policy(self, spec: TrainSpec, layout: WorkerLayout) -> RecoveryPolicy:
        """How this back-end reacts when the virtual cluster breaks.

        The default is fail-fast; back-ends with a supervisor override.
        """
        return FailFastRecovery()

    def _run_virtual(
        self,
        spec: TrainSpec,
        layout: WorkerLayout,
        build: Callable[[ClusterSimulator], None],
    ) -> tuple[Trace, dict[str, Any] | None]:
        """Execute the virtual DAG — twice when a fault plan is active.

        ``build`` submits the identical DAG to whatever simulator it is
        given. The fault-free run always executes (it defines the
        baseline for recovery overhead and is byte-identical to the
        historical path); under a non-empty plan the same DAG replays on
        a faulted simulator with this back-end's recovery policy, and the
        faulted trace becomes the run's schedule.
        """
        sim = ClusterSimulator(self.cluster)
        build(sim)
        clean = sim.run()
        plan = self.fault_plan
        if plan is None or plan.is_empty:
            return clean, None
        policy = self.recovery_policy(spec, layout)
        faulted = ClusterSimulator(self.cluster, faults=plan, recovery=policy)
        build(faulted)
        trace = faulted.run()
        stats = faulted.stats
        assert stats is not None
        if stats.aborted and policy.on_abort == "raise":
            raise ClusterFaultError(
                f"virtual cluster fault aborted the run: {stats.abort_reason}",
                extras={
                    "abort_time_s": round(stats.abort_time, 6),
                    "abort_reason": stats.abort_reason,
                    "recovery_policy": policy.name,
                    "failure_stage": "cluster_fault",
                },
            )
        report = {
            "clean_makespan_s": clean.makespan,
            "policy": policy.name,
            "stats": stats,
        }
        return trace, report

    # -------------------------------------------------------------- train
    def train(
        self,
        spec: TrainSpec,
        callback: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        """Execute one learning configuration end to end.

        ``callback(real_steps, recent_reward)`` is invoked at every
        learning-curve checkpoint; returning ``True`` stops the run early
        (the pruning hook of §III-C). ``telemetry`` (optional) receives
        phase spans (rollout / update / weight_sync), per-trial meters
        and the cluster simulator's virtual-time spans.
        """
        self.validate(spec)
        telemetry = Telemetry.or_null(telemetry)
        if spec.algorithm == "ppo":
            return self._train_on_policy(spec, callback, telemetry)
        return self._train_sac(spec, callback, telemetry)

    @staticmethod
    def _env_batch(spec: TrainSpec, n: int) -> VectorEnv:
        """The ``n`` env slots one training or evaluation loop steps.

        Every loop is written once against the vector-env contract,
        :class:`~repro.envs.VectorEnv`, and ``spec.n_envs`` picks only
        the front behind it. At ``n_envs > 1`` the slots come from
        :func:`~repro.envs.make_vec`, the registered native batched env
        when there is one. At ``n_envs == 1`` each slot is one
        :func:`~repro.envs.make` env inside a
        :class:`~repro.envs.SyncVectorEnv`, so ``Airdrop-v0`` steps every
        episode as a ``(9,)`` state row of the shared model, whose
        arithmetic runs on numpy scalars: SAC's one slot costs about a
        third of a ``(1, 9)`` batch, and the single-env workload keeps
        stepping ``AirdropEnv`` as the benchmarks expect.
        """
        if spec.n_envs > 1:
            return make_vec(spec.env_id, n, **spec.env_kwargs)
        return SyncVectorEnv([lambda: make(spec.env_id, **spec.env_kwargs)] * n)

    # ---------------------------------------------------------- on-policy
    def _train_on_policy(
        self,
        spec: TrainSpec,
        callback: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        """The on-policy actor-learner loop: PPO, or V-trace on IMPALA.

        Every worker of the layout steps :meth:`_envs_per_worker`
        episodes per env call, and one env batch covers all worker slots
        (slot ``w * n_envs + j`` is worker ``w``'s ``j``-th episode).
        Each step makes one act call per group of
        :meth:`_acting_groups`. At iteration ``k`` the lagged groups act
        on the weights of update ``max(k - 2, 0)``, the others on the
        learner's current weights; the agent swaps weights only when
        consecutive groups differ. Finished episodes join the learning
        curve in slot order.

        The agent's buffer says who bootstraps. PPO's rollout buffer
        takes a truncated episode's final value from the weights of the
        last group that acted, and each group's last values from its own
        weights. V-trace's buffer ends a truncated trajectory like a
        terminated one, and its learner values the observations after
        the segment inside the update.
        """
        telem = Telemetry.or_null(telemetry)
        meters = telem.trial_meters
        layout = self.layout(spec)
        n_workers = layout.n_workers
        n_envs = self._envs_per_worker(spec)
        total = n_workers * n_envs
        venv = self._env_batch(spec, total)
        seeds = [
            self._seed(spec, f"env{w}" if j == 0 else f"env{w}.{j}")
            for w in range(n_workers)
            for j in range(n_envs)
        ]
        obs_batch, _ = venv.reset(seed=seeds)
        obs_dim = int(np.prod(venv.single_observation_space.shape))
        act_dim = int(np.prod(venv.single_action_space.shape))
        map_action = _space_action_mapper(venv.single_action_space)
        slot_groups = [
            ([w * n_envs + j for w in workers for j in range(n_envs)], lags)
            for workers, lags in self._acting_groups(layout)
        ]

        agent = self._make_agent(spec, obs_dim, act_dim)
        fragment = self._fragment(spec, total)
        buffer = agent.make_buffer(fragment, total)
        bootstraps = buffer.bootstraps

        landings: list[float] = []
        curve: list[tuple[int, float]] = []

        # The lagged groups act on `stale_state`: after each update the
        # snapshot that was fresh becomes stale, so it is two updates old.
        fresh_state = stale_state = agent.policy_state()
        held = fresh_state  # the snapshot whose weights the agent holds

        def hold(state: dict[str, np.ndarray]) -> None:
            nonlocal held
            if state is not held:
                agent.load_policy_state(state)
                held = state

        steps_done = 0
        iteration = 0
        while steps_done < spec.total_steps:
            with telem.span("rollout", iteration=iteration) as rollout_span:
                buffer.reset()
                current_state = held = agent.policy_state()
                acting = [
                    (slots, stale_state if lags else current_state)
                    for slots, lags in slot_groups
                ]
                for t in range(fragment):
                    actions = np.zeros((total, act_dim))
                    log_probs = np.zeros(total)
                    values = np.zeros(total)
                    for slots, state in acting:
                        hold(state)
                        out = agent.act(obs_batch[slots])
                        actions[slots] = out["action"]
                        log_probs[slots] = out["log_prob"]
                        values[slots] = out["value"]
                    try:
                        next_obs, rewards, terms, truncs, infos = venv.step(
                            map_action(actions)
                        )
                    except Exception as exc:
                        raise EnvStepError(steps_done + t * total, exc) from exc
                    boots = np.zeros(total)
                    for i in np.flatnonzero(terms | truncs):
                        info = infos[i]
                        landings.append(_episode_score(info))
                        if bootstraps and truncs[i] and not terms[i]:
                            boots[i] = agent.value(info["final_observation"][None])[0]
                    buffer.add(
                        obs_batch, actions, log_probs, rewards, values, terms, truncs, boots
                    )
                    obs_batch = next_obs
                if bootstraps:
                    last_values = np.zeros(total)
                    for slots, state in acting:
                        hold(state)
                        last_values[slots] = agent.value(obs_batch[slots])
                    buffer.finish(last_values)
                else:
                    buffer.finish(obs_batch)

            with telem.span("weight_sync", iteration=iteration):
                hold(current_state)
                stale_state = fresh_state
                fresh_state = current_state

            with telem.span("update", iteration=iteration) as update_span:
                agent.update(buffer)
            steps_done += fragment * total
            if telem.enabled:
                meters.histogram("ppo/rollout_s").observe(rollout_span.duration)
                meters.histogram("ppo/update_s").observe(update_span.duration)
                meters.counter("env_steps").inc(fragment * total)
                meters.counter("updates").inc()

            iteration += 1
            if landings:
                checkpoint = float(np.mean(landings[-40:]))
                curve.append((steps_done, checkpoint))
                if callback is not None and callback(steps_done, checkpoint):
                    break

        return self._finalize(spec, agent, landings, curve, steps_done, telem)

    def _plan_on_policy(self, spec: TrainSpec, steps_done: int) -> CostPlan:
        """The on-policy DAG: per iteration, one rollout task per worker
        (each worker samples ``fragment`` steps of its episodes),
        experience shipped from remote nodes, the learner's update, and
        the weight broadcast to every remote node. Rollout ``k`` waits
        for the weights of update ``k - policy_lag``; beyond a lag of
        one, update ``k - 1`` is no longer upstream of update ``k``'s
        actors, so the learner's serial order becomes a dependency of
        its own."""
        layout = self.layout(spec)
        groups = layout.groups()
        n_workers = layout.n_workers
        envs_per_worker = self._envs_per_worker(spec)
        fragment = self._fragment(spec, n_workers * envs_per_worker)
        batch = fragment * n_workers * envs_per_worker
        n_iterations = -(-steps_done // batch)
        env_step_s = self._env_step_s(spec)
        n_passes = self._update_passes(spec)
        learner = layout.learner_node
        lag = self.policy_lag
        prefix = self.task_prefix

        def build(sim: ClusterSimulator) -> None:
            updates: list[Any] = []
            bcasts: list[dict[int, Any]] = []
            for iteration in range(n_iterations):
                actor_tasks = []
                transfer_tasks = []
                for node, members in groups.items():
                    if iteration < lag:
                        deps = []
                    elif node == learner:
                        deps = [updates[iteration - lag]]
                    else:
                        deps = [bcasts[iteration - lag][node]]
                    for i in members:
                        actor_tasks.append(
                            sim.task(
                                f"{prefix}rollout[{iteration}]w{i}",
                                node,
                                duration=fragment * envs_per_worker * env_step_s
                                / self.cluster.nodes[node].core_speed,
                                cores=1,
                                deps=deps,
                            )
                        )
                    if layout.ships_experience and node != learner:
                        node_tasks = [t for t in actor_tasks if t.node == node]
                        transfer_tasks.append(
                            sim.transfer(
                                f"{prefix}experience[{iteration}]n{node}",
                                node,
                                learner,
                                n_bytes=len(members)
                                * fragment
                                * envs_per_worker
                                * self.cost_model.transition_bytes,
                                deps=node_tasks,
                            )
                        )
                update_deps = [t for t in actor_tasks if t.node == learner] + transfer_tasks
                if not update_deps:
                    update_deps = actor_tasks
                if lag > 1 and updates:
                    update_deps.append(updates[-1])
                update_task = sim.task(
                    f"{self.update_task}[{iteration}]",
                    learner,
                    duration=self.cost_model.ppo_update_s(
                        batch,
                        n_passes,
                        spec.cores_per_node,
                        self.profile,
                        self.cluster.nodes[learner].core_speed,
                    )
                    + self.profile.iteration_overhead_s,
                    cores=spec.cores_per_node,
                    deps=update_deps,
                )
                updates.append(update_task)
                bcasts.append(
                    {
                        node: sim.transfer(
                            f"{prefix}weights[{iteration}]n{node}",
                            learner,
                            node,
                            n_bytes=self.cost_model.weights_bytes,
                            deps=[update_task],
                        )
                        for node in groups
                        if node != learner
                    }
                )

        return CostPlan(spec, n_iterations * batch, build)

    # ---------------------------------------------------------------- SAC
    def _train_sac(
        self,
        spec: TrainSpec,
        callback: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        """SAC: one sampler steps ``spec.n_envs`` episodes per env call.

        The transitions of a call are fed to the agent row by row in slot
        order, each ``observe`` followed by the update it makes due, so
        observing and updating interleave one transition at a time at any
        width. Rows stepped past ``total_steps`` within the final call are
        discarded: the consumed step budget does not depend on the width.
        """
        telem = Telemetry.or_null(telemetry)
        meters = telem.trial_meters
        n_envs = spec.n_envs
        venv = self._env_batch(spec, n_envs)
        obs_dim = int(np.prod(venv.single_observation_space.shape))
        act_dim = int(np.prod(venv.single_action_space.shape))
        agent = SACAgent(obs_dim, act_dim, spec.sac, seed=self._seed(spec, "agent"))

        landings: list[float] = []
        curve: list[tuple[int, float]] = []

        seeds = [
            self._seed(spec, "env" if j == 0 else f"env.{j}") for j in range(n_envs)
        ]
        obs, _ = venv.reset(seed=seeds)
        map_action = _space_action_mapper(venv.single_action_space)
        steps_done = 0
        block_start = 0
        iteration = 0
        # SAC interleaves acting and updating step by step, too finely to
        # wrap phases lexically: each block becomes one "rollout" span and
        # the block's accumulated update time one coalesced "update" child.
        telem_on = telem.enabled
        # repro-lint: disable=RPR002 -- real-time span timing for telemetry only; spans land in volatile extras that table_fingerprint strips
        clock = time.perf_counter
        block_t0 = clock()
        update_acc = 0.0
        stop = False
        while steps_done < spec.total_steps and not stop:
            out = agent.act(obs)
            actions = np.clip(out["action"], -1.0, 1.0)
            try:
                next_obs, rewards, terms, truncs, infos = venv.step(map_action(actions))
            except Exception as exc:
                raise EnvStepError(steps_done, exc) from exc
            for i in range(n_envs):
                info = infos[i]
                done = bool(terms[i]) or bool(truncs[i])
                terminal_obs = info["final_observation"] if done else next_obs[i]
                agent.observe(
                    obs[i], actions[i], float(rewards[i]), terminal_obs, bool(terms[i])
                )
                if done:
                    landings.append(_episode_score(info))
                steps_done += 1
                if agent.ready_to_update():
                    if telem_on:
                        update_t0 = clock()
                        agent.update()
                        update_acc += clock() - update_t0
                    else:
                        agent.update()

                if steps_done - block_start >= SAC_BLOCK or steps_done >= spec.total_steps:
                    if telem_on:
                        n_steps = steps_done - block_start
                        now = clock()
                        rollout_span = telem.tracer.record(
                            "rollout", block_t0, now, iteration=iteration, steps=n_steps
                        )
                        if update_acc > 0.0:
                            telem.tracer.record(
                                "update",
                                now - update_acc,
                                now,
                                parent_id=rollout_span.span_id,
                                iteration=iteration,
                            )
                            meters.histogram("sac/update_s").observe(update_acc)
                        meters.histogram("sac/block_s").observe(now - block_t0)
                        meters.counter("env_steps").inc(n_steps)
                        meters.counter("updates").inc(
                            spec.sac.updates_between(block_start, steps_done)
                        )
                        block_t0 = now
                        update_acc = 0.0
                    block_start = steps_done
                    iteration += 1
                    if landings:
                        checkpoint = float(np.mean(landings[-40:]))
                        curve.append((steps_done, checkpoint))
                        if callback is not None and callback(steps_done, checkpoint):
                            stop = True
                if steps_done >= spec.total_steps or stop:
                    break
            obs = next_obs

        return self._finalize(spec, agent, landings, curve, steps_done, telem)

    def _plan_sac(self, spec: TrainSpec, steps_done: int) -> CostPlan:
        """SAC's DAG: per :data:`SAC_BLOCK` env steps, one sampling task on
        the last node, its experience shipped to the learner when they
        differ, and one task for the block's gradient updates
        (:meth:`~repro.rl.SACConfig.updates_between`)."""
        layout = self.layout(spec)
        sampler_node = max(layout.groups())  # sampling lives on the last node
        learner = layout.learner_node
        env_step_s = self._env_step_s(spec)

        def build(sim: ClusterSimulator) -> None:
            prev_task = None
            for iteration, start in enumerate(range(0, steps_done, SAC_BLOCK)):
                n_steps = min(SAC_BLOCK, steps_done - start)
                block_updates = spec.sac.updates_between(start, start + n_steps)
                sample_task = sim.task(
                    f"sac_sample[{iteration}]",
                    sampler_node,
                    duration=n_steps * env_step_s
                    / self.cluster.nodes[sampler_node].core_speed,
                    cores=1,
                    deps=[prev_task] if prev_task else [],
                )
                deps: list[Any] = [sample_task]
                if layout.ships_experience and sampler_node != learner:
                    deps = [
                        sim.transfer(
                            f"sac_experience[{iteration}]",
                            sampler_node,
                            learner,
                            n_bytes=n_steps * self.cost_model.transition_bytes,
                            deps=[sample_task],
                        )
                    ]
                if block_updates:
                    prev_task = sim.task(
                        f"sac_update[{iteration}]",
                        learner,
                        duration=self.cost_model.sac_updates_s(
                            block_updates,
                            spec.cores_per_node,
                            self.profile,
                            self.cluster.nodes[learner].core_speed,
                        ),
                        cores=spec.cores_per_node,
                        deps=deps,
                    )
                else:
                    prev_task = sample_task

        return CostPlan(spec, steps_done, build)

    # ------------------------------------------------------------ shared
    def _finalize(
        self,
        spec: TrainSpec,
        agent: PPOAgent | VTraceAgent | SACAgent,
        landings: list[float],
        curve: list[tuple[int, float]],
        steps_done: int,
        telemetry: Telemetry | None = None,
    ) -> TrainResult:
        """Price the plan of the ``steps_done`` steps the loop ran, then
        evaluate the agent and assemble the result."""
        cost = self.price(self.plan(spec, steps_done))
        telem = Telemetry.or_null(telemetry)
        if telem.enabled:
            telem.emit_records(
                cost.trace.to_records(framework=self.name, algorithm=spec.algorithm)
            )
            meters = telem.trial_meters
            meters.counter("episodes").inc(len(landings))
            meters.gauge("virtual_makespan_s").set(cost.trace.makespan)
            meters.gauge("bytes_transferred").set(cost.trace.bytes_transferred())
        with telem.span("evaluate", episodes=spec.eval_episodes):
            eval_reward = self._evaluate(spec, agent)
        diagnostics = {"episodes": float(len(landings)), **cost.diagnostics}
        return TrainResult(
            **(vars(cost) | {"diagnostics": diagnostics}),
            framework=self.name,
            spec=spec,
            reward=float(np.mean(landings[-50:])) if landings else -10.0,
            eval_reward=eval_reward,
            learning_curve=curve,
        )

    def _evaluate(self, spec: TrainSpec, agent: PPOAgent | VTraceAgent | SACAgent) -> float:
        """Deterministic post-training evaluation: the mean
        :func:`_episode_score` of ``spec.eval_episodes`` episodes, episode
        ``e`` seeded ``1_000_000 + e``.

        Every episode runs in one wave on one env batch, whatever the
        front :meth:`_env_batch` builds. The wave steps exactly its
        unfinished episodes: each env step makes one ``act`` call over
        them, and an episode that ends is scored and leaves the batch
        (:meth:`~repro.envs.VectorEnv.drop`). Deterministic acting draws
        no randomness and is row-exact (:meth:`repro.rl.nn.MLP.forward_rows`),
        and a kept slot steps on as it would beside the dropped ones, so
        an episode gets the same actions, and the same score, as it
        would alone.
        """
        episodes = list(range(spec.eval_episodes))
        scores = [0.0] * len(episodes)
        venv = self._env_batch(spec, len(episodes))
        map_action = _space_action_mapper(venv.single_action_space)
        obs, _ = venv.reset(seed=[1_000_000 + e for e in episodes])
        while episodes:
            actions = agent.act(obs, deterministic=True)["action"]
            obs, _, terms, truncs, infos = venv.step(map_action(actions))
            done = terms | truncs
            if done.any():
                ended = np.flatnonzero(done)
                for i in ended:
                    scores[episodes[i]] = _episode_score(infos[i])
                venv.drop(ended)
                obs = obs[~done]
                episodes = [e for e, d in zip(episodes, done, strict=True) if not d]
        return float(np.mean(scores))
