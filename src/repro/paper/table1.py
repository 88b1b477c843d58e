"""Table I: the 18-configuration experimental campaign.

The HAL extraction of the paper garbles Table I; only the Runge–Kutta
column survives (``3,3,3,5,5,5,8,8 | 3,3,3,8,8 | 3,3,8,8,8``). The 18
configurations below are reconstructed from that column plus every
narrative constraint in §§IV–VI (see DESIGN.md §5 for the full
derivation). The grouping is rows 1–8 RLlib, 9–13 TF-Agents,
14–18 Stable Baselines.

:class:`AirdropCaseStudy` is the glue between the methodology core and
the framework back-ends: it turns a :class:`~repro.core.Configuration`
into a :class:`~repro.frameworks.TrainSpec`, runs it, and reports the
three §V-d metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import repro.airdrop  # noqa: F401  (registers Airdrop-v0 — also in spawn workers)

from ..cluster import ClusterSpec, paper_testbed
from ..core import (
    Campaign,
    Categorical,
    CompletionUnderFaults,
    ComputationTime,
    Configuration,
    Explorer,
    LatinHypercube,
    MetricSet,
    ParameterSpace,
    ParetoFrontRanking,
    PowerConsumption,
    RandomSearch,
    RecoveryOverhead,
    Reward,
    TPESampler,
    WorkLost,
)
from ..core.pruning import Pruner
from ..faults import FaultPlan
from ..frameworks import Cost, Framework, TrainResult, TrainSpec, get_framework
from ..obs import Telemetry
from .calibration import DEFAULT_SCALE, Scale, default_power_model

__all__ = [
    "TABLE1_CONFIGS",
    "airdrop_parameter_space",
    "paper_metrics",
    "paper_rankers",
    "AirdropCaseStudy",
    "Table1Explorer",
    "EXPLORERS",
    "make_explorer",
    "table1_campaign",
]

#: the reconstructed Table I rows: solution id -> configuration values
TABLE1_CONFIGS: dict[int, dict[str, Any]] = {
    1: {"rk_order": 3, "framework": "rllib", "algorithm": "sac", "n_nodes": 2, "cores_per_node": 4},
    2: {"rk_order": 3, "framework": "rllib", "algorithm": "ppo", "n_nodes": 2, "cores_per_node": 4},
    3: {"rk_order": 3, "framework": "rllib", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 2},
    4: {"rk_order": 5, "framework": "rllib", "algorithm": "ppo", "n_nodes": 2, "cores_per_node": 2},
    5: {"rk_order": 5, "framework": "rllib", "algorithm": "ppo", "n_nodes": 2, "cores_per_node": 4},
    6: {"rk_order": 5, "framework": "rllib", "algorithm": "sac", "n_nodes": 1, "cores_per_node": 4},
    7: {"rk_order": 8, "framework": "rllib", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 4},
    8: {"rk_order": 8, "framework": "rllib", "algorithm": "ppo", "n_nodes": 2, "cores_per_node": 4},
    9: {"rk_order": 3, "framework": "tfagents", "algorithm": "sac", "n_nodes": 1, "cores_per_node": 4},
    10: {"rk_order": 3, "framework": "tfagents", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 2},
    11: {"rk_order": 3, "framework": "tfagents", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 4},
    12: {"rk_order": 8, "framework": "tfagents", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 4},
    13: {"rk_order": 8, "framework": "tfagents", "algorithm": "sac", "n_nodes": 1, "cores_per_node": 2},
    14: {"rk_order": 3, "framework": "stable", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 2},
    15: {"rk_order": 3, "framework": "stable", "algorithm": "sac", "n_nodes": 1, "cores_per_node": 4},
    16: {"rk_order": 8, "framework": "stable", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 4},
    17: {"rk_order": 8, "framework": "stable", "algorithm": "ppo", "n_nodes": 1, "cores_per_node": 2},
    18: {"rk_order": 8, "framework": "stable", "algorithm": "sac", "n_nodes": 1, "cores_per_node": 4},
}


def multi_node_needs_rllib(values: Mapping[str, Any]) -> bool:
    """§V-b: 'Distributed training on 2 nodes is available with RLlib'."""
    return values["n_nodes"] == 1 or values["framework"] == "rllib"


def airdrop_parameter_space() -> ParameterSpace:
    """The five §V-b parameters with the paper's value sets."""
    return ParameterSpace(
        parameters=[
            Categorical("rk_order", [3, 5, 8], kind="environment"),
            Categorical("framework", ["rllib", "stable", "tfagents"], kind="algorithm"),
            Categorical("algorithm", ["ppo", "sac"], kind="algorithm"),
            Categorical("n_nodes", [1, 2], kind="system"),
            Categorical("cores_per_node", [2, 4], kind="system"),
        ],
        constraints=[multi_node_needs_rllib],
    )


def paper_metrics(resilience: bool = False) -> MetricSet:
    """Reward, Computation Time, Power Consumption (§V-d).

    With ``resilience=True`` (a fault plan is active) the set grows the
    three resilience metrics so recovery cost becomes a decision axis.
    """
    metrics = [Reward(), ComputationTime(), PowerConsumption()]
    if resilience:
        metrics += [RecoveryOverhead(), WorkLost(), CompletionUnderFaults()]
    return MetricSet(metrics)


def paper_rankers(resilience: bool = False) -> list[ParetoFrontRanking]:
    """The paper's three Pareto fronts (Figures 4, 5 and 6).

    With ``resilience=True`` a fourth front trades reward and speed
    against the recovery overhead the fault plan extracts.
    """
    rankers = [
        ParetoFrontRanking(["reward", "computation_time"], name="fig4"),
        ParetoFrontRanking(["power_consumption", "computation_time"], name="fig5"),
        ParetoFrontRanking(["reward", "power_consumption"], name="fig6"),
    ]
    if resilience:
        rankers.append(
            ParetoFrontRanking(
                ["reward", "computation_time", "recovery_overhead"],
                name="resilience",
            )
        )
    return rankers


@dataclass
class AirdropCaseStudy:
    """Step 1 of the methodology: the airdrop simulator case study.

    Evaluating a configuration trains an agent for real (scaled budget)
    on the selected framework back-end and reports::

        reward             mean landing score of the final episodes
        computation_time   virtual seconds at paper scale
        power_consumption  kilojoules at paper scale

    plus diagnostic extras (eval reward, transferred bytes, ...).
    """

    scale: Scale = field(default_factory=lambda: DEFAULT_SCALE)
    cluster: ClusterSpec = field(default_factory=lambda: paper_testbed(2))
    #: §V-a case-study settings: wind disabled, default altitude interval
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    #: keep the TrainResult of each evaluation, keyed by trial id
    keep_results: bool = True
    #: reward level defining "converged" for the time_to_threshold metric
    convergence_threshold: float = -1.0
    #: deterministic fault plan injected into every trial's virtual run
    #: (None or an empty plan leaves the fault-free path untouched)
    fault_plan: FaultPlan | None = None
    #: episodes stepped per env call by each rollout worker (1 keeps the
    #: historical byte-identical single-env path)
    n_envs: int = 1

    def __post_init__(self) -> None:
        self.results: dict[int, TrainResult] = {}

    def make_spec(self, config: Configuration, seed: int) -> TrainSpec:
        return TrainSpec(
            algorithm=str(config["algorithm"]),
            n_nodes=int(config["n_nodes"]),
            cores_per_node=int(config["cores_per_node"]),
            seed=seed,
            env_kwargs={"rk_order": int(config["rk_order"]), **self.env_kwargs},
            total_steps=self.scale.real_steps,
            paper_steps=self.scale.paper_steps,
            n_envs=self.n_envs,
        )

    def framework(self, config: Configuration) -> Framework:
        """The back-end ``config`` selects, on this study's testbed."""
        return get_framework(
            str(config["framework"]),
            cluster=self.cluster,
            power_model=default_power_model(),
            fault_plan=self.fault_plan,
        )

    def cost(self, config: Configuration) -> Cost:
        """What ``config`` costs at paper scale, with no training: the
        priced plan of a full run, bit-equal to the ``computation_time``
        and ``power_consumption`` :meth:`evaluate` reports for any seed
        when the run is not pruned."""
        framework = self.framework(config)
        spec = self.make_spec(config, seed=0)
        return framework.price(framework.plan(spec, spec.total_steps))

    def cache_key(self) -> dict[str, Any]:
        """Every evaluation-relevant setting not captured by the config.

        Campaigns fold this into the content address of each trial
        (:class:`~repro.exec.TrialCache`), so two studies differing in
        scale, env parameters or cluster shape never share entries.
        ``n_envs`` participates because results at different widths are
        distinct measurements.
        """
        return {
            "case_study": type(self).__name__,
            "real_steps": self.scale.real_steps,
            "paper_steps": self.scale.paper_steps,
            "env_kwargs": {k: repr(v) for k, v in sorted(self.env_kwargs.items())},
            "convergence_threshold": self.convergence_threshold,
            "n_envs": self.n_envs,
            "cluster": [
                [node.n_cores, node.core_speed] for node in self.cluster.nodes
            ],
        }

    def evaluate(
        self,
        config: Configuration,
        seed: int,
        progress: Callable[[int, float], bool] | None = None,
        telemetry: Telemetry | None = None,
    ) -> dict[str, float]:
        result = self.framework(config).train(
            self.make_spec(config, seed), callback=progress, telemetry=telemetry
        )
        if self.keep_results and config.trial_id is not None:
            self.results[config.trial_id] = result
        scale = result.diagnostics.get("scale", 1.0)
        ttt = self._time_to_threshold(result)
        measurements = {
            "time_to_threshold": ttt,
            "reward": result.reward,
            "computation_time": result.computation_time_s,
            "power_consumption": result.energy_kj,
            "bandwidth_usage": result.trace.bytes_transferred() * scale / 1e6,
            "eval_reward": result.eval_reward,
            **{f"diag_{k}": v for k, v in result.diagnostics.items()},
        }
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            measurements["recovery_overhead"] = result.recovery_overhead_s
            measurements["work_lost"] = result.work_lost_steps
            measurements["completion_under_faults"] = result.completion_under_faults
        return measurements

    def _time_to_threshold(self, result: TrainResult) -> float:
        """Virtual seconds until the curve crosses the threshold (2x the
        run time when it never does)."""
        steps_done = result.diagnostics.get("real_steps", 0.0)
        if steps_done <= 0:
            return 2.0 * result.computation_time_s
        for steps, checkpoint in result.learning_curve:
            if checkpoint >= self.convergence_threshold:
                return result.computation_time_s * steps / steps_done
        return 2.0 * result.computation_time_s


class Table1Explorer(Explorer):
    """Replays the paper's 18 sampled configurations in table order.

    The paper drew them by Random Search; replaying the reconstruction
    keeps solution ids aligned with the published figures.
    """

    def __init__(self, space: ParameterSpace, seed: int | None = None) -> None:
        super().__init__(space, seed)
        self._rows = sorted(TABLE1_CONFIGS)

    def ask(self) -> Configuration | None:
        if self._asked >= len(self._rows):
            return None
        solution = self._rows[self._asked]
        values = TABLE1_CONFIGS[solution]
        self.space.validate(dict(values))
        config = Configuration(values, trial_id=solution)
        self._asked += 1
        return config


#: the explorers every front offers (``repro campaign --explorer``, a
#: ``repro serve`` spec's ``explorer``)
EXPLORERS = ("table1", "random", "lhs", "tpe")


def make_explorer(name: str, trials: int, seed: int) -> Explorer:
    """The explorer called ``name`` over :func:`airdrop_parameter_space`.

    ``table1`` replays the paper's 18 rows and ignores ``trials`` and
    ``seed``; the others draw ``trials`` configurations from ``seed``.
    """
    space = airdrop_parameter_space()
    if name == "table1":
        return Table1Explorer(space)
    if name == "random":
        return RandomSearch(space, n_trials=trials, seed=seed)
    if name == "lhs":
        return LatinHypercube(space, n_trials=trials, seed=seed)
    if name == "tpe":
        return TPESampler(
            space, n_trials=trials, seed=seed, scalarize=lambda objs: -objs["reward"]
        )
    raise ValueError(f"unknown explorer {name!r}; expected one of {list(EXPLORERS)}")


def table1_campaign(
    seed: int = 0,
    scale: Scale | None = None,
    explorer: Explorer | None = None,
    pruner: Pruner | None = None,
    env_kwargs: dict[str, Any] | None = None,
    seed_strategy: str = "fixed",
    telemetry: Telemetry | None = None,
    fault_plan: FaultPlan | None = None,
    n_envs: int = 1,
    **campaign_kwargs: Any,
) -> Campaign:
    """The full §V campaign: airdrop case study × 18 configs × 3 metrics.

    ``campaign.run().render()`` regenerates Table I and Figures 4–6.
    Extra keyword arguments (``executor``, ``max_workers``, ``retry``,
    ``trial_timeout``, ``journal``, ...) pass through to
    :class:`~repro.core.Campaign` — the case study and the Table I
    explorer are picklable, so the process executor works out of the box.

    Passing a non-empty ``fault_plan`` injects the same deterministic
    faults into every trial's virtual run, adds the resilience metrics
    and a fourth ("resilience") Pareto front.
    """
    space = airdrop_parameter_space()
    if fault_plan is not None and fault_plan.is_empty:
        fault_plan = None
    case_study = AirdropCaseStudy(
        scale=scale or DEFAULT_SCALE,
        env_kwargs=dict(env_kwargs or {}),
        fault_plan=fault_plan,
        n_envs=n_envs,
    )
    resilience = fault_plan is not None
    return Campaign(
        case_study=case_study,
        space=space,
        explorer=explorer or Table1Explorer(space),
        metrics=paper_metrics(resilience=resilience),
        rankers=paper_rankers(resilience=resilience),
        pruner=pruner,
        base_seed=seed,
        seed_strategy=seed_strategy,
        telemetry=telemetry,
        **campaign_kwargs,
    )
