"""Determinism matrix for the vectorized rollout path and the trial cache.

Three guarantees hold the whole performance story together:

* deterministic acting is **row-exact**: row ``i`` of a batched
  ``act(..., deterministic=True)`` equals acting on observation ``i``
  alone, so evaluation batches its episodes without changing an action;
* ``n_envs=1`` with ``vectorize=True`` is **byte-identical** to the
  historical single-env training path — same rewards, same virtual
  times, same learning curves — so vectorization is opt-in purely for
  speed;
* at ``n_envs>1`` a campaign's table fingerprint is a pure function of
  its seed: stable across the serial/thread/process executors and
  across cache-cold vs cache-warm runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.classic  # noqa: F401  (registers Pendulum-v0)
from repro.core import RandomSearch
from repro.core.serialization import table_fingerprint
from repro.frameworks import TrainSpec, get_framework
from repro.obs import RingBufferSink, Telemetry
from repro.paper import Scale, airdrop_parameter_space, table1_campaign
from repro.rl import CategoricalPPOAgent, PPOAgent, SACAgent, VTraceAgent

STEPS = 900


def _spec(algorithm: str, n_nodes: int = 1, **overrides) -> TrainSpec:
    return TrainSpec(
        algorithm=algorithm,
        n_nodes=n_nodes,
        cores_per_node=2,
        seed=3,
        total_steps=STEPS,
        paper_steps=STEPS,
        **overrides,
    )


def _assert_results_equal(a, b) -> None:
    assert a.reward == b.reward
    assert a.eval_reward == b.eval_reward
    assert a.computation_time_s == b.computation_time_s
    assert a.energy_kj == b.energy_kj
    assert a.learning_curve == b.learning_curve
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize(
    "make_agent",
    [
        lambda: PPOAgent(9, 2, seed=1),
        lambda: SACAgent(9, 2, seed=1),
        lambda: VTraceAgent(9, 2, seed=1),
        lambda: CategoricalPPOAgent(9, 3, seed=1),
    ],
    ids=["ppo", "sac", "vtrace", "categorical_ppo"],
)
def test_deterministic_act_rows_do_not_depend_on_the_batch(make_agent):
    agent = make_agent()
    obs = np.random.default_rng(0).standard_normal((30, 9))
    batched = agent.act(obs, deterministic=True)
    for i in range(len(obs)):
        alone = agent.act(obs[i : i + 1], deterministic=True)
        assert np.array_equal(batched["action"][i], alone["action"][0]), i
        if "value" in batched:
            assert batched["value"][i] == alone["value"][0], i


_SERIAL_CASES = [
    pytest.param(framework, algorithm, "Airdrop-v0", id=f"{algorithm}-{framework}")
    for algorithm in ("ppo", "sac")
    for framework in ("rllib", "stable", "tfagents")
] + [
    # no native vector env: rollouts and evaluation go through SyncVectorEnv
    pytest.param("rllib", algorithm, "Pendulum-v0", id=f"{algorithm}-rllib-Pendulum-v0")
    for algorithm in ("ppo", "sac")
]


@pytest.mark.parametrize("framework,algorithm,env_id", _SERIAL_CASES)
def test_vectorized_n_envs_1_is_byte_identical_to_serial(framework, algorithm, env_id):
    fw = get_framework(framework)
    n_nodes = 2 if fw.supports_multi_node and algorithm == "ppo" else 1
    serial = fw.train(_spec(algorithm, n_nodes=n_nodes, env_id=env_id))
    vectorized = fw.train(
        _spec(algorithm, n_nodes=n_nodes, env_id=env_id, n_envs=1, vectorize=True)
    )
    _assert_results_equal(serial, vectorized)


def test_vectorized_width_is_seed_deterministic():
    fw = get_framework("stable")
    first = fw.train(_spec("ppo", n_envs=4))
    second = fw.train(_spec("ppo", n_envs=4))
    _assert_results_equal(first, second)


def _campaign(n_envs: int, **kwargs):
    return table1_campaign(
        seed=5,
        scale=Scale(real_steps=400),
        explorer=RandomSearch(airdrop_parameter_space(), n_trials=3, seed=5),
        n_envs=n_envs,
        **kwargs,
    )


def test_vectorized_fingerprint_stable_across_executors():
    serial = _campaign(n_envs=4).run()
    fingerprint = table_fingerprint(serial.table)
    assert all(t.ok for t in serial.table)
    for executor in ("thread", "process"):
        report = _campaign(n_envs=4, executor=executor, max_workers=2).run()
        assert table_fingerprint(report.table) == fingerprint, executor


def test_cache_warm_run_is_byte_identical_and_step_free(tmp_path):
    cold = _campaign(n_envs=2, cache=tmp_path / "cache").run()
    assert cold.meta["n_cached"] == 0

    sink = RingBufferSink()
    telemetry = Telemetry(sink)
    warm = _campaign(n_envs=2, cache=tmp_path / "cache", telemetry=telemetry).run()
    assert warm.meta["n_cached"] == len(warm.table) == 3
    assert table_fingerprint(warm.table) == table_fingerprint(cold.table)
    # zero environment work: every trial came straight from the cache
    counters = telemetry.meters.snapshot().get("counters", {})
    assert counters.get("env_steps", 0) == 0
    assert counters.get("cache/hits") == 3
    assert len(sink.events("trial_cache_hit")) == 3
