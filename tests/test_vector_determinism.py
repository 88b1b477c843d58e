"""Determinism matrix for the training loops and the trial cache.

Three guarantees hold the whole performance story together:

* deterministic acting is **row-exact**: row ``i`` of a batched
  ``act(..., deterministic=True)`` equals acting on observation ``i``
  alone, so an evaluation score does not depend on how many episodes
  run at once;
* each algorithm family has one training loop (PPO and V-trace share the
  on-policy one), which at ``n_envs=1`` steps one scalar env per slot;
  the native batched env in their place changes no result — same
  rewards, same virtual times, same learning curves;
* at ``n_envs>1`` a campaign's table fingerprint is a pure function of
  its seed: stable across the serial/thread/process executors and
  across cache-cold vs cache-warm runs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.classic  # noqa: F401  (registers Pendulum-v0 and CartPole-v0)
from repro.airdrop import AirdropEnv, AirdropVectorEnv
from repro.core import RandomSearch
from repro.core.serialization import table_fingerprint
from repro.envs import SyncVectorEnv, make, make_vec
from repro.frameworks import Framework, TrainSpec, get_framework
from repro.frameworks.base import _space_action_mapper
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
    assert list(batched) == ["action"]
    for i in range(len(obs)):
        alone = agent.act(obs[i : i + 1], deterministic=True)
        assert np.array_equal(batched["action"][i], alone["action"][0]), i


@pytest.mark.parametrize(
    "framework,algorithm",
    [
        pytest.param(framework, algorithm, id=f"{algorithm}-{framework}")
        for algorithm in ("ppo", "sac")
        for framework in ("rllib", "stable", "tfagents")
    ]
    + [pytest.param("impala", "ppo", id="ppo-impala")],
)
def test_vectorized_n_envs_1_is_byte_identical_to_serial(framework, algorithm, monkeypatch):
    fw = get_framework(framework)
    n_nodes = 2 if fw.supports_multi_node and algorithm == "ppo" else 1
    spec = _spec(algorithm, n_nodes=n_nodes)
    serial = fw.train(spec)

    native: list[int] = []

    def native_batch(spec: TrainSpec, n: int):
        venv = make_vec(spec.env_id, n, **spec.env_kwargs)
        assert isinstance(venv, AirdropVectorEnv)
        native.append(n)
        return venv

    monkeypatch.setattr(Framework, "_env_batch", staticmethod(native_batch))
    vectorized = fw.train(spec)
    assert native, "the loops did not build their envs through Framework._env_batch"
    _assert_results_equal(serial, vectorized)


def _perturbed(agent):
    """Shake the actor's weights so its actions follow the observation:
    the episodes of one evaluation wave then end at different steps."""
    net = agent.policy if isinstance(agent, SACAgent) else agent.actor
    rng = np.random.default_rng(5)
    for parameter in net.parameters():
        parameter.value += rng.normal(0.0, 0.5, parameter.value.shape)
    return agent


def _one_episode_at_a_time(env_id: str, agent, n_episodes: int):
    """Evaluation written as the plainest loop: each episode alone on a
    fresh env, one ``act`` call per step, scored by its landing score
    when it has one, else by its return. Returns the mean score and the
    episode lengths."""
    scores, lengths = [], []
    for episode in range(n_episodes):
        env = make(env_id)
        map_action = _space_action_mapper(env.action_space)
        obs, _ = env.reset(seed=1_000_000 + episode)
        episode_return, steps, done = 0.0, 0, False
        while not done:
            row = np.asarray(obs, dtype=np.float64)[None]
            action = map_action(agent.act(row, deterministic=True)["action"])[0]
            obs, reward, terminated, truncated, info = env.step(action)
            episode_return += float(reward)
            steps += 1
            done = terminated or truncated
        scores.append(float(info.get("landing_score", episode_return)))
        lengths.append(steps)
    return float(np.mean(scores)), lengths


@pytest.mark.parametrize(
    "env_id,make_agent",
    [
        pytest.param("Airdrop-v0", lambda: PPOAgent(13, 1, seed=1), id="Airdrop-v0-ppo"),
        pytest.param("Airdrop-v0", lambda: SACAgent(13, 1, seed=1), id="Airdrop-v0-sac"),
        pytest.param("Pendulum-v0", lambda: PPOAgent(3, 1, seed=1), id="Pendulum-v0-ppo"),
        pytest.param("Pendulum-v0", lambda: SACAgent(3, 1, seed=1), id="Pendulum-v0-sac"),
    ]
    + [
        pytest.param(
            "Airdrop-v0",
            lambda cls=cls: _perturbed(cls(13, 1, seed=1)),
            id=f"Airdrop-v0-{name}-perturbed",
        )
        for name, cls in (("ppo", PPOAgent), ("sac", SACAgent), ("vtrace", VTraceAgent))
    ]
    + [
        pytest.param(
            "CartPole-v0",
            lambda: _perturbed(CategoricalPPOAgent(4, 2, seed=1)),
            id="CartPole-v0-categorical_ppo-perturbed",
        )
    ],
)
def test_evaluation_width_changes_no_score(env_id, make_agent):
    # Airdrop-v0 has a native batched env, Pendulum-v0 and CartPole-v0 go
    # through SyncVectorEnv; at either width the 30 episodes run as one
    # wave that drops each episode as it ends, and score as they do alone
    agent = make_agent()
    alone, _ = _one_episode_at_a_time(env_id, agent, 30)
    fw = get_framework("rllib")
    for n_envs in (1, 8):
        assert fw._evaluate(_spec("ppo", env_id=env_id, n_envs=n_envs), agent) == alone, n_envs


@pytest.mark.parametrize("n_envs", [1, 8])
def test_evaluation_steps_only_unfinished_episodes(n_envs, monkeypatch):
    """The rows a wave steps are the sum of its episodes' lengths: a
    finished episode is not flown on until the longest one lands."""
    agent = _perturbed(PPOAgent(13, 1, seed=1))
    _, lengths = _one_episode_at_a_time("Airdrop-v0", agent, 6)
    assert len(set(lengths)) > 1, "every episode had the same length"

    rows: list[int] = []
    env_batch = Framework._env_batch

    def counting_batch(spec: TrainSpec, n: int):
        venv = env_batch(spec, n)
        step = venv.step

        def counted(actions):
            rows.append(len(actions))
            return step(actions)

        venv.step = counted
        return venv

    monkeypatch.setattr(Framework, "_env_batch", staticmethod(counting_batch))
    get_framework("rllib")._evaluate(_spec("ppo", n_envs=n_envs, eval_episodes=6), agent)
    assert sum(rows) == sum(lengths)


def test_evaluation_at_n_envs_1_is_one_wave_of_single_envs(monkeypatch):
    """n_envs=1 picks only the front: one batch of AirdropEnv slots, and
    one act call per step of the longest episode over every running one."""
    agent = _perturbed(PPOAgent(13, 1, seed=1))
    _, lengths = _one_episode_at_a_time("Airdrop-v0", agent, 6)
    assert len(set(lengths)) > 1, "every episode had the same length"

    batches = []
    env_batch = Framework._env_batch

    def recording_batch(spec: TrainSpec, n: int):
        batches.append(env_batch(spec, n))
        return batches[-1]

    calls: list[int] = []
    act = agent.act

    def counted_act(obs, deterministic=False):
        calls.append(len(obs))
        return act(obs, deterministic=deterministic)

    monkeypatch.setattr(Framework, "_env_batch", staticmethod(recording_batch))
    monkeypatch.setattr(agent, "act", counted_act)
    get_framework("rllib")._evaluate(_spec("ppo", n_envs=1, eval_episodes=6), agent)
    assert len(batches) == 1
    assert isinstance(batches[0], SyncVectorEnv)
    assert all(isinstance(env, AirdropEnv) for env in batches[0].envs)
    assert len(calls) == max(lengths)
    assert sum(calls) == sum(lengths)


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
