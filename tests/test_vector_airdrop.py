"""AirdropVectorEnv: native batched stepping is bit-identical to N serial envs.

The contract under test is strict equality, not closeness: the batched
dynamics, integrators and environment bookkeeping must reproduce the
exact float64 stream of :class:`~repro.envs.SyncVectorEnv` wrapping N
independent :class:`~repro.airdrop.AirdropEnv` instances, so that
``n_envs>1`` changes wall-clock only, never measurements.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.airdrop import AirdropEnv, AirdropVectorEnv, make_rhs, parafoil_rhs
from repro.airdrop.dynamics import ParafoilParams
from repro.airdrop.integrators import get_integrator
from repro.envs import SyncVectorEnv, make, make_vec


def _reference_vec(n_envs: int, **kwargs):
    return SyncVectorEnv([lambda: AirdropEnv(**kwargs) for _ in range(n_envs)])


def _assert_infos_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b), (sorted(a), sorted(b))
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=True), key
        elif isinstance(va, dict):
            _assert_infos_equal(va, vb)
        else:
            assert va == vb, (key, va, vb)


@pytest.mark.parametrize(
    "n_envs,kwargs",
    [
        (1, dict(rk_order=5)),
        (3, dict(rk_order=3, wind=True, gusts=True)),
        (4, dict(rk_order=8, wind=True)),
        # an unstable canopy at a coarse step: most episodes end in the
        # numerical-failure branch, a few land
        (4, dict(rk_order=3, dt=2.0, params=ParafoilParams(roll_omega0=6.0, roll_zeta=0.01))),
    ],
)
def test_lockstep_bit_identical_to_sync_vector(n_envs, kwargs):
    batched = AirdropVectorEnv(num_envs=n_envs, **kwargs)
    serial = _reference_vec(n_envs, **kwargs)

    obs_b, info_b = batched.reset(seed=7)
    obs_s, info_s = serial.reset(seed=7)
    assert np.array_equal(obs_b, obs_s)
    for i in range(n_envs):
        _assert_infos_equal(info_b[i], info_s[i])

    rng = np.random.default_rng(99)
    with np.errstate(all="ignore"):
        for _ in range(250):
            actions = rng.uniform(-1.0, 1.0, (n_envs, 1))
            ob, rb, tb, cb, ib = batched.step(actions)
            os_, rs, ts, cs, is_ = serial.step(actions)
            assert np.array_equal(ob, os_)
            assert np.array_equal(rb, rs)
            assert np.array_equal(tb, ts)
            assert np.array_equal(cb, cs)
            for i in range(n_envs):
                _assert_infos_equal(ib[i], is_[i])
    assert batched.stats.returns == serial.stats.returns
    assert batched.stats.lengths == serial.stats.lengths
    assert batched.stats.returns, "no episode ever finished — test too short"


@pytest.mark.parametrize("front", ["AirdropVectorEnv", "SyncVectorEnv"])
def test_kept_slots_step_on_like_a_twin_that_dropped_nothing(front):
    # gusts draw from each row's RNG and wind model every step; low drops
    # and a short step limit mix landings, truncations and auto-resets
    kwargs = dict(wind=True, gusts=True, gust_probability=0.3, altitude_limits=(30.0, 150.0))

    def build():
        if front == "AirdropVectorEnv":
            return AirdropVectorEnv(6, max_episode_steps=25, **kwargs)
        return SyncVectorEnv(
            [lambda: make("Airdrop-v0", max_episode_steps=25, **kwargs) for _ in range(6)]
        )

    twin, dropping = build(), build()
    twin.reset(seed=3)
    dropping.reset(seed=3)
    kept = list(range(6))
    drops = {10: [1, 4], 40: [3]}  # step -> original slots dropped after it
    rng = np.random.default_rng(0)
    landings = truncations = 0
    for t in range(120):
        actions = rng.uniform(-1.0, 1.0, (6, 1))
        ob, rb, tb, cb, ib = twin.step(actions)
        od, rd, td, cd, id_ = dropping.step(actions[kept])
        assert np.array_equal(od, ob[kept])
        assert np.array_equal(rd, rb[kept])
        assert np.array_equal(td, tb[kept])
        assert np.array_equal(cd, cb[kept])
        for position, slot in enumerate(kept):
            _assert_infos_equal(id_[position], ib[slot])
        landings += sum("landing_score" in info for info in id_)
        truncations += int(cd.sum())
        if t in drops:
            dropping.drop([kept.index(slot) for slot in drops[t]])
            kept = [slot for slot in kept if slot not in drops[t]]
            assert len(dropping) == len(kept)
    assert landings and truncations, "the kept slots never landed or truncated"


def test_reset_seed_sequence_matches_scalar_fanout():
    a = AirdropVectorEnv(num_envs=3, rk_order=5)
    b = AirdropVectorEnv(num_envs=3, rk_order=5)
    obs_a, _ = a.reset(seed=11)
    obs_b, _ = b.reset(seed=[11, 12, 13])
    assert np.array_equal(obs_a, obs_b)
    with pytest.raises(ValueError):
        a.reset(seed=[1, 2])  # wrong length


def test_make_vec_prefers_native_vector_entry_point():
    venv = make_vec("Airdrop-v0", 2, rk_order=3)
    assert isinstance(venv, AirdropVectorEnv)
    assert venv.num_envs == 2
    obs, _ = venv.reset(seed=0)
    assert obs.shape == (2, *venv.single_observation_space.shape)


@pytest.mark.parametrize("front", ["AirdropVectorEnv", "SyncVectorEnv"])
def test_wrong_sized_action_batch_rejected(front):
    venv = AirdropVectorEnv(2) if front == "AirdropVectorEnv" else _reference_vec(2)
    venv.reset(seed=0)
    with pytest.raises(ValueError, match="got 4 actions for 2 sub-envs"):
        venv.step(np.zeros((4, 1)))


def _random_rows(rng, n):
    states = rng.normal(size=(n, 9)) * np.array([100, 100, 400, 5, 5, 3, 1, 1, 0.2])
    states[:, 2] = np.abs(states[:, 2]) + 50.0
    return states, rng.uniform(-1, 1, n), rng.normal(size=(n, 2))


def test_batched_rhs_matches_serial_rows(rng):
    params = ParafoilParams()
    states, u, wind = _random_rows(rng, 5)
    batched = parafoil_rhs(0.0, states, u, wind, params)
    assert batched.shape == states.shape
    for i in range(5):
        row = parafoil_rhs(0.0, states[i], u[i], wind[i], params)
        assert row.shape == (9,)
        assert np.array_equal(batched[i], row)


@pytest.mark.parametrize("order", [3, 5, 8])
def test_batched_integrator_matches_serial_rows(order, rng):
    tableau = get_integrator(order)
    params = ParafoilParams()
    states, u, wind = _random_rows(rng, 4)
    stepped = tableau.step(make_rhs(u, wind, params), 0.0, states, 1.0)
    assert stepped.shape == states.shape
    for i in range(4):
        row = tableau.step(make_rhs(u[i], wind[i], params), 0.0, states[i], 1.0)
        assert np.array_equal(stepped[i], row)
