"""Content-addressed trial cache: keys, persistence, code-version guard,
and the one outcome record per key that campaigns commit from.

The vectorized-campaign integration (cold run trains, warm run commits
every trial from cache with zero env steps and a byte-identical table)
lives in :mod:`tests.test_vector_determinism`, and a remote worker
sharing the record with a campaign in :mod:`tests.test_net`.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading

import pytest

from repro.core import (
    Campaign,
    Categorical,
    Configuration,
    Explorer,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
    TrialResult,
    TrialStatus,
)
from repro.core.serialization import table_fingerprint, trial_to_dict
from repro.exec import CODE_HASH_PACKAGES, RetryPolicy, TrialCache, TrialOutcome, code_version_tag
from repro.obs import RingBufferSink, Telemetry

IDENTITY = {"space": "abc", "fault_plan": "", "metrics": ["reward"], "study": {"s": 1}}
MEASUREMENTS = {"reward": -1.5, "eval_reward": -2.0}


def make_config(trial_id: int = 1, rk: int = 3) -> Configuration:
    return Configuration({"rk": rk, "fw": "stable"}, trial_id=trial_id)


def make_outcome(status: str = "completed") -> TrialOutcome:
    return TrialOutcome(
        seq=0,
        trial_id=1,
        attempt=0,
        status=status,
        measurements=dict(MEASUREMENTS),
        duration_s=0.25,
        checkpoints=[(100, -3.0)],
    )


def stored(cache: TrialCache, config: Configuration | None = None, seed: int = 7) -> str:
    """Store the canned outcome for ``config`` and return its key."""
    config = make_config() if config is None else config
    key = cache.key(config, seed, IDENTITY)
    assert cache.store(key, make_outcome(), config, seed)
    return key


class TestKeys:
    def test_key_is_stable(self):
        cache = TrialCache(code_tag="t0")
        config = make_config()
        k1 = cache.key(config, 7, IDENTITY)
        k2 = cache.key(config, 7, IDENTITY)
        assert k1 == k2 and len(k1) == 32

    def test_key_ignores_trial_id(self):
        cache = TrialCache(code_tag="t0")
        a = Configuration({"rk": 3}, trial_id=1)
        b = Configuration({"rk": 3}, trial_id=9)
        assert cache.key(a, 7, IDENTITY) == cache.key(b, 7, IDENTITY)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c, s, i, t: (Configuration({"rk": 5}, trial_id=1), s, i, t),
            lambda c, s, i, t: (c, s + 1, i, t),
            lambda c, s, i, t: (c, s, {**i, "space": "zzz"}, t),
            lambda c, s, i, t: (c, s, {**i, "study": {"s": 2}}, t),
            lambda c, s, i, t: (c, s, i, "t1"),
        ],
    )
    def test_key_sensitive_to_every_ingredient(self, mutate):
        base_config = Configuration({"rk": 3}, trial_id=1)
        config, seed, identity, tag = mutate(base_config, 7, dict(IDENTITY), "t0")
        baseline = TrialCache(code_tag="t0").key(base_config, 7, IDENTITY)
        assert TrialCache(code_tag=tag).key(config, seed, identity) != baseline


class TestStoreLookup:
    def test_round_trip_in_memory(self):
        cache = TrialCache(code_tag="t0")
        key = stored(cache)
        assert cache.lookup(key, make_config(), 7) == (MEASUREMENTS, [(100, -3.0)], 0.25)
        assert cache.hits == 1

    def test_lookup_renumbers_to_requesting_campaign(self):
        """The record holds no trial id: a later campaign proposing the
        same values under another id is answered (the campaign numbers
        the row, see ``test_hit_commits_under_the_requesting_trial_id``)."""
        cache = TrialCache(code_tag="t0")
        key = stored(cache, make_config(trial_id=1))
        assert cache.lookup(key, make_config(trial_id=14), 7) is not None

    def test_persists_across_instances(self, tmp_path):
        key = stored(TrialCache(tmp_path / "cache", code_tag="t0"))
        second = TrialCache(tmp_path / "cache", code_tag="t0")
        assert second.lookup(key, make_config(), 7) == (MEASUREMENTS, [(100, -3.0)], 0.25)
        entry = json.loads((tmp_path / "cache" / f"{key}.json").read_text())
        assert entry["format_version"] == 2 and "trial" not in entry

    def test_only_completed_trials_stored(self, tmp_path):
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        config = make_config()
        key = cache.key(config, 7, IDENTITY)
        for status in ("pruned", "failed", "timeout", "crashed"):
            assert not cache.store(key, make_outcome(status), config, 7), status
            assert cache.lookup(key, config, 7) is None, status
        assert list((tmp_path / "cache").iterdir()) == []

    def test_measurements_json_cannot_hold_are_not_stored(self, tmp_path):
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        config = make_config()
        key = cache.key(config, 7, IDENTITY)
        outcome = make_outcome()
        outcome.measurements["model"] = object()
        assert not cache.store(key, outcome, config, 7)
        assert cache.lookup(key, config, 7) is None
        assert list((tmp_path / "cache").iterdir()) == []

    def test_mismatched_seed_misses(self):
        cache = TrialCache(code_tag="t0")
        key = stored(cache)
        assert cache.lookup(key, make_config(), 8) is None
        # a colliding key must never replay a different configuration
        assert cache.lookup(key, make_config(rk=5), 7) is None
        assert (cache.hits, cache.misses) == (0, 2)

    def test_concurrent_threads_store_one_key(self, tmp_path):
        """Concurrent serve jobs share one cache and may commit the same
        trial at once; neither store may fail on the other's rename."""
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        config = make_config()
        key = cache.key(config, 7, IDENTITY)
        start = threading.Barrier(4)
        errors: list[BaseException] = []

        def store_many() -> None:
            start.wait(timeout=30.0)
            try:
                for _ in range(25):
                    cache.store(key, make_outcome(), config, 7)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=store_many) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [f"{key}.json"]
        assert TrialCache(tmp_path / "cache", code_tag="t0").lookup(key, config, 7) is not None


class TestCodeVersionTag:
    def test_default_covers_trial_relevant_packages(self):
        tag = code_version_tag()
        assert len(tag) == 12
        assert code_version_tag() == tag  # memoized, stable
        assert {"rl", "airdrop"} <= set(CODE_HASH_PACKAGES)

    def test_edited_reward_function_invalidates_entries(self, tmp_path):
        """The whole point of the code tag: a changed reward means a cold cache."""
        from pathlib import Path

        import repro.airdrop as airdrop_pkg

        tree = tmp_path / "airdrop"
        shutil.copytree(Path(airdrop_pkg.__file__).parent, tree)
        tag_before = code_version_tag([tree])
        assert tag_before == code_version_tag([tree])

        rewards = tree / "reward.py"
        source = rewards.read_text()
        rewards.write_text(source.replace("return", "return 0.5 *", 1))
        tag_after = code_version_tag([tree])
        assert tag_after != tag_before

        # entries written under the old tag are dead to a cache on the new one
        store = tmp_path / "store"
        key = stored(TrialCache(store, code_tag=tag_before))
        new = TrialCache(store, code_tag=tag_after)
        assert new.lookup(key, make_config(), 7) is None
        # ... and the new key itself differs, so nothing collides either way
        assert new.key(make_config(), 7, IDENTITY) != key

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        key = stored(TrialCache(tmp_path / "cache", code_tag="t0"))
        for corrupt in ("{ not json", "[1, 2]"):
            (tmp_path / "cache" / f"{key}.json").write_text(corrupt)
            fresh = TrialCache(tmp_path / "cache", code_tag="t0")
            assert fresh.lookup(key, make_config(), 7) is None

    def test_result_level_entry_reads_as_a_miss(self, tmp_path):
        """An entry in the older result-level layout (format_version 1, a
        ``trial`` body) is a miss, and the next store replaces it."""
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        config = make_config()
        key = cache.key(config, 7, IDENTITY)
        write_result_level_entry(cache, key, config, 7)
        assert TrialCache(tmp_path / "cache", code_tag="t0").lookup(key, config, 7) is None
        assert cache.store(key, make_outcome(), config, 7)
        assert TrialCache(tmp_path / "cache", code_tag="t0").lookup(key, config, 7) is not None


def write_result_level_entry(cache: TrialCache, key: str, config: Configuration, seed: int) -> None:
    """The file the result-level cache layout kept at ``<key>.json``."""
    trial = TrialResult(
        config=config,
        objectives={"reward": 1.0},
        status=TrialStatus.COMPLETED,
        seed=seed,
        measurements={"reward": 1.0},
    )
    entry = {
        "format_version": 1,
        "key": key,
        "code": cache.code_tag,
        "seed": seed,
        "trial": trial_to_dict(trial),
        "checkpoints": [],
    }
    with open(f"{cache.path}/{key}.json", "w", encoding="utf-8") as handle:
        json.dump(entry, handle)


# ----------------------------------------------------- campaign-level record
class FlakyCaseStudy:
    """Fails each configuration's first evaluation; counts evaluations."""

    def __init__(self, flaky: bool = True) -> None:
        self.flaky = flaky
        self.calls = 0
        self.seen: set[tuple] = set()

    def evaluate(self, config, seed, progress=None):
        self.calls += 1
        if self.flaky and config.key() not in self.seen:
            self.seen.add(config.key())
            raise RuntimeError("transient")
        if progress is not None:
            progress(10, float(config["quality"]))
        return {"reward": float(config["quality"]), "time": float(config["cost"])}

    def cache_key(self):
        return "flaky-case-study-v1"


def space():
    return ParameterSpace([Categorical("quality", [1, 2, 3, 4]), Categorical("cost", [10, 20])])


class ReversedGrid(Explorer):
    """The grid in reverse, numbered from 1 like :class:`GridSearch`."""

    def __init__(self, space: ParameterSpace) -> None:
        super().__init__(space)
        self._rows = list(space.grid())[::-1]

    def ask(self):
        if self._asked == len(self._rows):
            return None
        return Configuration(self._rows[self._asked]).with_trial_id(self._next_id())


def record_campaign(cache, study=None, explorer=None, **kwargs):
    return Campaign(
        study if study is not None else FlakyCaseStudy(flaky=False),
        space(),
        explorer if explorer is not None else GridSearch(space()),
        MetricSet([Metric(name="reward", direction="max"), Metric(name="time", direction="min")]),
        cache=cache,
        **kwargs,
    )


class TestOneRecordPerKey:
    def test_warm_rows_carry_nothing_of_the_storing_run(self, tmp_path):
        """A hit is committed like a trial this run evaluated: no telemetry
        snapshot and no retry count from the run that stored it."""
        cold = record_campaign(
            tmp_path / "cache",
            study=FlakyCaseStudy(),
            telemetry=Telemetry(RingBufferSink()),
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        ).run()
        assert all(
            {"telemetry", "attempts"} <= set(trial.extras) for trial in cold.table
        )
        study = FlakyCaseStudy()
        warm = record_campaign(tmp_path / "cache", study=study).run()
        assert study.calls == 0
        assert warm.meta["n_cached"] == len(warm.table) == 8
        assert [trial.extras for trial in warm.table] == [{}] * 8
        assert table_fingerprint(warm.table) == table_fingerprint(cold.table)

    def test_hit_commits_under_the_requesting_trial_id(self, tmp_path):
        cold = record_campaign(tmp_path / "cache").run()
        warm = record_campaign(tmp_path / "cache", explorer=ReversedGrid(space())).run()
        assert warm.meta["n_cached"] == 8
        by_values = {trial.config.key(): trial for trial in cold.table}
        for trial in warm.table:
            twin = by_values[trial.config.key()]
            assert trial.trial_id == 9 - twin.trial_id
            assert trial.objectives == twin.objectives

    def test_result_level_cache_reads_cold_once(self, tmp_path):
        cache = TrialCache(tmp_path / "cache")
        campaign = record_campaign(cache)
        identity = campaign._trial_identity()
        for values in space().grid():
            config = Configuration(values)
            write_result_level_entry(cache, cache.key(config, 0, identity), config, 0)
        study = FlakyCaseStudy(flaky=False)
        first = record_campaign(TrialCache(tmp_path / "cache"), study=study).run()
        assert (first.meta["n_cached"], study.calls) == (0, 8)
        again = FlakyCaseStudy(flaky=False)
        second = record_campaign(TrialCache(tmp_path / "cache"), study=again).run()
        assert (second.meta["n_cached"], again.calls) == (8, 0)
        assert len(list((tmp_path / "cache").iterdir())) == 8

    def test_cold_run_removes_the_older_layouts_outcome_files(self, tmp_path):
        """The older layout also kept a ``<key>.outcome.json`` per key; the
        store that re-writes the key removes it, leaving one file per key."""
        cache = TrialCache(tmp_path / "cache")
        identity = record_campaign(cache)._trial_identity()
        keys = []
        for n, values in enumerate(space().grid()):
            config = Configuration(values)
            key = cache.key(config, 0, identity)
            if n % 2:  # the other half left only the outcome-level file
                write_result_level_entry(cache, key, config, 0)
            (tmp_path / "cache" / f"{key}.outcome.json").write_text(json.dumps({"key": key}))
            keys.append(key)
        cold = record_campaign(TrialCache(tmp_path / "cache")).run()
        assert cold.meta["n_cached"] == 0
        files = sorted(path.name for path in (tmp_path / "cache").iterdir())
        assert files == sorted(f"{key}.json" for key in keys)
