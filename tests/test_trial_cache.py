"""Content-addressed trial cache: keys, persistence, code-version guard.

The campaign-level integration (cold run trains, warm run commits every
trial from cache with zero env steps and a byte-identical table) lives
in :mod:`tests.test_vector_determinism`; this module covers the cache
itself.
"""

from __future__ import annotations

import shutil
import sys
import threading

import pytest

from repro.core import Configuration, TrialResult, TrialStatus
from repro.exec import CODE_HASH_PACKAGES, TrialCache, code_version_tag

IDENTITY = {"space": "abc", "fault_plan": "", "metrics": ["reward"], "study": {"s": 1}}


def make_trial(trial_id: int = 1, status: str = TrialStatus.COMPLETED) -> TrialResult:
    return TrialResult(
        config=Configuration({"rk": 3, "fw": "stable"}, trial_id=trial_id),
        objectives={"reward": -1.5} if status == TrialStatus.COMPLETED else {},
        status=status,
        seed=7,
        measurements={"reward": -1.5, "eval_reward": -2.0},
        extras={"learning_curve": [[100, -3.0]]},
    )


class TestKeys:
    def test_key_is_stable(self):
        cache = TrialCache(code_tag="t0")
        trial = make_trial()
        k1 = cache.key(trial.config, 7, IDENTITY)
        k2 = cache.key(trial.config, 7, IDENTITY)
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
        trial = make_trial()
        key = cache.key(trial.config, 7, IDENTITY)
        assert cache.store(key, trial, [(100, -3.0)])
        hit = cache.lookup(key, trial.config, 7)
        assert hit is not None
        got, checkpoints = hit
        assert got.objectives == trial.objectives
        assert got.extras == trial.extras
        assert checkpoints == [(100, -3.0)]
        assert cache.hits == 1

    def test_lookup_renumbers_to_requesting_campaign(self):
        cache = TrialCache(code_tag="t0")
        trial = make_trial(trial_id=1)
        key = cache.key(trial.config, 7, IDENTITY)
        cache.store(key, trial)
        later = Configuration(trial.config.as_dict(), trial_id=14)
        got, _ = cache.lookup(key, later, 7)
        assert got.trial_id == 14

    def test_persists_across_instances(self, tmp_path):
        first = TrialCache(tmp_path / "cache", code_tag="t0")
        trial = make_trial()
        key = first.key(trial.config, 7, IDENTITY)
        first.store(key, trial)
        second = TrialCache(tmp_path / "cache", code_tag="t0")
        assert second.lookup(key, trial.config, 7) is not None

    def test_only_completed_trials_stored(self):
        cache = TrialCache(code_tag="t0")
        failed = make_trial(status=TrialStatus.FAILED)
        key = cache.key(failed.config, 7, IDENTITY)
        assert not cache.store(key, failed)
        assert cache.lookup(key, failed.config, 7) is None

    def test_mismatched_seed_misses(self):
        cache = TrialCache(code_tag="t0")
        trial = make_trial()
        key = cache.key(trial.config, 7, IDENTITY)
        cache.store(key, trial)
        assert cache.lookup(key, trial.config, 8) is None

    def test_concurrent_threads_store_one_key(self, tmp_path):
        """Concurrent serve jobs share one cache and may commit the same
        trial at once; neither store may fail on the other's rename."""
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        trial = make_trial()
        key = cache.key(trial.config, 7, IDENTITY)
        start = threading.Barrier(4)
        errors: list[BaseException] = []

        def store_many() -> None:
            start.wait(timeout=30.0)
            try:
                for _ in range(25):
                    cache.store(key, trial)
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
        assert TrialCache(tmp_path / "cache", code_tag="t0").lookup(
            key, trial.config, 7
        ) is not None


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
        old = TrialCache(store, code_tag=tag_before)
        trial = make_trial()
        key = old.key(trial.config, 7, IDENTITY)
        old.store(key, trial)
        new = TrialCache(store, code_tag=tag_after)
        assert new.lookup(key, trial.config, 7) is None
        # ... and the new key itself differs, so nothing collides either way
        assert new.key(trial.config, 7, IDENTITY) != key

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path / "cache", code_tag="t0")
        trial = make_trial()
        key = cache.key(trial.config, 7, IDENTITY)
        cache.store(key, trial)
        (tmp_path / "cache" / f"{key}.json").write_text("{ not json")
        fresh = TrialCache(tmp_path / "cache", code_tag="t0")
        assert fresh.lookup(key, trial.config, 7) is None
