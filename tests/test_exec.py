"""Tests for the trial execution subsystem (repro.exec).

Covers the executor determinism matrix (serial / thread / process
campaigns produce byte-identical results tables), the failure paths
(timeout, worker crash, retry-then-succeed), the campaign journal
(round-trip, interrupt-then-resume, identity mismatch, torn tail) and
the concurrency satellites (MedianPruner thread safety, TPE
constant-liar, telemetry merge).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time

import pytest

from repro.core import (
    Campaign,
    Categorical,
    Configuration,
    GridSearch,
    MedianPruner,
    Metric,
    MetricSet,
    NoPruner,
    ParameterSpace,
    RandomSearch,
    TrialStatus,
)
from repro.core.serialization import table_fingerprint, trial_from_dict, trial_to_dict
from repro.core.tpe import TPESampler
from repro.exec import (
    EXECUTORS,
    CampaignJournal,
    JournalMismatch,
    NO_RETRY,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.faults import FaultPlan, NodeCrash
from repro.obs import EVT_TRIAL_RETRIED, RingBufferSink, Telemetry


# --------------------------------------------------------------- fixtures
# module-level so they pickle for the process executor (fork and spawn)
class PicklableCaseStudy:
    """quality/cost follow the config; optional failure/sleep knobs."""

    def __init__(self, fail_on=None, sleep_s=0.0, curve_points=3):
        self.fail_on = set(fail_on or ())
        self.sleep_s = sleep_s
        self.curve_points = curve_points
        self.evaluated = []

    def evaluate(self, config, seed, progress=None):
        self.evaluated.append(config)
        if config["quality"] in self.fail_on:
            raise RuntimeError("boom")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        quality, cost = float(config["quality"]), float(config["cost"])
        if progress is not None:
            for step in range(1, self.curve_points + 1):
                value = quality * step / self.curve_points
                if progress(step, value):
                    return {"reward": value, "time": cost * step / self.curve_points}
        return {"reward": quality + seed * 0.001, "time": cost}


class CrashingCaseStudy:
    """Dies without reporting — the containment worst case."""

    def evaluate(self, config, seed, progress=None):
        os._exit(13)


class FlakyOnceCaseStudy:
    """Fails each trial's first attempt; any later attempt succeeds.

    The sentinel lives on disk so the pattern survives process
    boundaries (a retried process-executor trial is a fresh worker).
    """

    def __init__(self, sentinel_dir):
        self.sentinel_dir = str(sentinel_dir)

    def evaluate(self, config, seed, progress=None):
        marker = os.path.join(self.sentinel_dir, f"{config.trial_id}.attempted")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("x")
            raise RuntimeError("transient")
        return {"reward": float(config["quality"]), "time": float(config["cost"])}


class InterruptingCaseStudy:
    """Raises KeyboardInterrupt (a Ctrl-C) at a chosen trial."""

    def __init__(self, interrupt_at):
        self.interrupt_at = interrupt_at

    def evaluate(self, config, seed, progress=None):
        if config.trial_id == self.interrupt_at:
            raise KeyboardInterrupt
        return {"reward": float(config["quality"]), "time": float(config["cost"])}


class InverseDurationCaseStudy:
    """Early trials run longest, so completion order inverts submission."""

    def evaluate(self, config, seed, progress=None):
        time.sleep(0.05 * (5 - config["quality"]))
        return {"reward": float(config["quality"]), "time": float(config["cost"])}


class SettingsCaseStudy(PicklableCaseStudy):
    """Declares its settings outside the configuration, as the paper's
    study does: ``cache_key()`` and an optional fault plan."""

    def __init__(self, steps=300, n_envs=1, fault_plan=None):
        super().__init__()
        self.steps = steps
        self.n_envs = n_envs
        self.fault_plan = fault_plan

    def cache_key(self):
        return {"steps": self.steps, "n_envs": self.n_envs}


def space():
    return ParameterSpace(
        [Categorical("quality", [1, 2, 3, 4]), Categorical("cost", [10, 20])]
    )


def metrics():
    return MetricSet(
        [Metric(name="reward", direction="max"), Metric(name="time", direction="min")]
    )


def campaign(study=None, **kwargs):
    return Campaign(
        study if study is not None else PicklableCaseStudy(),
        space(),
        GridSearch(space()),
        metrics(),
        **kwargs,
    )


# ------------------------------------------------------------ retry policy
class TestRetryPolicy:
    def test_defaults_and_validation(self):
        assert NO_RETRY.max_retries == 0
        assert not NO_RETRY.should_retry(0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_retries=5, backoff_s=1.0, backoff_factor=2.0,
                             max_backoff_s=3.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 2.0
        assert policy.delay(2) == 3.0  # capped
        assert policy.should_retry(4) and not policy.should_retry(5)

    def test_of_normalizes_int_and_none(self):
        assert RetryPolicy.of(None) is NO_RETRY
        assert RetryPolicy.of(3).max_retries == 3
        policy = RetryPolicy(max_retries=1)
        assert RetryPolicy.of(policy) is policy


# ------------------------------------------------------------- executors
class TestExecutorRegistry:
    def test_registry_and_factory(self):
        # "remote" registers lazily when repro.net first imports, so the
        # built-ins are a floor, not the whole set
        assert {"serial", "thread", "process"} <= set(EXECUTORS)
        assert set(EXECUTORS) <= {"serial", "thread", "process", "remote"}
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert make_executor("thread", 2).max_workers == 2
        with pytest.raises(ValueError):
            make_executor("cluster")
        with pytest.raises(ValueError):
            ThreadExecutor(max_workers=0)

    def test_remote_registers_lazily_through_factory(self):
        executor = make_executor("remote", 2)
        try:
            assert executor.name == "remote"
            assert executor.max_workers == 2
            assert "remote" in EXECUTORS
        finally:
            executor.shutdown()

    def test_serial_pins_max_workers_to_one(self):
        assert SerialExecutor(max_workers=8).max_workers == 1


class TestDeterminismMatrix:
    """Serial, thread and process campaigns make identical decisions."""

    def fingerprint(self, executor, **kwargs):
        report = campaign(executor=executor, max_workers=3,
                          seed_strategy="increment", **kwargs).run()
        assert report.meta["n_completed"] == 8
        return table_fingerprint(report.table)

    def test_thread_matches_serial(self):
        assert self.fingerprint("thread") == self.fingerprint(None)

    def test_process_matches_serial(self):
        reference = self.fingerprint(None)
        assert self.fingerprint(ProcessExecutor(3, mp_context="fork")) == reference

    def test_spawn_process_matches_serial(self):
        reference = self.fingerprint(None)
        spawned = self.fingerprint(ProcessExecutor(2, mp_context="spawn"))
        assert spawned == reference

    def test_results_commit_in_submission_order(self):
        # completion order is inverted (trial 1 slowest); the table and
        # the explorer must still see submission order
        report = campaign(InverseDurationCaseStudy(), executor="thread",
                          max_workers=4).run()
        ids = [t.trial_id for t in report.table]
        assert ids == sorted(ids)

    def test_fingerprint_ignores_wallclock_noise(self):
        a = campaign().run()
        b = campaign().run()
        assert table_fingerprint(a.table) == table_fingerprint(b.table)


# ------------------------------------------------------------ failure paths
class TestTimeouts:
    def test_thread_trial_past_deadline_becomes_timeout_failure(self):
        study = PicklableCaseStudy(sleep_s=1.0)
        report = campaign(study, executor="thread", max_workers=2,
                          trial_timeout=0.15).run()
        assert report.meta["n_failed"] == 8
        for trial in report.table:
            assert trial.status == TrialStatus.FAILED
            assert trial.extras["failure_kind"] == "timeout"
            assert "timeout" in trial.extras["error"]

    def test_process_trial_past_deadline_is_terminated(self):
        study = PicklableCaseStudy(sleep_s=30.0)
        start = time.monotonic()
        report = campaign(study, executor=ProcessExecutor(2, mp_context="fork"),
                          trial_timeout=0.3).run()
        assert time.monotonic() - start < 25.0  # workers were killed, not waited
        assert report.meta["n_failed"] == 8
        assert all(t.extras["failure_kind"] == "timeout" for t in report.table)

    def test_serial_ignores_timeout(self):
        report = campaign(PicklableCaseStudy(sleep_s=0.01),
                          trial_timeout=0.001).run()
        assert report.meta["n_completed"] == 8


class TestCrashContainment:
    def test_dead_worker_becomes_crashed_failure_not_poisoned_pool(self):
        report = campaign(CrashingCaseStudy(),
                          executor=ProcessExecutor(2, mp_context="fork")).run()
        assert report.meta["n_failed"] == 8
        for trial in report.table:
            assert trial.extras["failure_kind"] == "crashed"
            assert "exitcode" in trial.extras["error"]

    def test_crash_then_healthy_trials_still_complete(self):
        # only quality==1 crashes; the other six trials must survive
        study = PicklableCaseStudy(fail_on={1})
        report = campaign(study,
                          executor=ProcessExecutor(2, mp_context="fork")).run()
        assert report.meta["n_completed"] == 6
        assert report.meta["n_failed"] == 2


class TestRetries:
    @pytest.mark.parametrize("executor", [
        None,
        "thread",
        ProcessExecutor(2, mp_context="fork"),
    ])
    def test_flaky_trials_retry_then_succeed(self, tmp_path, executor):
        sink = RingBufferSink()
        study = FlakyOnceCaseStudy(tmp_path)
        report = campaign(
            study,
            executor=executor,
            max_workers=2,
            retry=RetryPolicy(max_retries=2, backoff_s=0.0),
            telemetry=Telemetry(sink),
        ).run()
        assert report.meta["n_completed"] == 8
        assert report.meta["n_retried"] == 8
        assert all(t.extras["attempts"] == 2 for t in report.table)
        retried = sink.events(EVT_TRIAL_RETRIED)
        assert len(retried) == 8
        assert all(e["fields"]["status"] == "failed" for e in retried)

    def test_deterministic_failure_burns_attempts_then_fails(self):
        study = PicklableCaseStudy(fail_on={1, 2, 3, 4})
        report = campaign(study, retry=1).run()
        assert report.meta["n_failed"] == 8
        assert report.meta["n_retried"] == 8
        assert all(t.extras["attempts"] == 2 for t in report.table)
        # serial executor shares the study: 8 trials x 2 attempts
        assert len(study.evaluated) == 16

    def test_retry_keeps_config_and_seed(self, tmp_path):
        study = FlakyOnceCaseStudy(tmp_path)
        report = campaign(study, retry=1, base_seed=9,
                          seed_strategy="increment").run()
        assert all(t.seed == 9 + t.trial_id for t in report.table)

    def test_raise_on_error_propagates_after_retries(self):
        study = PicklableCaseStudy(fail_on={1, 2, 3, 4})
        with pytest.raises(RuntimeError, match="boom"):
            campaign(study, retry=1, raise_on_error=True).run()


# ---------------------------------------------------------------- journal
class TestJournal:
    def test_round_trip_replays_without_reevaluation(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = campaign(journal=CampaignJournal(path))
        first.run()
        study = PicklableCaseStudy()
        resumed = campaign(study, journal=CampaignJournal.resume(path))
        report = resumed.run()
        assert study.evaluated == []  # everything replayed
        assert report.meta["n_replayed"] == 8
        assert report.meta["n_completed"] == 8

    def test_resumed_table_matches_original(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        original = campaign(journal=CampaignJournal(path)).run()
        resumed = campaign(journal=CampaignJournal.resume(path)).run()
        assert table_fingerprint(resumed.table) == table_fingerprint(original.table)

    def test_interrupt_then_resume_skips_completed_trials(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with pytest.raises(KeyboardInterrupt):
            campaign(InterruptingCaseStudy(interrupt_at=5),
                     journal=CampaignJournal(path)).run()
        recorded = CampaignJournal.resume(path).n_recorded
        assert 0 < recorded < 8
        study = PicklableCaseStudy()
        report = campaign(study, journal=CampaignJournal.resume(path)).run()
        assert report.meta["n_completed"] == 8
        assert len(study.evaluated) == 8 - recorded
        assert {t.trial_id for t in report.table} == set(range(1, 9))

    def test_resume_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignJournal.resume(tmp_path / "nope.jsonl")

    def test_identity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        campaign(journal=CampaignJournal(path), base_seed=0).run()
        with pytest.raises(JournalMismatch):
            campaign(journal=CampaignJournal.resume(path), base_seed=1).run()

    def test_identity_mismatch_names_the_field(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        campaign(journal=CampaignJournal(path), base_seed=0).run()
        with pytest.raises(JournalMismatch, match="base_seed"):
            campaign(journal=CampaignJournal.resume(path), base_seed=1).run()

    def test_space_mismatch_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        campaign(journal=CampaignJournal(path)).run()
        grown = ParameterSpace(
            [Categorical("quality", [1, 2, 3, 4, 5]), Categorical("cost", [10, 20])]
        )
        other = Campaign(
            PicklableCaseStudy(),
            grown,
            GridSearch(grown),
            metrics(),
            journal=CampaignJournal.resume(path),
        )
        with pytest.raises(JournalMismatch, match="space"):
            other.run()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        report = campaign(journal=CampaignJournal(path)).run()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "trial", "trial_id": 99, "conf')  # torn write
        journal = CampaignJournal.resume(path)
        assert journal.n_recorded == 8
        # read back in commit order as trial_to_dict wrote the rows
        assert list(CampaignJournal.committed_trials(path)) == [
            trial_to_dict(t) for t in report.table
        ]
        assert list(CampaignJournal.committed_trials(tmp_path / "nope.jsonl")) == []

    def test_torn_header_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "campaign", "format_version": 1, "explo\n')
        with pytest.raises(JournalMismatch, match="header"):
            CampaignJournal.resume(path)

    def test_non_campaign_header_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "trial", "trial_id": 1}\n')
        with pytest.raises(JournalMismatch, match="header"):
            CampaignJournal.resume(path)

    def test_lookup_requires_matching_config(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CampaignJournal(path)
        journal.open({"explorer": "X", "base_seed": 0,
                      "seed_strategy": "fixed", "metrics": ["reward"]})
        trial = trial_from_dict(trial_to_dict(
            campaign().run().table[1]
        ))
        journal.record(trial, [(1, 0.5)])
        same = Configuration(trial.config.as_dict(), trial_id=trial.trial_id)
        hit = journal.lookup(same)
        assert hit is not None and hit[1] == [(1, 0.5)]
        other = Configuration({**trial.config.as_dict(), "quality": 999},
                              trial_id=trial.trial_id)
        assert journal.lookup(other) is None

    def test_failed_trials_are_journaled_too(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        campaign(PicklableCaseStudy(fail_on={2}),
                 journal=CampaignJournal(path)).run()
        rows = [json.loads(line) for line in open(path, encoding="utf-8")]
        statuses = [r["status"] for r in rows if r["type"] == "trial"]
        assert statuses.count(TrialStatus.FAILED) == 2
        # resuming replays the failure instead of re-running it
        report = campaign(journal=CampaignJournal.resume(path)).run()
        assert report.meta["n_failed"] == 2
        assert report.meta["n_replayed"] == 8


def edited_code(monkeypatch):
    monkeypatch.setattr("repro.core.campaign.code_version_tag", lambda: "0123456789ab")
    return {}


GROWN = ParameterSpace(
    [Categorical("quality", [1, 2, 3, 4, 5]), Categorical("cost", [10, 20])]
)

#: per field of Campaign.identity(), the campaign arguments (or patch)
#: that change that field and no other
IDENTITY_CHANGES = {
    "space": lambda mp: {"space": GROWN, "explorer": GridSearch(GROWN)},
    "fault_plan": lambda mp: {
        "case_study": SettingsCaseStudy(
            fault_plan=FaultPlan(node_crashes=(NodeCrash(node=1, at=0.5),))
        )
    },
    "metrics": lambda mp: {
        "metrics": MetricSet([Metric(name="reward", direction="max"),
                              Metric(name="cost", direction="min", key="time")])
    },
    "study": lambda mp: {"case_study": SettingsCaseStudy(steps=600, n_envs=2)},
    "explorer": lambda mp: {"explorer": RandomSearch(space(), n_trials=8, seed=0)},
    "base_seed": lambda mp: {"base_seed": 1},
    "seed_strategy": lambda mp: {"seed_strategy": "increment"},
    "code": edited_code,
}


def settings_campaign(journal=None, **changes):
    args = {
        "case_study": SettingsCaseStudy(),
        "space": space(),
        "explorer": GridSearch(space()),
        "metrics": metrics(),
        **changes,
    }
    return Campaign(journal=journal, **args)


class TestJournalIdentity:
    """The journal header is the whole of Campaign.identity(), and a
    resume that differs from it in any one field is refused."""

    def test_cases_cover_every_identity_field(self):
        assert set(IDENTITY_CHANGES) == set(settings_campaign().identity())

    @pytest.mark.parametrize("field", list(IDENTITY_CHANGES))
    def test_resume_differing_in_one_field_is_refused(self, field, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        original = settings_campaign(CampaignJournal(path))
        original.run()
        journaled = path.read_bytes()
        before = original.identity()
        resumed = settings_campaign(
            CampaignJournal.resume(path), **IDENTITY_CHANGES[field](monkeypatch)
        )
        after = resumed.identity()
        assert [key for key in before if before[key] != after[key]] == [field]
        with pytest.raises(JournalMismatch, match=f"different campaign: {field}="):
            resumed.run()
        assert resumed.case_study.evaluated == []
        assert path.read_bytes() == journaled

    def test_unchanged_resume_compares_the_header_in_json_form(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        study = SettingsCaseStudy()
        study.cache_key = lambda: {"env_kwargs": ("wind", True)}  # a tuple reads back as a list
        original = settings_campaign(CampaignJournal(path), case_study=study).run()
        header = json.loads(path.read_text().splitlines()[0])
        assert header.pop("topology") == {"executor": "serial", "max_workers": 1}
        assert header == {
            "type": "campaign",
            "format_version": 2,
            **settings_campaign(case_study=study).identity(),
            "study": {"env_kwargs": ["wind", True]},
        }
        study.evaluated.clear()
        resumed = settings_campaign(CampaignJournal.resume(path), case_study=study).run()
        assert study.evaluated == []
        assert resumed.meta["n_replayed"] == 8
        assert table_fingerprint(resumed.table) == table_fingerprint(original.table)

    def test_format_version_1_journal_is_refused_naming_the_version(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        settings_campaign(CampaignJournal(path)).run()
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        for field in ("study", "code"):
            del header[field]
        header["format_version"] = 1
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        journaled = path.read_bytes()
        with pytest.raises(JournalMismatch, match="format version 1"):
            settings_campaign(CampaignJournal.resume(path)).run()
        assert path.read_bytes() == journaled


# --------------------------------------------- concurrent pruner / explorer
class TestMedianPrunerConcurrency:
    def test_concurrent_reports_are_consistent(self):
        pruner = MedianPruner(n_startup_trials=1)
        errors = []

        def hammer(trial_id):
            try:
                for step in range(1, 51):
                    pruner.report(trial_id, step, float(trial_id * step))
                pruner.finish(trial_id)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(pruner._finished) == 8
        assert all(len(pruner._histories[i]) == 50 for i in range(8))

    def test_out_of_order_and_duplicate_steps_tolerated(self):
        pruner = MedianPruner(n_startup_trials=1, interval=3)
        # steps arrive out of order; duplicates must not advance the cadence
        assert pruner.report(1, 5, 0.5) is False  # 1 distinct step
        assert pruner.report(1, 5, 0.5) is False  # still 1
        pruner.report(1, 2, 0.2)
        pruner.finish(2) or None
        pruner._histories[2][5] = 10.0
        # third distinct step hits the interval and sees peer data
        assert pruner.report(1, 9, 0.1) is True

    def test_absorb_feeds_comparison_data(self):
        pruner = MedianPruner(n_startup_trials=1)
        pruner.absorb(1, [(1, 10.0), (2, 20.0)])
        pruner.finish(1)
        assert pruner.report(2, 2, 0.5) is True  # well under the median

    def test_pickle_round_trip_preserves_state_and_lock(self):
        pruner = MedianPruner(n_startup_trials=1)
        pruner.absorb(1, [(1, 5.0)])
        pruner.finish(1)
        clone = pickle.loads(pickle.dumps(pruner))
        assert clone._histories[1] == {1: 5.0}
        assert clone.report(2, 1, 0.1) is True  # lock was rebuilt

    def test_campaign_with_pruner_on_thread_executor(self):
        report = campaign(pruner=MedianPruner(n_startup_trials=2),
                          executor="thread", max_workers=2).run()
        assert report.meta["n_trials"] == 8


class TestTPEConstantLiar:
    def make_sampler(self):
        sampler = TPESampler(space(), n_trials=50, seed=1, n_startup=4)
        for q, c in [(1, 10), (2, 20), (3, 10), (4, 20)]:
            config = Configuration({"quality": q, "cost": c})
            sampler.tell(config, {"loss": float(q)})
        return sampler

    def test_pending_configs_are_imputed_as_bad(self):
        sampler = self.make_sampler()
        pending = Configuration({"quality": 4, "cost": 10})
        sampler.mark_pending(pending)
        good, bad = sampler._split()
        assert any(cfg.key() == pending.key() for cfg in bad)
        assert not any(cfg.key() == pending.key() for cfg in good)

    def test_tell_and_clear_drop_the_lie(self):
        sampler = self.make_sampler()
        pending = Configuration({"quality": 4, "cost": 10})
        sampler.mark_pending(pending)
        assert sampler.n_pending == 1
        sampler.tell(pending, {"loss": 0.5})
        assert sampler.n_pending == 0
        sampler.mark_pending(pending)
        sampler.clear_pending(pending)
        assert sampler.n_pending == 0

    def test_parallel_campaign_with_tpe_completes(self):
        sampler = TPESampler(space(), n_trials=12, seed=3, n_startup=4)
        report = Campaign(
            PicklableCaseStudy(), space(), sampler, metrics(),
            executor="thread", max_workers=3,
        ).run()
        assert report.meta["n_trials"] == 12
        assert sampler.n_pending == 0  # every lie resolved


# ------------------------------------------------------- telemetry merging
class TestTelemetryAcrossExecutors:
    def test_thread_records_merge_with_worker_attribution(self):
        sink = RingBufferSink()
        report = campaign(executor="thread", max_workers=2,
                          telemetry=Telemetry(sink)).run()
        trial_spans = [s for s in sink.spans() if s["name"] == "trial"]
        assert len(trial_spans) == 8
        ids = [s["id"] for s in sink.spans()]
        assert len(ids) == len(set(ids))  # re-based, no collisions
        workers = {s["ctx"]["worker"] for s in trial_spans}
        assert all(w.startswith("trial") for w in workers)
        # aggregate meters snapshot still lands in meta
        assert "telemetry" in report.meta

    def test_process_records_come_home_rebased(self):
        sink = RingBufferSink()
        campaign(executor=ProcessExecutor(2, mp_context="fork"),
                 telemetry=Telemetry(sink)).run()
        trial_spans = [s for s in sink.spans() if s["name"] == "trial"]
        assert len(trial_spans) == 8
        assert all(s["ctx"]["worker"].startswith("proc-") for s in trial_spans)
        assert {s["fields"]["trial_id"] for s in trial_spans} == set(range(1, 9))

    def test_serial_path_still_shares_the_campaign_telemetry(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        report = campaign(telemetry=telem).run()
        trial_spans = [s for s in sink.spans() if s["name"] == "trial"]
        assert len(trial_spans) == 8
        assert all("worker" not in (s.get("ctx") or {}) for s in trial_spans)
        assert report.meta["telemetry"] is not None
