"""Tests for the telemetry subsystem: events, spans, meters, campaign wiring."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import (
    Campaign,
    Categorical,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
    TrialStatus,
    dump_report,
    load_table,
)
from repro.obs import (
    EVT_CAMPAIGN_FINISHED,
    EVT_CAMPAIGN_STARTED,
    EVT_CHECKPOINT,
    EVT_EXPLORER_ASK,
    EVT_EXPLORER_TELL,
    EVT_TRIAL_FAILED,
    EVT_TRIAL_FINISHED,
    EVT_TRIAL_PRUNED,
    EVT_TRIAL_STARTED,
    NULL_TELEMETRY,
    Histogram,
    JsonlSink,
    MeterRegistry,
    RingBufferSink,
    SpanTracer,
    Telemetry,
    load_records,
)
from repro.obs.meters import _percentile


def space():
    return ParameterSpace(
        [Categorical("quality", [1, 2, 3, 4]), Categorical("cost", [10, 20])]
    )


def metrics():
    return MetricSet(
        [Metric(name="reward", direction="max"), Metric(name="time", direction="min")]
    )


class SyntheticCaseStudy:
    """Toy study; optionally fails on chosen quality values."""

    def __init__(self, fail_on=None, curve_points=3):
        self.fail_on = fail_on or set()
        self.curve_points = curve_points
        self.seeds_seen = []

    def evaluate(self, config, seed, progress=None):
        self.seeds_seen.append(seed)
        if config["quality"] in self.fail_on:
            raise RuntimeError("boom")
        if progress is not None:
            for step in range(1, self.curve_points + 1):
                if progress(step, config["quality"] * step / self.curve_points):
                    break
        return {"reward": float(config["quality"]), "time": float(config["cost"])}


class TelemetryAwareCaseStudy(SyntheticCaseStudy):
    """A study that opts into the telemetry keyword and opens phase spans."""

    def evaluate(self, config, seed, progress=None, telemetry=None):
        self.telemetry_seen = telemetry
        telem = Telemetry.or_null(telemetry)
        with telem.span("rollout", iteration=0):
            telem.trial_meters.counter("env_steps").inc(10)
        with telem.span("update", iteration=0):
            telem.trial_meters.histogram("update_s").observe(0.5)
        return super().evaluate(config, seed, progress=progress)


# --------------------------------------------------------------------- sinks
class TestSinks:
    def test_ring_buffer_caps_capacity(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit({"type": "event", "name": f"e{i}"})
        assert [r["name"] for r in sink.records] == ["e2", "e3", "e4"]

    def test_ring_buffer_filters(self):
        sink = RingBufferSink()
        sink.emit({"type": "event", "name": "a"})
        sink.emit({"type": "span", "name": "s"})
        assert len(sink.events()) == 1
        assert len(sink.events("a")) == 1
        assert sink.events("nope") == []
        assert len(sink.spans()) == 1

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with JsonlSink(path) as sink:
            sink.emit({"type": "event", "name": "hello", "fields": {"x": 1}})
            sink.emit({"type": "span", "name": "s", "t_start": 0.0, "t_end": 1.0})
        records = load_records(path)
        assert len(records) == 2
        assert records[0]["name"] == "hello"
        assert records[0]["fields"] == {"x": 1}

    def test_jsonl_coerces_numpy(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        with JsonlSink(path) as sink:
            sink.emit({"type": "event", "name": "np", "fields": {"v": np.float64(2.5)}})
        assert load_records(path)[0]["fields"]["v"] == 2.5


# --------------------------------------------------------------------- spans
class TestSpanTracer:
    def test_nesting_parent_ids(self):
        sink = RingBufferSink()
        tracer = SpanTracer(emit=sink.emit)
        with tracer.span("outer") as outer:
            assert tracer.current_id == outer.span_id
            with tracer.span("inner") as inner:
                assert tracer.depth == 2
        records = sink.spans() if hasattr(sink, "spans") else sink.records
        by_name = {r["name"]: r for r in sink.records}
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["outer"]["parent"] is None
        # inner closes (and is emitted) first
        assert [r["name"] for r in sink.records] == ["inner", "outer"]
        assert inner.duration >= 0.0

    def test_record_explicit_interval(self):
        sink = RingBufferSink()
        tracer = SpanTracer(emit=sink.emit)
        with tracer.span("outer"):
            tracer.record("measured", 1.0, 3.0, extra="x")
        rec = sink.records[0]
        assert rec["name"] == "measured"
        assert rec["t_end"] - rec["t_start"] == 2.0
        assert rec["parent"] is not None  # defaults to the open span
        assert rec["fields"]["extra"] == "x"

    def test_span_set_fields(self):
        tracer = SpanTracer(keep=True)
        with tracer.span("s") as span:
            span.set(steps=7)
        assert tracer.finished[0].fields["steps"] == 7


# -------------------------------------------------------------------- meters
class TestMeters:
    def test_counter_gauge_histogram(self):
        reg = MeterRegistry()
        reg.counter("n").inc()
        reg.counter("n").inc(2)
        reg.gauge("g").set(4.5)
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["gauges"]["g"] == 4.5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["mean"] == 2.5
        assert hist["max"] == 4.0
        assert hist["p50"] == 2.5

    def test_empty_histogram_snapshot(self):
        assert MeterRegistry().histogram("h").snapshot() == {"count": 0}

    def test_merge_is_exact(self):
        a, b = MeterRegistry(), MeterRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        b.gauge("g").set(9.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["n"] == 3
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 2.0
        assert snap["gauges"]["g"] == 9.0

    def test_snapshot_is_json_safe(self):
        reg = MeterRegistry()
        reg.counter("n").inc()
        reg.histogram("h").observe(1.5)
        json.dumps(reg.snapshot())

    def test_percentiles_equal_numpy_bit_for_bit(self):
        """numpy's default (linear) percentile, ties and both ends of the
        range included, from one to a thousand observations."""
        rng = np.random.default_rng(0)
        for size in [*range(1, 40), 100, 1000]:
            for values in (
                rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7),
                rng.integers(0, 4, size).astype(float),
            ):
                for q in (0, 12.5, 50, 95, 99.9, 100):
                    expected = np.percentile(values, q)
                    assert _percentile(np.sort(values), q) == expected, (size, q)
                hist = Histogram()
                for value in values:
                    hist.observe(value)
                snap = hist.snapshot()
                assert snap["p50"] == np.percentile(values, 50)
                assert snap["p95"] == np.percentile(values, 95)

    def test_percentiles_of_nan_and_infinity_follow_numpy(self):
        for values in ([1.0, np.inf], [-np.inf, 1.0], [np.inf, np.inf], [2.0, np.nan, 1.0]):
            for q in (0, 12.5, 50, 95, 100):
                with np.errstate(invalid="ignore"):
                    expected = float(np.percentile(values, q))
                    got = _percentile(np.sort(values), q)
                assert repr(got) == repr(expected), (values, q)

    def test_snapshot_leaves_numpy_ma_unimported(self):
        """np.percentile would import all of numpy.ma (about 1 MB of
        resident memory) into every process that snapshots telemetry."""
        code = (
            "import sys\n"
            "from repro.obs import MeterRegistry\n"
            "reg = MeterRegistry()\n"
            "for value in (3.0, 1.0, 2.0):\n"
            "    reg.histogram('h').observe(value)\n"
            "reg.snapshot()\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"


# ----------------------------------------------------------------- telemetry
class TestTelemetry:
    def test_context_injected_into_events_and_spans(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        telem.set_context(trial_id=7)
        telem.event("ping", x=1)
        with telem.span("work"):
            pass
        event, span = sink.records
        assert event["fields"] == {"trial_id": 7, "x": 1}
        assert span["ctx"] == {"trial_id": 7}
        telem.clear_context("trial_id")
        telem.event("pong")
        assert sink.records[-1]["fields"] == {}

    def test_meter_stack_merges_into_aggregate(self):
        telem = Telemetry(RingBufferSink())
        trial = telem.push_meters()
        assert telem.trial_meters is trial
        trial.counter("env_steps").inc(5)
        telem.pop_meters()
        assert telem.meters.snapshot()["counters"]["env_steps"] == 5
        assert telem.trial_meters is telem.meters

    def test_emit_record_attaches_context(self):
        sink = RingBufferSink()
        telem = Telemetry(sink)
        telem.set_context(trial_id=3)
        telem.emit_record({"type": "vspan", "kind": "task", "name": "t"})
        assert sink.records[0]["ctx"] == {"trial_id": 3}

    def test_null_telemetry_is_inert(self):
        telem = Telemetry.disabled()
        assert telem is NULL_TELEMETRY
        assert not telem.enabled
        telem.event("x", a=1)
        with telem.span("s") as span:
            span.set(a=1)
        telem.trial_meters.counter("n").inc()
        telem.push_meters()
        telem.pop_meters()
        telem.emit_records([{"type": "vspan"}])
        telem.close()
        assert Telemetry.or_null(None) is NULL_TELEMETRY
        live = Telemetry(RingBufferSink())
        assert Telemetry.or_null(live) is live


# ----------------------------------------------------------- campaign wiring
class TestCampaignTelemetry:
    def run_campaign(self, case_study=None, telemetry=None, **kwargs):
        campaign = Campaign(
            case_study or SyntheticCaseStudy(),
            space(),
            GridSearch(space()),
            metrics(),
            telemetry=telemetry,
            **kwargs,
        )
        return campaign.run(), campaign

    def test_event_stream_covers_trial_lifecycle(self):
        sink = RingBufferSink()
        report, _ = self.run_campaign(telemetry=Telemetry(sink))
        names = [r["name"] for r in sink.events()]
        assert names[0] == EVT_CAMPAIGN_STARTED
        assert names[-1] == EVT_CAMPAIGN_FINISHED
        assert names.count(EVT_TRIAL_STARTED) == 8
        assert names.count(EVT_TRIAL_FINISHED) == 8
        assert names.count(EVT_EXPLORER_ASK) == 8
        assert names.count(EVT_EXPLORER_TELL) == 8
        assert names.count(EVT_CHECKPOINT) == 8 * 3
        # one real-time trial span per trial, tagged with its id
        trial_spans = [s for s in sink.spans() if s["name"] == "trial"]
        assert len(trial_spans) == 8
        assert {s["fields"]["trial_id"] for s in trial_spans} == set(range(1, 9))

    def test_failed_trial_emits_event_with_exception_repr(self):
        sink = RingBufferSink()
        report, _ = self.run_campaign(
            SyntheticCaseStudy(fail_on={2}), telemetry=Telemetry(sink)
        )
        failed_events = sink.events(EVT_TRIAL_FAILED)
        assert len(failed_events) == 2
        assert "RuntimeError('boom')" in failed_events[0]["fields"]["error"]
        assert report.meta["n_failed"] == 2

    def test_pruned_trial_emits_pruned_event(self):
        class PruneAll:
            def report(self, trial_id, step, value):
                return True

            def finish(self, trial_id):
                pass

        sink = RingBufferSink()
        report, _ = self.run_campaign(telemetry=Telemetry(sink), pruner=PruneAll())
        assert len(sink.events(EVT_TRIAL_PRUNED)) == 8
        assert report.meta["n_pruned"] == 8
        assert report.meta["n_completed"] == 0

    def test_per_trial_meters_land_in_extras_and_meta(self):
        telem = Telemetry(RingBufferSink())
        report, _ = self.run_campaign(TelemetryAwareCaseStudy(), telemetry=telem)
        for trial in report.table:
            snap = trial.extras["telemetry"]
            assert snap["counters"]["env_steps"] == 10
            assert snap["histograms"]["update_s"]["count"] == 1
        agg = report.meta["telemetry"]
        assert agg["counters"]["env_steps"] == 80
        assert agg["histograms"]["update_s"]["count"] == 8

    def test_telemetry_kwarg_reaches_opted_in_case_study(self):
        telem = Telemetry(RingBufferSink())
        study = TelemetryAwareCaseStudy()
        self.run_campaign(study, telemetry=telem)
        assert study.telemetry_seen is telem

    def test_legacy_case_study_never_sees_telemetry(self):
        # SyntheticCaseStudy has no telemetry kwarg: must not be passed one
        report, _ = self.run_campaign(telemetry=Telemetry(RingBufferSink()))
        assert report.meta["n_completed"] == 8

    def test_phase_spans_nest_under_trial_span(self):
        sink = RingBufferSink()
        self.run_campaign(TelemetryAwareCaseStudy(), telemetry=Telemetry(sink))
        spans = sink.spans()
        trial_ids = {s["id"] for s in spans if s["name"] == "trial"}
        for name in ("rollout", "update"):
            children = [s for s in spans if s["name"] == name]
            assert len(children) == 8
            assert all(s["parent"] in trial_ids for s in children)

    def test_disabled_by_default(self):
        report, campaign = self.run_campaign()
        assert not campaign.telemetry.enabled
        assert "telemetry" not in report.meta
        assert all("telemetry" not in t.extras for t in report.table)


class TestCampaignSatellites:
    def test_duration_recorded_per_trial(self):
        campaign = Campaign(SyntheticCaseStudy(), space(), GridSearch(space()), metrics())
        report = campaign.run()
        assert all(t.duration_s > 0.0 for t in report.table)

    def test_meta_counts_failures_and_prunes(self):
        campaign = Campaign(
            SyntheticCaseStudy(fail_on={3}), space(), GridSearch(space()), metrics()
        )
        report = campaign.run()
        assert report.meta["n_trials"] == 8
        assert report.meta["n_completed"] == 6
        assert report.meta["n_failed"] == 2
        assert report.meta["n_pruned"] == 0

    def test_fixed_seed_strategy_is_default(self):
        study = SyntheticCaseStudy()
        Campaign(study, space(), GridSearch(space()), metrics(), base_seed=42).run()
        assert study.seeds_seen == [42] * 8

    def test_increment_seed_strategy(self):
        study = SyntheticCaseStudy()
        campaign = Campaign(
            study, space(), GridSearch(space()), metrics(),
            base_seed=100, seed_strategy="increment",
        )
        report = campaign.run()
        assert sorted(study.seeds_seen) == [100 + i for i in range(1, 9)]
        assert all(t.seed == 100 + t.trial_id for t in report.table)
        assert report.meta["seed_strategy"] == "increment"

    def test_resolved_seed_recorded_in_events(self):
        sink = RingBufferSink()
        Campaign(
            SyntheticCaseStudy(), space(), GridSearch(space()), metrics(),
            base_seed=7, seed_strategy="increment", telemetry=Telemetry(sink),
        ).run()
        started = sink.events(EVT_TRIAL_STARTED)
        assert all(e["fields"]["seed"] == 7 + e["fields"]["trial_id"] for e in started)

    def test_unknown_seed_strategy_rejected(self):
        with pytest.raises(ValueError):
            Campaign(
                SyntheticCaseStudy(), space(), GridSearch(space()), metrics(),
                seed_strategy="nope",
            )


class TestFailurePaths:
    """Satellite: FAILED trials stay visible but never influence results."""

    def test_failed_trials_excluded_from_rankings(self):
        campaign = Campaign(
            SyntheticCaseStudy(fail_on={4}), space(), GridSearch(space()), metrics()
        )
        report = campaign.run()
        failed_ids = {
            t.trial_id for t in report.table if t.status == TrialStatus.FAILED
        }
        assert failed_ids  # quality=4 rows fail
        for ranking in report.rankings.values():
            ranked_ids = {t.trial_id for t in ranking.ordered}
            assert not (failed_ids & ranked_ids)
            assert not (failed_ids & set(ranking.front_ids()))

    def test_error_extras_survive_dump_load_round_trip(self, tmp_path):
        campaign = Campaign(
            SyntheticCaseStudy(fail_on={1}), space(), GridSearch(space()), metrics()
        )
        report = campaign.run()
        path = str(tmp_path / "report.json")
        dump_report(report, path)
        loaded = load_table(path)
        failed = [t for t in loaded if t.status == TrialStatus.FAILED]
        assert len(failed) == 2
        for trial in failed:
            assert "RuntimeError('boom')" in trial.extras["error"]
            assert "Traceback" in trial.extras["traceback"]
            assert trial.duration_s > 0.0

    def test_failing_case_study_emits_trial_failed_event(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        campaign = Campaign(
            SyntheticCaseStudy(fail_on={1, 2, 3, 4}),
            space(),
            GridSearch(space()),
            metrics(),
            telemetry=Telemetry(JsonlSink(path)),
        )
        report = campaign.run()
        campaign.telemetry.close()
        assert report.meta["n_failed"] == 8
        assert report.rankings == {}  # nothing completed, nothing ranked
        records = load_records(path)
        failed = [
            r for r in records
            if r["type"] == "event" and r["name"] == EVT_TRIAL_FAILED
        ]
        assert len(failed) == 8
        assert all("RuntimeError('boom')" in r["fields"]["error"] for r in failed)
