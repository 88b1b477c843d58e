"""Tests for JSON report serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    Campaign,
    Categorical,
    Configuration,
    GridSearch,
    Metric,
    MetricSet,
    ParameterSpace,
    ParetoFrontRanking,
    ResultsTable,
    TrialResult,
    TrialStatus,
    dump_report,
    load_table,
    rank_loaded,
    table_from_dict,
    table_to_dict,
)


def sample_table() -> ResultsTable:
    metrics = MetricSet(
        [Metric(name="reward", direction="max"), Metric(name="time", direction="min", unit="s")]
    )
    table = ResultsTable(metrics)
    table.add(
        TrialResult(
            config=Configuration({"rk": np.int64(3), "fw": "stable"}, trial_id=1),
            objectives={"reward": -0.5, "time": 60.0},
            measurements={"reward": -0.5, "time": 60.0, "extra": 1.5},
            seed=7,
        )
    )
    table.add(
        TrialResult(
            config=Configuration({"rk": 8, "fw": "rllib"}, trial_id=2),
            objectives={},
            status=TrialStatus.FAILED,
        )
    )
    return table


class TestRoundTrip:
    def test_dict_roundtrip_preserves_everything(self):
        table = sample_table()
        payload = table_to_dict(table)
        # numpy ints must become JSON-safe
        json.dumps(payload)
        loaded = table_from_dict(payload)
        assert [t.trial_id for t in loaded] == [1, 2]
        t1, t2 = loaded
        assert t1.objectives == {"reward": -0.5, "time": 60.0}
        assert t1.measurements["extra"] == 1.5
        assert t1.seed == 7
        assert t1.config["fw"] == "stable"
        assert t2.status == TrialStatus.FAILED

    def test_metric_definitions_roundtrip(self):
        loaded = table_from_dict(table_to_dict(sample_table()))
        assert loaded.metrics["reward"].maximize
        assert loaded.metrics["time"].unit == "s"

    def test_version_check(self):
        payload = table_to_dict(sample_table())
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            table_from_dict(payload)

    def test_file_roundtrip(self, tmp_path):
        class TwoValueStudy:
            def evaluate(self, config, seed, progress=None):
                return {"loss": float(config["x"])}

        space = ParameterSpace([Categorical("x", [1, 2, 3])])
        campaign = Campaign(
            TwoValueStudy(),
            space,
            GridSearch(space),
            MetricSet([Metric(name="loss", direction="min")]),
        )
        report = campaign.run()
        path = tmp_path / "report.json"
        dump_report(report, str(path))

        loaded = load_table(str(path))
        assert len(loaded) == 3
        assert loaded.best("loss").config["x"] == 1

        raw = json.loads(path.read_text())
        assert "fronts" in raw and "meta" in raw

    def test_rank_loaded_rebuilds_rankings(self):
        table = sample_table()
        loaded = table_from_dict(table_to_dict(table))
        report = rank_loaded(loaded, [ParetoFrontRanking(["reward", "time"])])
        assert report.ranking("pareto:reward+time").best.trial_id == 1
        assert report.meta["source"] == "loaded"
