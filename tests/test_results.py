"""Tests for TrialResult / ResultsTable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Categorical,
    Configuration,
    Metric,
    MetricSet,
    ParameterSpace,
    ResultsTable,
    TrialResult,
    TrialStatus,
)


def metrics() -> MetricSet:
    return MetricSet(
        [Metric(name="reward", direction="max"), Metric(name="time", direction="min")]
    )


def trial(i, reward, time_, status=TrialStatus.COMPLETED):
    return TrialResult(
        config=Configuration({"rk": 3, "fw": "stable"}, trial_id=i),
        objectives={"reward": reward, "time": time_} if status == TrialStatus.COMPLETED else {},
        status=status,
    )


class TestTrialResult:
    def test_objective_vector_order(self):
        t = trial(1, -0.5, 60.0)
        assert np.allclose(t.objective_vector(metrics()), [-0.5, 60.0])

    def test_ok_flag(self):
        assert trial(1, 0, 0).ok
        assert not trial(1, 0, 0, status=TrialStatus.FAILED).ok
        assert not trial(1, 0, 0, status=TrialStatus.PRUNED).ok

    def test_describe(self):
        text = trial(3, -0.5, 60.0).describe(metrics())
        assert "#3" in text and "reward" in text


class TestResultsTable:
    def make(self):
        table = ResultsTable(metrics())
        table.add(trial(1, -0.5, 60.0))
        table.add(trial(2, -0.3, 80.0))
        table.add(trial(3, 0, 0, status=TrialStatus.FAILED))
        return table

    def test_len_iter_getitem(self):
        table = self.make()
        assert len(table) == 3
        assert table[0].trial_id == 1
        assert [t.trial_id for t in table] == [1, 2, 3]

    def test_completed_filters(self):
        assert len(self.make().completed()) == 2

    def test_by_trial_id(self):
        table = self.make()
        assert table.by_trial_id(2).objectives["reward"] == -0.3
        with pytest.raises(KeyError):
            table.by_trial_id(42)

    def test_filter(self):
        table = self.make()
        fast = table.filter(lambda t: t.ok and t.objectives["time"] < 70)
        assert [t.trial_id for t in fast] == [1]

    def test_objective_matrix(self):
        matrix, trials = self.make().objective_matrix()
        assert matrix.shape == (2, 2)
        assert [t.trial_id for t in trials] == [1, 2]

    def test_objective_matrix_empty(self):
        table = ResultsTable(metrics())
        matrix, trials = table.objective_matrix()
        assert matrix.shape == (0, 2)
        assert trials == []

    def test_best(self):
        table = self.make()
        assert table.best("reward").trial_id == 2
        assert table.best("time").trial_id == 1

    def test_best_empty_raises(self):
        table = ResultsTable(metrics())
        with pytest.raises(ValueError):
            table.best("reward")

    def test_csv_export(self):
        csv_text = self.make().to_csv()
        rows = csv_text.strip().splitlines()
        assert rows[0].split(",")[0] == "id"
        assert len(rows) == 4

    def test_space_orders_columns(self):
        space = ParameterSpace([Categorical("fw", ["stable"]), Categorical("rk", [3])])
        table = ResultsTable(metrics(), space)
        table.add(trial(1, -0.5, 60.0))
        header = table.to_csv().splitlines()[0]
        assert header == "id,fw,rk,reward,time,status"
