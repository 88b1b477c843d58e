"""Tests for the ranking methods."""

from __future__ import annotations

import pytest

from repro.core import (
    Configuration,
    LexicographicRanking,
    Metric,
    MetricSet,
    ParetoFrontRanking,
    ResultsTable,
    SortedTableRanking,
    TrialResult,
    TrialStatus,
    WeightedSumRanking,
)


def make_table(rows):
    """rows: list of (trial_id, reward, time, power)."""
    metrics = MetricSet(
        [
            Metric(name="reward", direction="max"),
            Metric(name="time", direction="min"),
            Metric(name="power", direction="min"),
        ]
    )
    table = ResultsTable(metrics)
    for trial_id, reward, time_, power in rows:
        table.add(
            TrialResult(
                config=Configuration({"id": trial_id}, trial_id=trial_id),
                objectives={"reward": reward, "time": time_, "power": power},
            )
        )
    return table


PAPERISH = [
    (2, -0.9, 46.0, 187.0),
    (5, -0.9, 50.0, 202.0),
    (7, -0.48, 86.0, 211.0),
    (11, -0.84, 48.0, 118.0),
    (16, -0.30, 67.0, 164.0),
    (18, -3.2, 259.0, 391.0),
]


class TestParetoFrontRanking:
    def test_front_members(self):
        table = make_table(PAPERISH)
        ranking = ParetoFrontRanking(["reward", "time"]).rank(table)
        front = set(ranking.front_ids())
        assert 2 in front       # fastest
        assert 16 in front      # best reward
        assert 18 not in front  # dominated everywhere

    def test_orders_by_front_then_crowding(self):
        table = make_table(PAPERISH)
        ranking = ParetoFrontRanking(["reward", "time"]).rank(table)
        fronts = [ranking.annotations[t.trial_id]["front"] for t in ranking.ordered]
        assert fronts == sorted(fronts)

    def test_knee_annotated_once(self):
        table = make_table(PAPERISH)
        ranking = ParetoFrontRanking(["reward", "time"]).rank(table)
        knees = [a for a in ranking.annotations.values() if a.get("knee")]
        assert len(knees) == 1

    def test_needs_two_metrics(self):
        with pytest.raises(ValueError):
            ParetoFrontRanking(["reward"])

    def test_three_metric_front(self):
        table = make_table(PAPERISH)
        ranking = ParetoFrontRanking(["reward", "time", "power"]).rank(table)
        # more axes → weakly larger front
        front2 = ParetoFrontRanking(["reward", "time"]).rank(table).front_ids()
        assert set(front2) <= set(ranking.front_ids())

    def test_failed_trials_excluded(self):
        table = make_table(PAPERISH)
        table.add(
            TrialResult(
                config=Configuration({"id": 99}, trial_id=99),
                objectives={},
                status=TrialStatus.FAILED,
            )
        )
        ranking = ParetoFrontRanking(["reward", "time"]).rank(table)
        assert all(t.trial_id != 99 for t in ranking.ordered)

    def test_empty_table_raises(self):
        table = make_table([])
        with pytest.raises(ValueError):
            ParetoFrontRanking(["reward", "time"]).rank(table)


class TestSortedTableRanking:
    def test_max_metric_descending(self):
        table = make_table(PAPERISH)
        ranking = SortedTableRanking("reward").rank(table)
        rewards = [t.objectives["reward"] for t in ranking.ordered]
        assert rewards == sorted(rewards, reverse=True)
        assert ranking.best.trial_id == 16

    def test_min_metric_ascending(self):
        table = make_table(PAPERISH)
        ranking = SortedTableRanking("time").rank(table)
        assert ranking.best.trial_id == 2

    def test_position(self):
        table = make_table(PAPERISH)
        ranking = SortedTableRanking("power").rank(table)
        assert ranking.position(11) == 0
        with pytest.raises(KeyError):
            ranking.position(12345)


class TestWeightedSumRanking:
    def test_single_weight_equals_sorted(self):
        table = make_table(PAPERISH)
        ws = WeightedSumRanking({"reward": 1.0}).rank(table)
        srt = SortedTableRanking("reward").rank(table)
        assert [t.trial_id for t in ws.ordered] == [t.trial_id for t in srt.ordered]

    def test_balanced_weights_pick_compromise(self):
        table = make_table(PAPERISH)
        ranking = WeightedSumRanking({"reward": 1.0, "time": 1.0, "power": 1.0}).rank(table)
        assert ranking.best.trial_id in (2, 11, 16)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedSumRanking({})
        with pytest.raises(ValueError):
            WeightedSumRanking({"a": -1.0})
        with pytest.raises(ValueError):
            WeightedSumRanking({"a": 0.0})

    def test_scores_annotated(self):
        table = make_table(PAPERISH)
        ranking = WeightedSumRanking({"reward": 1.0, "time": 1.0}).rank(table)
        scores = [ranking.annotations[t.trial_id]["score"] for t in ranking.ordered]
        assert scores == sorted(scores)


class TestLexicographicRanking:
    def test_primary_metric_dominates(self):
        table = make_table(PAPERISH)
        ranking = LexicographicRanking(["time", "reward"]).rank(table)
        assert ranking.best.trial_id == 2

    def test_tolerance_defers_to_secondary(self):
        table = make_table(PAPERISH)
        # 10-minute time bands: 46 and 50 tie; reward then prefers... both -0.9
        # use power as tiebreak
        ranking = LexicographicRanking(["time", "power"], tolerances={"time": 600.0}).rank(
            table
        )
        # huge band: everything ties on time except extremes; power decides
        assert ranking.best.trial_id == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            LexicographicRanking([])
