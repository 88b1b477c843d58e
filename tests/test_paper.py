"""Tests for the paper-specific experiment definitions."""

from __future__ import annotations

import numpy as np
import pytest

import repro.airdrop  # noqa: F401
from repro.core import Configuration
from repro.paper import (
    PAPER_FRONTS,
    TABLE1_CONFIGS,
    AirdropCaseStudy,
    Scale,
    Table1Explorer,
    airdrop_parameter_space,
    compare_all,
    multi_node_needs_rllib,
    paper_metrics,
    paper_rankers,
    table1_campaign,
)
from repro.paper.figures import FigureComparison


class TestTable1Spec:
    def test_eighteen_rows(self):
        assert sorted(TABLE1_CONFIGS) == list(range(1, 19))

    def test_rk_column_matches_extraction(self):
        """The surviving Table I column: 3,3,3,5,5,5,8,8 | 3,3,3,8,8 | 3,3,8,8,8."""
        expected = [3, 3, 3, 5, 5, 5, 8, 8, 3, 3, 3, 8, 8, 3, 3, 8, 8, 8]
        assert [TABLE1_CONFIGS[i]["rk_order"] for i in range(1, 19)] == expected

    def test_framework_grouping(self):
        assert all(TABLE1_CONFIGS[i]["framework"] == "rllib" for i in range(1, 9))
        assert all(TABLE1_CONFIGS[i]["framework"] == "tfagents" for i in range(9, 14))
        assert all(TABLE1_CONFIGS[i]["framework"] == "stable" for i in range(14, 19))

    def test_narrative_constraints(self):
        # sol 2: fastest config — RLlib PPO 2n 4c
        assert TABLE1_CONFIGS[2] == {
            "rk_order": 3, "framework": "rllib", "algorithm": "ppo",
            "n_nodes": 2, "cores_per_node": 4,
        }
        # sols 7/8 identical except the node count
        c7, c8 = dict(TABLE1_CONFIGS[7]), dict(TABLE1_CONFIGS[8])
        assert c7.pop("n_nodes") == 1 and c8.pop("n_nodes") == 2
        assert c7 == c8
        # sol 11: TFA 1n 4c; sol 10 the 2-core twin
        assert TABLE1_CONFIGS[11]["cores_per_node"] == 4
        assert TABLE1_CONFIGS[10]["cores_per_node"] == 2
        # sol 14: SB PPO RK3 with 2 cores; sol 16: SB PPO RK8 with 4 cores
        assert TABLE1_CONFIGS[14]["cores_per_node"] == 2
        assert TABLE1_CONFIGS[16]["cores_per_node"] == 4

    def test_all_rows_valid_in_space(self):
        space = airdrop_parameter_space()
        for values in TABLE1_CONFIGS.values():
            space.validate(dict(values))

    def test_multi_node_constraint(self):
        assert multi_node_needs_rllib({"n_nodes": 2, "framework": "rllib"})
        assert not multi_node_needs_rllib({"n_nodes": 2, "framework": "stable"})
        assert multi_node_needs_rllib({"n_nodes": 1, "framework": "stable"})


class TestParameterSpace:
    def test_five_parameters(self):
        space = airdrop_parameter_space()
        assert set(space.names) == {
            "rk_order", "framework", "algorithm", "n_nodes", "cores_per_node",
        }

    def test_kind_classification(self):
        space = airdrop_parameter_space()
        assert [p.name for p in space.by_kind("environment")] == ["rk_order"]
        assert {p.name for p in space.by_kind("system")} == {"n_nodes", "cores_per_node"}

    def test_grid_size(self):
        # full grid 72; multi-node rows only valid for rllib → 48
        assert airdrop_parameter_space().grid_size() == 48


class TestMetricsAndRankers:
    def test_paper_metrics(self):
        ms = paper_metrics()
        assert ms.names == ["reward", "computation_time", "power_consumption"]

    def test_paper_rankers_are_figures(self):
        names = [r.name for r in paper_rankers()]
        assert names == ["fig4", "fig5", "fig6"]

    def test_paper_front_axes(self):
        assert PAPER_FRONTS["fig4"][0] == ("reward", "computation_time")
        assert PAPER_FRONTS["fig6"][1] == frozenset({11, 14, 16})


class TestCalibration:
    # the anchors themselves are held to the paper, from the exact cost
    # plan, in tests/test_cost_plan.py
    def test_scale_factor(self):
        assert Scale(real_steps=20_000, paper_steps=200_000).factor == 10.0
        with pytest.raises(ValueError):
            Scale(real_steps=0)


class TestExplorer:
    def test_replays_in_order(self):
        space = airdrop_parameter_space()
        explorer = Table1Explorer(space)
        ids = []
        while True:
            config = explorer.ask()
            if config is None:
                break
            ids.append(config.trial_id)
            assert config.as_dict() == TABLE1_CONFIGS[config.trial_id]
        assert ids == list(range(1, 19))


class TestCaseStudy:
    def test_evaluate_reports_all_metrics(self):
        study = AirdropCaseStudy(scale=Scale(real_steps=1200))
        config = Configuration(TABLE1_CONFIGS[11], trial_id=11)
        out = study.evaluate(config, seed=0)
        for key in ("reward", "computation_time", "power_consumption", "eval_reward"):
            assert key in out
        assert out["computation_time"] > 0
        assert out["power_consumption"] > 0
        assert 11 in study.results  # TrainResult retained

    def test_progress_callback_forwarded(self):
        study = AirdropCaseStudy(scale=Scale(real_steps=4000))
        config = Configuration(TABLE1_CONFIGS[16], trial_id=16)
        calls = []

        def progress(step, value):
            calls.append(step)
            return len(calls) >= 2  # prune quickly

        out = study.evaluate(config, seed=0, progress=progress)
        assert len(calls) == 2
        assert out["diag_real_steps"] < 4000


class TestFigureComparison:
    def test_jaccard_and_recall(self):
        c = FigureComparison("fig4", frozenset({2, 8, 11}), frozenset({2, 5, 11}))
        assert c.intersection == {2, 11}
        assert c.jaccard == pytest.approx(2 / 4)
        assert c.recall == pytest.approx(2 / 3)
        assert "fig4" in c.describe()

    def test_empty_paper_front(self):
        c = FigureComparison("x", frozenset(), frozenset())
        assert c.jaccard == 1.0
        assert c.recall == 1.0


class TestMiniCampaign:
    def test_campaign_end_to_end_tiny(self):
        """A heavily scaled-down campaign over 3 table rows must complete
        and produce all three figure rankings."""

        class ThreeRowExplorer(Table1Explorer):
            def __init__(self, space):
                super().__init__(space)
                self._rows = [2, 11, 16]

        campaign = table1_campaign(
            seed=0,
            scale=Scale(real_steps=1500),
            explorer=ThreeRowExplorer(airdrop_parameter_space()),
        )
        report = campaign.run()
        assert report.meta["n_completed"] == 3
        assert set(report.rankings) == {"fig4", "fig5", "fig6"}
        comparisons = compare_all(report)
        assert len(comparisons) == 3
        # structural facts that hold at any scale:
        table = {t.trial_id: t.objectives for t in report.table}
        assert table[2]["computation_time"] < table[16]["computation_time"]
        assert table[11]["power_consumption"] < table[2]["power_consumption"]
        assert table[11]["power_consumption"] < table[16]["power_consumption"]


class TestTimeToThreshold:
    def test_crossing_run_reports_partial_time(self):
        from repro.frameworks import TrainResult, TrainSpec
        from repro.cluster import Trace

        study = AirdropCaseStudy(convergence_threshold=-1.0)
        result = TrainResult(
            framework="stable",
            spec=TrainSpec(),
            reward=-0.5,
            eval_reward=-0.5,
            computation_time_s=1000.0,
            energy_kj=10.0,
            trace=Trace(),
            learning_curve=[(1000, -3.0), (2000, -0.9), (3000, -0.4)],
            diagnostics={"real_steps": 4000.0},
        )
        assert study._time_to_threshold(result) == pytest.approx(1000.0 * 2000 / 4000)

    def test_never_crossing_pays_double(self):
        from repro.frameworks import TrainResult, TrainSpec
        from repro.cluster import Trace

        study = AirdropCaseStudy()
        result = TrainResult(
            framework="stable",
            spec=TrainSpec(),
            reward=-5.0,
            eval_reward=-5.0,
            computation_time_s=1000.0,
            energy_kj=10.0,
            trace=Trace(),
            learning_curve=[(1000, -5.0)],
            diagnostics={"real_steps": 1000.0},
        )
        assert study._time_to_threshold(result) == pytest.approx(2000.0)

    def test_reported_by_evaluate(self):
        study = AirdropCaseStudy(scale=Scale(real_steps=1500))
        config = Configuration(TABLE1_CONFIGS[16], trial_id=16)
        out = study.evaluate(config, seed=0)
        assert "time_to_threshold" in out
        assert out["time_to_threshold"] > 0
        assert "bandwidth_usage" in out
