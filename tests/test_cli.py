"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestCalibrationCommand:
    def test_prints_anchors(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        for token in ("sol", "rllib", "stable", "tfagents", "paper"):
            assert token in out


class TestEpisodeCommand:
    def test_controller_episode(self, capsys):
        assert main(["episode", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "drop:" in out
        assert "touchdown" in out
        assert "landing score" in out

    def test_random_policy(self, capsys):
        assert main(["episode", "--policy", "random", "--seed", "2"]) == 0
        assert "touchdown" in capsys.readouterr().out

    def test_rk_order_flag(self, capsys):
        assert main(["episode", "--rk-order", "3", "--seed", "1"]) == 0
        assert "RK order 3" in capsys.readouterr().out

    def test_altitude_override(self, capsys):
        assert main(["episode", "--altitude", "50", "--seed", "0"]) == 0
        assert "altitude 50 m" in capsys.readouterr().out

    def test_wind_flags(self, capsys):
        assert main(["episode", "--wind", "--gusts", "--seed", "0"]) == 0


class TestCampaignCommand:
    def test_tiny_random_campaign_with_archive(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(
            [
                "campaign",
                "--explorer", "random",
                "--trials", "2",
                "--steps", "800",
                "--seed", "1",
                "--no-plots",
                "--output", str(out_path),
                "--cache", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign results" in out
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert len(payload["trials"]) == 2

    def test_analyze_archived_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(
            [
                "campaign", "--explorer", "random", "--trials", "3",
                "--steps", "800", "--seed", "2", "--no-plots",
                "--output", str(out_path), "--cache", str(tmp_path / "cache"),
            ]
        )
        capsys.readouterr()
        assert main(["analyze", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "parameter importance" in out
        assert "effect of" in out
        assert "fronts" in out

    def test_analyze_unknown_metric(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        main(
            [
                "campaign", "--explorer", "random", "--trials", "2",
                "--steps", "800", "--seed", "3", "--no-plots",
                "--output", str(out_path), "--cache", str(tmp_path / "cache"),
            ]
        )
        capsys.readouterr()
        assert main(["analyze", str(out_path), "--metric", "nope"]) == 1


class TestResume:
    """``--resume`` checks the journal against the whole campaign identity."""

    def campaign(self, *flags):
        return main(
            ["campaign", "--explorer", "random", "--trials", "2", "--seed", "1",
             "--no-plots", "--no-cache", *flags]
        )

    def test_resume_under_other_study_settings_is_refused(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        assert self.campaign("--steps", "300", "--journal", str(journal)) == 0
        journaled = journal.read_bytes()
        capsys.readouterr()
        code = self.campaign("--steps", "600", "--n-envs", "2", "--resume", str(journal))
        assert code == 1
        assert "different campaign: study=" in capsys.readouterr().err
        assert journal.read_bytes() == journaled
        assert self.campaign("--steps", "300", "--resume", str(journal)) == 0
        assert "replayed 2 journaled trials" in capsys.readouterr().out

    def test_format_version_1_journal_is_refused(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(
            json.dumps({"type": "campaign", "format_version": 1, "explorer": "RandomSearch",
                        "base_seed": 1, "seed_strategy": "fixed"}) + "\n"
        )
        assert self.campaign("--steps", "300", "--resume", str(journal)) == 1
        assert "format version 1, expected 2" in capsys.readouterr().err


class TestArgParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])


class TestExplorerFlags:
    def test_lhs_explorer(self, tmp_path, capsys):
        code = main(
            ["campaign", "--explorer", "lhs", "--trials", "2", "--steps", "700",
             "--seed", "4", "--no-plots", "--cache", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "Campaign results" in capsys.readouterr().out

    def test_tpe_explorer(self, tmp_path, capsys):
        code = main(
            ["campaign", "--explorer", "tpe", "--trials", "2", "--steps", "700",
             "--seed", "5", "--no-plots", "--cache", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "Campaign results" in capsys.readouterr().out


class TestFaultsCommand:
    def test_generate_validate_describe(self, tmp_path, capsys):
        path = str(tmp_path / "plan.json")
        code = main(
            ["faults", "generate", path, "--seed", "7", "--nodes", "2",
             "--horizon", "6", "--intensity", "1.0"]
        )
        assert code == 0
        assert "hash 10845cf8f532" in capsys.readouterr().out
        assert main(["faults", "validate", path, "--nodes", "2"]) == 0
        assert "valid for 2 node(s) — hash 10845cf8f532" in capsys.readouterr().out
        assert main(["faults", "describe", path]) == 0
        assert "hash 10845cf8f532" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--horizon", "nan", "horizon_s"),
            ("--horizon", "inf", "horizon_s"),
            ("--intensity", "inf", "intensity"),
            ("--intensity", "nan", "intensity"),
        ],
        ids=["horizon-nan", "horizon-inf", "intensity-inf", "intensity-nan"],
    )
    def test_generate_refuses_non_finite_numbers(self, tmp_path, capsys, flag, value, field):
        path = tmp_path / "plan.json"
        assert main(["faults", "generate", str(path), flag, value]) == 1
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"node_crashes": [{"node": 0}]}', "fault plan.node_crashes[0].at"),
            ('{"node_crashs": [{"node": 0, "at": 1.0}]}', "fault plan.node_crashs"),
            (
                '{"stragglers": [{"node": 0, "at": 1.0, "duration": 2.0, "factor": NaN}]}',
                "fault plan.stragglers[0].factor",
            ),
        ],
        ids=["missing-key", "misspelled-key", "nan"],
    )
    def test_validate_refuses_a_malformed_plan(self, tmp_path, capsys, text, field):
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["faults", "validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out == ""
