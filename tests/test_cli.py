"""Tests for the command-line interface."""

import pytest

from fractions import Fraction as F

from repro import catalog
from repro.cli import build_parser, main


class TestFractionParsing:
    # The command line reads every rational through catalog.exact.
    def test_integer(self):
        assert catalog.exact("3") == 3

    def test_slash(self):
        assert catalog.exact("3/2") == F(3, 2)

    def test_decimal(self):
        assert catalog.exact("1.5") == F(3, 2)


class TestCommands:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestPerturbCommand:
    def test_epsilon_probe_failure_sets_exit_code(self, capsys):
        assert main(["perturb", "fischer-tight", "--epsilon", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_epsilon_probe_json(self, capsys):
        import json

        assert (
            main(
                [
                    "perturb",
                    "peterson",
                    "--epsilon",
                    "1",
                    "--json",
                    "--seeds",
                    "1",
                    "--steps",
                    "30",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "peterson"
        assert payload["ok"] is True
        assert payload["epsilon"] == "1"

    def test_search_broken_system_is_a_finding_not_a_failure(self, capsys):
        import json

        assert main(["perturb", "fischer-tight", "--search", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["broken"] is True and payload["fragile"] is True
        assert payload["tolerance"] is None

    def test_collapsed_stage_spells_its_empty_interval(self, capsys):
        # Tightening [1, 2] by 1/2 of its width leaves [3/2, 1].
        import json

        assert main(["perturb", "gen:relay_tree-2x2", "--epsilon", "1/2", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "empty interval [3/2, 1]" in payload["detail"]
        assert "Fraction(" not in payload["detail"]

    def test_epsilon_and_search_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["perturb", "rm", "--epsilon", "1/8", "--search"]
            )


class TestPerturbExitCodeConvention:
    def test_unexpected_broken_system_fails_search_mode(self, capsys, monkeypatch):
        # Strip fischer-tight of its "deliberately broken" registration:
        # an *unexpected* BROKEN verdict must flip the exit code.
        from repro import catalog

        monkeypatch.setattr(catalog, "EXPECTED_BROKEN", ())
        assert main(["perturb", "fischer-tight", "--search", "--json"]) == 1

    def test_epsilon_mode_reports_the_raw_verdict(self, capsys):
        # Documented asymmetry: --epsilon is a raw probe, so the
        # expected-broken twist does not apply (see docs/api.md).
        assert main(["perturb", "fischer-tight", "--epsilon", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestRunCommand:
    def _run(self, tmp_path, *extra):
        ledger = str(tmp_path / "ledger.jsonl")
        return (
            main(
                ["run", "chain", "--kinds", "lint,analyze", "--workers", "0",
                 "--ledger", ledger] + list(extra)
            ),
            ledger,
        )

    def test_green_campaign_exits_zero(self, capsys, tmp_path):
        code, ledger = self._run(tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "ledger: {}".format(ledger) in out
        assert "lint:chain" in out and "analyze:chain" in out

    def test_json_report_shape(self, capsys, tmp_path):
        import json

        code, _ = self._run(tmp_path, "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["interrupted"] is False
        assert sorted(j["job_id"] for j in payload["jobs"]) == [
            "analyze:chain", "lint:chain",
        ]
        assert all(j["status"] == "ok" for j in payload["jobs"])

    def test_expected_failure_keeps_campaign_green(self, capsys, tmp_path):
        import json

        ledger = str(tmp_path / "ft.jsonl")
        assert main(
            ["run", "fischer-tight", "--kinds", "check", "--workers", "0",
             "--seeds", "1", "--steps", "10", "--ledger", ledger, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["status"] == "expected-failure"

    def test_unexpected_verdict_failure_exits_one(self, capsys, tmp_path, monkeypatch):
        from repro import catalog

        monkeypatch.setattr(catalog, "EXPECTED_BROKEN", ())
        ledger = str(tmp_path / "fail.jsonl")
        assert main(
            ["run", "fischer-tight", "--kinds", "check", "--workers", "0",
             "--seeds", "1", "--steps", "10", "--ledger", ledger, "--json"]
        ) == 1

    # ``bench`` was a job kind until the perf-trajectory runner retired.
    @pytest.mark.parametrize("kind", ["frobnicate", "bench"])
    def test_unknown_kind_is_a_usage_error(self, capsys, tmp_path, kind):
        code, _ = self._run(tmp_path, "--kinds", kind)
        assert code == 2
        assert "unknown job kind" in capsys.readouterr().err

    def test_unknown_system_is_a_usage_error(self, capsys, tmp_path):
        ledger = str(tmp_path / "x.jsonl")
        assert main(["run", "no-such-system", "--workers", "0",
                     "--ledger", ledger]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_resume_of_missing_ledger_is_a_usage_error(self, capsys, tmp_path):
        assert main(["run", "--resume", str(tmp_path / "absent.jsonl")]) == 2
        assert "no ledger" in capsys.readouterr().err
