"""Tests for the command-line interface."""

import pytest

from repro.cli import _fraction, build_parser, main
from fractions import Fraction as F


class TestFractionParsing:
    def test_integer(self):
        assert _fraction("3") == 3

    def test_slash(self):
        assert _fraction("3/2") == F(3, 2)

    def test_decimal(self):
        assert _fraction("1.5") == F(3, 2)


class TestCommands:
    def test_rm_runs(self, capsys):
        assert main(["rm", "--k", "1", "--seeds", "2", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.4" in out and "yes" in out

    def test_relay_runs(self, capsys):
        assert main(["relay", "--n", "2", "--seeds", "2", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 6.4" in out and "hierarchy" in out

    def test_zones_rm(self, capsys):
        assert main(["zones", "rm", "--k", "1"]) == 0
        assert "tight" in capsys.readouterr().out

    def test_zones_relay(self, capsys):
        assert main(["zones", "relay", "--n", "2"]) == 0
        assert "SIGNAL" in capsys.readouterr().out

    def test_verify_holds(self, capsys):
        assert main(["verify", "rm", "3", "7", "--k", "2"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_refuted_exit_code(self, capsys):
        assert main(["verify", "rm", "3", "6", "--k", "2"]) == 1
        assert "refuted" in capsys.readouterr().out

    def test_timeline(self, capsys):
        assert main(["timeline", "rm", "--steps", "5", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "START" in out and "TICK∈[" in out

    def test_rm_seed_offsets_runs(self, capsys):
        assert main(["rm", "--k", "1", "--seeds", "2", "--steps", "60",
                     "--seed", "17"]) == 0
        first = capsys.readouterr().out
        assert main(["rm", "--k", "1", "--seeds", "2", "--steps", "60",
                     "--seed", "17"]) == 0
        assert capsys.readouterr().out == first

    def test_fischer_safe(self, capsys):
        assert main(["fischer", "--a", "1", "--b", "2"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_fischer_seeded_simulation(self, capsys):
        assert main(["fischer", "--a", "1", "--b", "2", "--sim-runs", "2",
                     "--sim-steps", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "seed base 5" in out and "0 violation(s)" in out

    def test_peterson_seeded_simulation(self, capsys):
        assert main(["peterson", "--sim-runs", "2", "--sim-steps", "40"]) == 0
        assert "seeded runs" in capsys.readouterr().out

    def test_fischer_violable(self, capsys):
        assert main(["fischer", "--a", "2", "--b", "1"]) == 1
        assert "VIOLABLE" in capsys.readouterr().out

    def test_fischer_bounded_critical_section(self, capsys):
        assert main(["fischer", "--a", "3", "--b", "2", "--e", "1"]) == 0
        assert "SAFE" in capsys.readouterr().out

    def test_peterson(self, capsys):
        assert main(["peterson", "--s1", "1", "--s2", "2"]) == 0
        out = capsys.readouterr().out
        assert "holds" in out and "agreement: yes" in out

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
