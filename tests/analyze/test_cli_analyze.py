"""``python -m repro analyze`` and its cache/check integration."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def warm_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestAnalyzeCommand:
    def test_rm_json_clean(self, capsys):
        assert main(["analyze", "rm", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "rm"
        assert payload["summary"]["proved"] == payload["summary"]["obligations"]
        assert payload["fails"] == {"default": False, "strict": False}

    def test_all_exits_clean(self, capsys):
        assert main(["analyze", "all"]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_all_strict_exits_clean(self, capsys):
        # The waived chain R018 must not fail the strict gate;
        # fischer-tight fails as expected.
        assert main(["analyze", "all", "--strict"]) == 0

    def test_all_json_meets_discharge_bar(self, capsys):
        assert main(["analyze", "all", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        total = sum(e["summary"]["obligations"] for e in entries)
        done = sum(
            e["summary"]["proved"] + e["summary"]["refuted"] for e in entries
        )
        assert done / total >= 0.8

    def test_fischer_tight_refuted_with_witness_but_exit_zero(self, capsys):
        assert main(["analyze", "fischer-tight", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected_broken"] is True
        assert payload["fails"]["default"] is True
        refuted = [
            o for o in payload["obligations"] if o["verdict"] == "REFUTED"
        ]
        assert refuted and refuted[0]["witness"]

    def test_json_diagnostics_are_canonically_ordered(self, capsys):
        assert main(["analyze", "fischer-tight", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        diags = payload["interference"]["diagnostics"]
        keys = [(d["rule"], d["location"], d["message"]) for d in diags]
        assert keys == sorted(keys)

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "not-a-system"])


class TestAnalyzeCache:
    def test_warm_rerun_is_served_from_cache(self, warm_cache_env, capsys):
        assert main(["analyze", "rm", "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert "cached" in cold and cold["cached"] is False
        assert main(["analyze", "rm", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cached"] is True
        assert warm["summary"] == cold["summary"]

    def test_cache_key_carries_ruleset_version(self, warm_cache_env):
        # The rule set keys the entry through the analyze closure
        # fingerprint, which hashes every rule module; the entry's own
        # parts hold only the marker of a CLI report entry.
        from repro.cache import default_cache
        from repro.cache.fingerprint import dependency_closure

        assert main(["analyze", "rm"]) == 0
        cache = default_cache()
        assert cache.lookup("analyze", "rm", {"payload": "report"})
        assert cache.lookup(
            "analyze", "rm", {"payload": "report", "ruleset": "R999:99:e99"}
        ) is None
        closure = dependency_closure("analyze", "rm")
        assert "repro.lint.rules" in closure
        assert "repro.analyze.interference" in closure

    def test_lint_cache_key_carries_ruleset_version(self, warm_cache_env):
        from repro.cache import default_cache
        from repro.cache.fingerprint import dependency_closure
        from repro.lint import DEFAULT_MAX_STATES

        assert main(["lint", "rm"]) == 0
        cache = default_cache()
        assert cache.lookup(
            "lint", "rm", {"max_states": DEFAULT_MAX_STATES, "payload": "report"}
        )
        closure = dependency_closure("lint", "rm")
        assert "repro.lint.rules" in closure
        assert "repro.analyze.interference" in closure

    def test_proved_mappings_recorded_for_check(self, warm_cache_env):
        from repro.analyze import lookup_static_mapping
        from repro.cache import default_cache

        assert main(["analyze", "rm"]) == 0
        cache = default_cache()
        assert lookup_static_mapping(cache, "rm", "rm") is not None
        # fischer-tight is refuted: nothing must be recorded as proved.
        assert main(["analyze", "fischer-tight"]) == 0
        assert lookup_static_mapping(cache, "fischer-tight", "mutex") is None

    def test_warm_check_skips_proved_mappings(self, warm_cache_env, capsys):
        assert main(["analyze", "chain"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "check",
                    "chain",
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
        statics = [m for m in payload["mappings"] if m.get("static")]
        assert statics, "statically proved mappings must skip the sweep"
        for m in statics:
            assert m["ok"] and m["steps_checked"] == 0
            assert "statically proved" in m["detail"]

    def test_cold_check_still_sweeps(self, warm_cache_env, capsys):
        # Without a prior analyze run nothing is recorded: the check
        # must do its exhaustive sweeps as before.
        assert (
            main(["check", "chain", "--json", "--seeds", "1", "--steps", "30"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert not [m for m in payload["mappings"] if m.get("static")]
        assert all(m["steps_checked"] > 0 for m in payload["mappings"])
