"""Tests for ``python -m repro check`` (cache-aware sweep)."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def warm_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _check(args, capsys):
    code = main(["check"] + args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommand:
    def test_chain_passes(self, capsys):
        code, out, _ = _check(["chain"], capsys)
        assert code == 0
        assert "verdict: ok" in out

    def test_json_shape(self, capsys):
        code, out, _ = _check(["chain", "--json"], capsys)
        assert code == 0
        entry = json.loads(out)
        assert entry["system"] == "chain"
        assert entry["ok"] and entry["conclusive"]
        assert entry["cached"] is False
        assert entry["states"] > 0
        assert entry["mappings"] and all(m["ok"] for m in entry["mappings"])
        assert entry["battery"]["ok"]

    def test_expected_broken_system_keeps_exit_zero(self, capsys):
        # fischer-tight ships broken on purpose; finding it broken is
        # the *expected* outcome, not a failure.
        code, out, _ = _check(["fischer-tight", "--json"], capsys)
        assert code == 0
        entry = json.loads(out)
        assert not entry["ok"]
        assert entry["expected_broken"]

    def test_warm_rerun_hits_cache(self, warm_cache_env, capsys):
        code, _, err = _check(["chain", "--json"], capsys)
        assert code == 0
        assert "stores=1" in err
        code, out, err = _check(["chain", "--json"], capsys)
        assert code == 0
        assert "hits=1" in err
        assert json.loads(out)["cached"] is True

    def test_truncated_exploration_is_inconclusive_and_not_cached(
        self, warm_cache_env, capsys
    ):
        # rm's untimed automaton is unbounded, so its exploration stops
        # at the state cap: that proves nothing either way, and a
        # verdict that proves nothing must not be served as a hit.
        _, out, err = _check(["rm", "--json"], capsys)
        entry = json.loads(out)
        assert entry["truncated"] is True
        assert entry["conclusive"] is False
        assert "stores=0" in err
        _, out, err = _check(["rm", "--json"], capsys)
        assert json.loads(out)["cached"] is False
        assert "hits=0" in err

    def test_no_cache_flag(self, warm_cache_env, capsys):
        _check(["chain", "--json"], capsys)
        code, out, err = _check(["chain", "--json", "--no-cache"], capsys)
        assert code == 0
        assert json.loads(out)["cached"] is False
        assert err == ""

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonesuch"])
