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

    def test_rm_is_decided_by_its_zone_graph(self, warm_cache_env, capsys):
        # rm's untimed automaton is unbounded (the manager's timer has
        # no floor), so its exploration stops at the state cap; its
        # zone graph is finite, and that is the sweep check requires.
        code, out, err = _check(["rm", "--json"], capsys)
        entry = json.loads(out)
        assert code == 0
        assert entry["truncated"] is True  # the untimed count, as information
        assert entry["zones"]["nodes"] > 0 and not entry["zones"]["truncated"]
        assert entry["ok"] and entry["conclusive"]
        assert "stores=1" in err
        _, out, err = _check(["rm", "--json"], capsys)
        assert json.loads(out)["cached"] is True

    def test_truncated_exploration_is_inconclusive_and_not_cached(
        self, warm_cache_env, capsys, monkeypatch
    ):
        # A zone sweep cut at its node cap proves nothing either way,
        # and a verdict that proves nothing must not be served as a hit.
        # Only the sweep is cut: no budget runs out.
        from repro.zones import zone_graph

        def cut(*args, **kwargs):
            return zone_graph.ZoneGraphResult(
                nodes=3, transitions=2, truncated=True, firings={}
            )

        monkeypatch.setattr(zone_graph, "explore_zone_graph", cut)
        code, out, err = _check(["chain", "--json"], capsys)
        entry = json.loads(out)
        assert code == 1
        assert entry["zones"]["truncated"] is True
        assert entry["battery"]["conclusive"] and not entry["battery"]["exhausted_budget"]
        assert not any(m["exhausted_budget"] for m in entry["mappings"])
        assert entry["ok"] is False
        assert entry["conclusive"] is False
        assert "stores=0" in err
        _, out, err = _check(["chain", "--json"], capsys)
        assert json.loads(out)["cached"] is False
        assert "hits=0" in err

    def test_bounded_sweep_system_keeps_its_untimed_rule(self, capsys):
        # gen:fischer-5 declares a bounded_sweep: a full zone sweep of
        # it is out of reach, so its required sweep stays the untimed
        # exploration (3552 states, under its cap) and it stays ok.
        code, out, _ = _check(["gen:fischer-5", "--json", "--no-cache"], capsys)
        entry = json.loads(out)
        assert code == 0
        assert entry["zones"] is None
        assert entry["truncated"] is False
        assert entry["ok"] is True
        # Its battery is a bounded sweep, so the verdict is never settled.
        assert entry["conclusive"] is False

    @pytest.mark.parametrize(
        "system, exact",
        [
            (
                "rm",
                [
                    "zone first-GRANT bound: absolute bounds [6, 10] vs claimed [6, 10]",
                    "zone GRANT-gap bound: zone verdict: verified (tight) "
                    "(claimed [5, 10], exact [5, 10])",
                ],
            ),
            (
                "relay",
                [
                    "zone end-to-end bound: zone verdict: verified (tight) "
                    "(claimed [3, 6], exact [3, 6])",
                ],
            ),
        ],
        ids=["rm", "relay"],
    )
    def test_battery_states_exact_zone_bounds(self, system, exact, capsys):
        # Theorems 4.4 and 6.4: the battery's zone checks measure each
        # declared interval exactly, and a pass keeps what they found.
        code, out, _ = _check([system, "--json", "--no-cache"], capsys)
        assert code == 0
        assert json.loads(out)["battery"]["detail"].split("; ") == exact
        code, out, _ = _check([system, "--no-cache"], capsys)
        assert code == 0
        assert "{} battery:\n".format(system) + "".join(
            "  {}\n".format(line) for line in exact
        ) in out

    def test_seeded_battery_is_reproducible(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = _check(["rm", "--json", "--no-cache", "--seed", "17"], capsys)
            assert code == 0
            entry = json.loads(out)
            entry.pop("wall")
            runs.append(entry)
        assert runs[0] == runs[1]

    def test_every_shipped_check_passes(self, capsys):
        code, out, _ = _check(["all", "--json", "--no-cache"], capsys)
        assert code == 0
        for entry in json.loads(out):
            assert entry["conclusive"], entry["system"]
            assert entry["ok"] != entry["expected_broken"], entry["system"]

    def test_no_cache_flag(self, warm_cache_env, capsys):
        _check(["chain", "--json"], capsys)
        code, out, err = _check(["chain", "--json", "--no-cache"], capsys)
        assert code == 0
        assert json.loads(out)["cached"] is False
        assert err == ""

    def test_unknown_system_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "nonesuch"])
