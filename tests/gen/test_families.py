"""Parametric family bundles: construction, discharge, integration."""

import json

import pytest

from repro.gen import build_bundle, sample_names
from repro.analyze import Verdict


CHEAP = [
    "gen:fischer-2",
    "gen:relay_line-3",
    "gen:relay_ring-4",
    "gen:relay_tree-2x2",
    "gen:tournament-2",
]


class TestBundles:
    def test_build_bundle_memoizes(self):
        assert build_bundle("gen:relay_ring-4") is build_bundle("gen:relay_ring-4")

    def test_build_bundle_memo_is_bounded(self):
        # Zero-padded parameters spell distinct, valid names for one
        # cheap instance, so 70 builds overflow the 64-entry memo.
        names = ["gen:relay_line-" + "0" * pad + "1" for pad in range(70)]
        for name in names:
            assert build_bundle(name).name == "gen:relay_line-1"
        assert build_bundle.cache_info().currsize <= 64
        assert build_bundle(names[-1]) is build_bundle(names[-1])

    def test_relay_tree_sweep_is_bounded_exactly_where_zones_are_out_of_reach(self):
        # check requires a full zone sweep of every tree but relay_tree-4x2,
        # whose zone graph does not close in check's wall budget; that
        # one keeps the untimed sweep (the parent's 13 s, not 73 s).
        from repro.gen.names import parse
        from repro.zones.zone_graph import explore_zone_graph

        bounded = []
        for depth in range(1, 5):
            for fanout in range(1, 4):
                name = "gen:relay_tree-{}x{}".format(depth, fanout)
                try:
                    parse(name)
                except Exception:
                    continue  # past the exploration cap
                if build_bundle(name).bounded_sweep is not None:
                    bounded.append(name)
        assert bounded == ["gen:relay_tree-4x2"]
        # The biggest binary tree swept in full still closes.
        graph = explore_zone_graph(build_bundle("gen:relay_tree-3x2").timed())
        assert not graph.truncated and graph.nodes == 4430

    @pytest.mark.parametrize(
        "name, states",
        [
            ("gen:fischer-2", 28),
            ("gen:fischer-3", 152),
            ("gen:fischer-4", 752),
            ("gen:relay_line-2", 4),
            ("gen:relay_line-4", 6),
            ("gen:relay_line-6", 8),
        ],
    )
    def test_untimed_state_counts(self, name, states):
        # The reachable-state count each family's construction predicts,
        # explored to completion: a generator change that blows up (or
        # collapses) a family's state space fails here.
        from repro.ioa.explorer import explore

        bundle = build_bundle(name)
        result = explore(bundle.timed().automaton, max_states=bundle.max_states)
        assert not result.truncated
        assert len(result.reachable) == states

    @pytest.mark.parametrize("name", CHEAP)
    def test_describe_dict_is_json_plain(self, name):
        described = build_bundle(name).describe_dict()
        json.dumps(described)
        assert described["name"] == name

    @pytest.mark.parametrize("name", CHEAP)
    def test_obligations_discharge_clean(self, name):
        for o in build_bundle(name).obligations():
            assert o.verdict in (Verdict.PROVED, Verdict.UNKNOWN), o.obligation
            assert o.verdict is not Verdict.REFUTED

    @pytest.mark.parametrize("name", CHEAP)
    def test_declared_bounds_agree_with_derived(self, name):
        for bound in build_bundle(name).bounds():
            assert bound.agrees, bound.label

    @pytest.mark.parametrize("name", CHEAP)
    def test_lint_target_is_clean(self, name):
        from repro.lint.driver import lint_system

        report = lint_system(build_bundle(name).lint_target())
        assert not report.has_errors
        assert not report.fails(strict=True)

    def test_tournament_4_proves_upper_bound(self):
        by_name = {
            o.obligation: o for o in build_bundle("gen:tournament-4").obligations()
        }
        assert by_name["entry-lower"].verdict is Verdict.PROVED
        assert by_name["entry-upper"].verdict is Verdict.PROVED
        assert by_name["entry-upper"].method == "zone-exact"

    def test_ring_lap_bound_is_k_scaled_hop(self):
        from repro.timed import Interval

        bounds = {b.label: b for b in build_bundle("gen:relay_ring-4").bounds()}
        assert bounds["lap"].derived == Interval(4, 8)


class TestToolchainIntegration:
    @pytest.mark.parametrize("name", CHEAP)
    def test_surface_builds_gen_systems(self, name):
        from repro.surface import bundle, mapping_specs

        timed = bundle(name).timed()
        assert timed.automaton is not None
        for label, mapping, grid, horizon in mapping_specs(name):
            assert label and grid > 0 and horizon > 0

    def test_analyze_system_accepts_gen_names(self):
        from repro.analyze import analyze_system

        report = analyze_system("gen:relay_ring-4")
        assert not report.fails(strict=True)
        assert report.refuted == 0

    def test_perturb_target_battery_passes_at_zero(self):
        from fractions import Fraction

        from repro.faults import Budget, build_perturb_target

        target = build_perturb_target("gen:relay_ring-4", seeds=1, steps=30)
        outcome = target.evaluate(Fraction(0), Budget(wall_time=60.0))
        assert outcome.ok

    def test_sample_names_all_build(self):
        for name in sample_names():
            assert build_bundle(name).timed() is not None
