"""Closed-form bound derivation (the Theorem 6.4 fold) and tolerances."""

from fractions import Fraction as F

import pytest

from repro.analyze import closed_form_tolerance, derived_bounds
from repro.catalog import SURFACE_SYSTEMS
from repro.timed.interval import Interval


class TestDerivedBounds:
    @pytest.mark.parametrize("name", list(SURFACE_SYSTEMS))
    def test_every_declared_bound_is_derivable(self, name):
        for bound in derived_bounds(name):
            assert bound.agrees, bound

    def test_rm_closed_forms(self):
        bounds = {b.label: b for b in derived_bounds("rm")}
        # k = 3 ticks of [2, 3] then a grant within [0, 1].
        assert bounds["first-grant"].derived == Interval(6, 10)
        # First tick shifted by Lemma 4.1, then k - 1 ticks + grant.
        assert bounds["grant-gap"].derived == Interval(5, 10)
        # The milestone-chain fold reproduces both.
        assert bounds["first-grant/recurrence"].agrees
        assert bounds["grant-gap/recurrence"].agrees

    def test_relay_hierarchy_levels(self):
        bounds = {b.label: b for b in derived_bounds("relay")}
        assert bounds["end-to-end"].derived == Interval(3, 6)
        # B_k hierarchy: U[k, n] carries (n - k) hops of [1, 2];
        # U[0,n] is the end-to-end row.
        assert sorted(bounds) == ["U[1,3]", "U[2,3]", "end-to-end"]
        assert bounds["U[1,3]"].derived == Interval(2, 4)
        assert bounds["U[2,3]"].derived == Interval(1, 2)

    def test_relay_and_equal_stage_chain_report_the_same_rows(self):
        from repro.analyze.composition import _line_bounds
        from repro.surface import bundle
        from repro.systems.extensions import ChainSystem

        chain = ChainSystem([Interval(1, 2)] * 3)
        assert _line_bounds("relay", chain) == derived_bounds("relay")
        assert bundle("relay").system().stages == chain.stages

    def test_chain_partial_sums(self):
        bounds = {b.label: b for b in derived_bounds("chain")}
        assert bounds["end-to-end"].derived == Interval(3, 5)
        assert bounds["U[1,2]"].derived == Interval(2, 3)

    def test_tournament_width_2_first_entry_bound(self):
        bounds = {b.label: b for b in derived_bounds("tournament")}
        # Width 2 is Peterson: first CS entry in 3 * [s1, s2].
        assert bounds["first-entry"].derived == Interval(3, 6)
        assert bounds["first-entry"].agrees

    def test_bound_dicts_are_json_plain(self):
        import json

        for name in SURFACE_SYSTEMS:
            for bound in derived_bounds(name):
                json.dumps(bound.to_dict())


class TestClosedFormTolerance:
    def test_shipped_values(self):
        assert closed_form_tolerance("rm") == F(1, 5)
        assert closed_form_tolerance("relay") == F(1, 3)
        assert closed_form_tolerance("chain") == F(1, 5)
        assert closed_form_tolerance("fischer") == F(1, 3)
        assert closed_form_tolerance("fischer-tight") == 0
        assert closed_form_tolerance("peterson") is None
        assert closed_form_tolerance("tournament") is None

    def test_tight_variant_has_zero_slack(self):
        # fischer-tight sits exactly on the a = b knife edge: the
        # closed form says no uniform tightening survives, matching
        # the exploratory ToleranceReport.fragile notion.
        assert closed_form_tolerance("fischer-tight") == 0

    def test_rm_tolerance_cross_checked_against_perturbation(self):
        """The closed form must agree with the exploratory analyzer:
        a probe strictly inside the tolerance passes, one beyond the
        critical ratio fails."""
        from repro.faults.budget import Budget
        from repro.faults.targets import probe_tolerance

        eps_star = closed_form_tolerance("rm")
        budget = Budget(max_states=50_000, max_steps=500_000, wall_time=30.0)
        _target, nominal, below = probe_tolerance(
            "rm", eps_star / 2, budget=budget, seeds=1, steps=40
        )
        assert nominal.ok and below.ok
        _target, _nominal, beyond = probe_tolerance(
            "rm", eps_star + F(1, 4), budget=budget, seeds=1, steps=40
        )
        assert not beyond.ok
