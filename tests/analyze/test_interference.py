"""The timing-interference rules R015-R019."""

from fractions import Fraction as F

import pytest

from repro.analyze import analyze_system
from repro.analyze.composition import DerivedBound
from repro.analyze.interference import InterferenceContext
from repro.lint.diagnostics import Severity
from repro.lint.driver import _run
from repro.lint.registry import all_rules, get_rule, rules_for
from repro.timed.interval import Interval


class TestRegistration:
    def test_rules_registered_under_interference_target(self):
        ids = {r.id for r in rules_for("interference")}
        assert ids == {"R015", "R016", "R017", "R018", "R019"}

    def test_interference_rules_do_not_leak_into_lint_targets(self):
        for target in ("boundmap", "timed", "conditions", "mapping", "chain", "system"):
            assert not {r.id for r in rules_for(target)} & {
                "R015", "R016", "R017", "R018", "R019"
            }

    def test_ids_are_contiguous_with_existing_set(self):
        ids = sorted(r.id for r in all_rules())
        assert ids[-1] == "R019"

    def test_rules_cite_the_paper(self):
        for rule_id in ("R015", "R016", "R017", "R018", "R019"):
            assert get_rule(rule_id).paper


def _ctx(name, timed, requirements=(), bounds=()):
    return InterferenceContext(
        name=name, timed=timed, requirements=requirements, bounds=bounds
    )


class TestOnShippedSystems:
    def test_fischer_tight_trips_zero_margin(self):
        report = analyze_system("fischer-tight").interference
        r018 = report.by_rule("R018")
        assert r018, "a = b must trip the zero-margin detector"
        assert all(d.severity is Severity.WARNING for d in r018)

    def test_fischer_overlap_is_informational(self):
        report = analyze_system("fischer").interference
        assert report.by_rule("R015")
        assert not report.fails(strict=True)

    def test_chain_boundary_touch_is_waived(self):
        report = analyze_system("chain").interference
        r018 = report.by_rule("R018")
        assert r018  # EVENT_1 hi == EVENT_2 lo: flagged...
        assert all(d.severity is Severity.INFO for d in r018)  # ...but waived
        assert any("waived" in d.hint for d in r018)

    @pytest.mark.parametrize(
        "name", ["rm", "relay", "chain", "fischer", "peterson", "tournament"]
    )
    def test_sound_systems_strict_clean(self, name):
        report = analyze_system(name)
        assert not report.fails(strict=True)

    def test_no_errors_anywhere_on_the_surface(self):
        from repro.catalog import SURFACE_SYSTEMS

        for name in SURFACE_SYSTEMS:
            assert not analyze_system(name).interference.has_errors


class TestSyntheticTriggers:
    """Each rule demonstrated on a minimal hand-built (A, b)."""

    def _timed(self, boundmap_pairs, fischer_like=True):
        from repro.systems.extensions import FischerParams, fischer_system

        return fischer_system(FischerParams(n=2, a=F(1), b=F(2)))

    def test_r017_unreachable_deadline(self):
        from repro.systems.extensions import FischerParams, fischer_system
        from repro.systems.extensions.fischer import ENTER
        from repro.timed.conditions import TimingCondition

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        # Demand an ENTER_1 discharge within [0, 1]; its class (CHECK)
        # cannot fire before b = 2.
        cond = TimingCondition.build(
            "impossible",
            Interval(0, 1),
            actions=lambda a: a == ENTER(1),
            start_states=lambda s: True,
        )
        report = _run("interference", _ctx("synthetic", timed, requirements=(cond,)))
        r017 = report.by_rule("R017")
        assert r017
        assert all(d.severity is Severity.ERROR for d in r017)

    def test_r017_silent_when_deadline_reachable(self):
        from repro.systems.extensions import FischerParams, fischer_system
        from repro.systems.extensions.fischer import ENTER
        from repro.timed.conditions import TimingCondition

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        cond = TimingCondition.build(
            "fine",
            Interval(0, 10),
            actions=lambda a: a == ENTER(1),
            start_states=lambda s: True,
        )
        report = _run("interference", _ctx("synthetic", timed, requirements=(cond,)))
        assert not report.by_rule("R017")

    def test_r019_tighter_declaration_is_an_error(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        bound = DerivedBound(
            system="synthetic",
            label="end-to-end",
            derived=Interval(2, 5),
            declared=Interval(3, 4),  # claims more than provable
        )
        report = _run("interference", _ctx("synthetic", timed, bounds=(bound,)))
        r019 = report.by_rule("R019")
        assert r019
        assert all(d.severity is Severity.ERROR for d in r019)

    def test_r019_looser_declaration_is_info(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        bound = DerivedBound(
            system="synthetic",
            label="end-to-end",
            derived=Interval(2, 5),
            declared=Interval(1, 6),  # merely wastes precision
        )
        report = _run("interference", _ctx("synthetic", timed, bounds=(bound,)))
        r019 = report.by_rule("R019")
        assert r019
        assert all(d.severity is Severity.INFO for d in r019)

    def test_r019_silent_on_agreement(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        bound = DerivedBound(
            system="synthetic",
            label="end-to-end",
            derived=Interval(2, 5),
            declared=Interval(2, 5),
        )
        report = _run("interference", _ctx("synthetic", timed, bounds=(bound,)))
        assert not report.by_rule("R019")

    def test_r018_trips_on_touching_windows(self):
        from repro.systems.extensions import FischerParams, fischer_system

        # a = b makes SET's upper bound meet CHECK's lower bound.
        timed = fischer_system(FischerParams(n=2, a=F(2), b=F(2)))
        report = _run("interference", _ctx("synthetic", timed))
        assert report.by_rule("R018")

    def test_r018_silent_with_margin(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(3)))
        report = _run("interference", _ctx("synthetic", timed))
        assert not report.by_rule("R018")

    def test_r015_overlapping_start_windows(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        report = _run("interference", _ctx("synthetic", timed))
        r015 = report.by_rule("R015")
        assert r015
        assert all(d.severity is Severity.INFO for d in r015)


class TestContextHelpers:
    def test_coenabled_pairs_deduplicate(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        ctx = _ctx("synthetic", timed)
        pairs = [
            (first.name, second.name)
            for _state, first, second in ctx.start_coenabled_pairs()
        ]
        assert len(pairs) == len(set(pairs))

    def test_location_defaults_to_interference_slot(self):
        from repro.systems.extensions import FischerParams, fischer_system

        timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
        assert _ctx("xyz", timed).location == "xyz/interference"
