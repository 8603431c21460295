"""Tests for the per-system perturbation harnesses (kept fast: the
mutex systems probe in milliseconds; the full searches live in
``benchmarks/bench_perturbation.py`` and the CLI acceptance test)."""

from fractions import Fraction as F

import pytest

from repro.errors import ReproError
from repro.catalog import SURFACE_SYSTEMS
from repro.faults import Budget, build_perturb_target, probe_tolerance


def budget():
    return Budget(max_states=50_000, max_steps=500_000, wall_time=30)


class TestRegistry:
    def test_names_cover_all_shipped_harnesses(self):
        assert set(SURFACE_SYSTEMS) == {
            "rm",
            "relay",
            "chain",
            "fischer",
            "fischer-tight",
            "peterson",
            "tournament",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            build_perturb_target("no-such-system")

    def test_canonical_directions(self):
        assert build_perturb_target("rm").direction == "tighten"
        assert build_perturb_target("fischer").direction == "widen"

    def test_direction_override(self):
        target = build_perturb_target("fischer", direction="tighten", mode="shift")
        assert target.direction == "tighten" and target.mode == "shift"


class TestVerdicts:
    def test_fischer_nominal_passes_and_large_drift_breaks(self):
        target = build_perturb_target("fischer")
        assert target.evaluate(F(0), budget()).ok
        broken = target.evaluate(F(1, 2), budget())
        assert not broken.ok
        assert "mutual exclusion" in broken.detail

    def test_fischer_tight_is_broken_at_zero(self):
        target = build_perturb_target("fischer-tight")
        nominal = target.evaluate(F(0), budget())
        assert not nominal.ok

    def test_peterson_survives_any_drift(self):
        target = build_perturb_target("peterson")
        assert target.evaluate(F(1), budget()).ok

    def test_collapsing_drift_is_a_failing_outcome_not_an_error(self):
        target = build_perturb_target("rm", seeds=1, steps=10)
        outcome = target.evaluate(F(1), budget())
        assert not outcome.ok
        assert "PerturbationError" in outcome.detail

    def test_search_reports_fischer_threshold(self):
        target = build_perturb_target("fischer")
        report = target.search(resolution=F(1, 16), budget_factory=budget)
        assert not report.broken and not report.ceiling_hit
        # Exact threshold is (b - a)/(a + b) = 1/3.
        assert report.tolerance < F(1, 3) <= report.breaking_epsilon

    def test_probe_tolerance_contract(self):
        target, nominal, probe = probe_tolerance(
            "fischer-tight", F(1, 32), budget=budget()
        )
        assert target.name == "fischer-tight"
        assert not nominal.ok
        assert not probe.ok


class TestBudgetDegradation:
    def test_starved_probe_returns_partial_outcome(self):
        target = build_perturb_target("rm", seeds=1, steps=10)
        outcome = target.evaluate(F(0), Budget(max_steps=5))
        assert outcome.ok  # nothing failed in the sliver that ran
        assert outcome.exhausted_budget
        assert not outcome.conclusive
