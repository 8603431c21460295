"""Tests of the mapping checkers: runs, chains, exhaustive grids —
including mutation tests where wrong requirement bounds must fail."""

import random
from fractions import Fraction as F

import pytest

from repro.errors import MappingCheckError
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.core.checker import (
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
)
from repro.core.mappings import (
    NOW,
    Ineq,
    InequalityMapping,
    MappingChain,
    ProjectionMapping,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.sim.scheduler import Simulator
from repro.sim.strategies import UniformStrategy

from tests.timed.test_conditions import pulse_timed

#: The declaration that holds for no pair: one unsatisfiable inequality.
FALSE = (Ineq(0, ">=", 1),)


def pulse_setup(fire_interval=Interval(1, 2)):
    """time(A, b) for the pulse system, and a requirements automaton
    bounding fire-to-fire separations."""
    timed = pulse_timed()  # FIRE [1,2], ARM [0,5]
    algorithm = time_of_boundmap(timed)
    # Between consecutive fires: arm within [0,5] then fire within [1,2]
    # of re-enabling ⇒ separation in [1, 7].
    gap = TimingCondition.after_action("GAP", Interval(1, 7), "fire", {"fire"})
    requirements = time_of_conditions(timed.automaton, [gap], name="req")
    mapping = InequalityMapping(
        algorithm,
        requirements,
        _PULSE_CASES,
        case_of=_off,
        name="pulse-gap",
    )
    return timed, algorithm, requirements, mapping


def _off(astate) -> bool:
    return astate == "off"


#: Off: arm within Lt(ARM), then fire within 2 more; on: fire's own
#: prediction.
_PULSE_CASES = {
    True: [
        Ineq(target_lt("GAP"), ">=", source_lt("ARM") + 2),
        Ineq(target_ft("GAP"), "<=", source_ft("ARM") + 1),
    ],
    False: [
        Ineq(target_lt("GAP"), ">=", source_lt("FIRE")),
        Ineq(target_ft("GAP"), "<=", source_ft("FIRE")),
    ],
}


def run_of(algorithm, seed=0, steps=40):
    return Simulator(algorithm, UniformStrategy(random.Random(seed))).run(max_steps=steps)


class TestRunChecker:
    def test_correct_mapping_passes(self):
        _t, algorithm, _r, mapping = pulse_setup()
        for seed in range(5):
            outcome = check_mapping_on_run(mapping, run_of(algorithm, seed))
            assert outcome.ok, outcome.detail

    def test_steps_counted(self):
        _t, algorithm, _r, mapping = pulse_setup()
        run = run_of(algorithm, 1, steps=25)
        assert check_mapping_on_run(mapping, run).steps_checked == len(run)

    def test_too_tight_upper_bound_fails_enabledness(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap = TimingCondition.after_action("GAP", Interval(1, 3), "fire", {"fire"})
        requirements = time_of_conditions(timed.automaton, [gap], name="req")
        mapping = InequalityMapping(algorithm, requirements, ())
        failures = 0
        for seed in range(10):
            outcome = check_mapping_on_run(mapping, run_of(algorithm, seed, steps=60))
            if not outcome.ok:
                failures += 1
                assert "not enabled" in outcome.detail
        assert failures > 0, "a 3-unit gap bound cannot hold; some run must refute it"

    def test_too_loose_lower_bound_fails_enabledness(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap = TimingCondition.after_action("GAP", Interval(4, 10), "fire", {"fire"})
        requirements = time_of_conditions(timed.automaton, [gap], name="req")
        mapping = InequalityMapping(algorithm, requirements, ())
        failures = sum(
            0 if check_mapping_on_run(mapping, run_of(algorithm, seed, steps=60)).ok else 1
            for seed in range(10)
        )
        assert failures > 0, "gaps of length < 4 are reachable and must refute the bound"

    def test_wrong_inequalities_fail_containment(self):
        _t, algorithm, requirements, _m = pulse_setup()
        bad = InequalityMapping(
            algorithm, requirements, [Ineq(target_lt("GAP"), ">=", 10**6)]
        )
        outcome = check_mapping_on_run(bad, run_of(algorithm, 0))
        assert not outcome.ok
        assert "initial" in outcome.detail or "containment" in outcome.detail

    def test_raise_if_failed(self):
        _t, algorithm, requirements, _m = pulse_setup()
        bad = InequalityMapping(algorithm, requirements, FALSE)
        with pytest.raises(MappingCheckError):
            check_mapping_on_run(bad, run_of(algorithm, 0)).raise_if_failed()

    def test_outcome_truthiness(self):
        _t, algorithm, _r, mapping = pulse_setup()
        assert check_mapping_on_run(mapping, run_of(algorithm, 2))


class TestChainChecker:
    def test_two_level_chain(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap_mid = TimingCondition.after_action("GAP", Interval(1, 7), "fire", {"fire"})
        middle = time_of_conditions(
            timed.automaton,
            [gap_mid] + list(algorithm.conditions),
            name="mid",
        )
        top = time_of_conditions(timed.automaton, [gap_mid], name="top")
        shared = [
            Ineq(field(name), "==", mirror(name))
            for name in ("FIRE", "ARM")
            for field, mirror in ((target_ft, source_ft), (target_lt, source_lt))
        ]
        m1 = InequalityMapping(
            algorithm,
            middle,
            {off: shared + cases for off, cases in _PULSE_CASES.items()},
            case_of=_off,
            name="to-mid",
        )
        m2 = ProjectionMapping(middle, top, name="to-top")
        chain = MappingChain([m1, m2])
        for seed in range(4):
            outcome = check_chain_on_run(chain, run_of(algorithm, seed))
            assert outcome.ok, outcome.detail


class TestExhaustiveChecker:
    def test_correct_mapping_exhaustive(self):
        _t, _a, _r, mapping = pulse_setup()
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(10))
        assert outcome.ok, outcome.detail
        assert outcome.steps_checked > 50

    def test_wrong_bound_found_exhaustively(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap = TimingCondition.after_action("GAP", Interval(1, 3), "fire", {"fire"})
        requirements = time_of_conditions(timed.automaton, [gap], name="req")
        mapping = InequalityMapping(algorithm, requirements, ())
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(10))
        assert not outcome.ok

    def test_truncation_reported(self):
        _t, _a, _r, mapping = pulse_setup()
        outcome = check_mapping_exhaustive(
            mapping, grid=F(1, 4), horizon=F(10), max_pairs=20
        )
        assert outcome.ok and "truncated" in outcome.detail


class TestFailurePaths:
    """raise_if_failed and the MappingCheckError diagnostics: both proof
    obligations (enabledness, containment) must fail with a message a
    user can act on, carrying the failing state pair."""

    def test_raise_if_failed_returns_self_on_success(self):
        _t, algorithm, _r, mapping = pulse_setup()
        outcome = check_mapping_on_run(mapping, run_of(algorithm, 3))
        assert outcome.raise_if_failed() is outcome

    def test_raise_if_failed_carries_states(self):
        from repro.core.checker import CheckOutcome

        outcome = CheckOutcome(
            False, 7, "boom", failing_source_state="s", failing_target_state="u"
        )
        with pytest.raises(MappingCheckError) as excinfo:
            outcome.raise_if_failed()
        assert str(excinfo.value) == "boom"
        assert excinfo.value.source_state == "s"
        assert excinfo.value.target_state == "u"

    def _failing_enabledness_outcome(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap = TimingCondition.after_action("GAP", Interval(1, 3), "fire", {"fire"})
        requirements = time_of_conditions(timed.automaton, [gap], name="req")
        mapping = InequalityMapping(
            algorithm, requirements, (), name="too-tight"
        )
        for seed in range(10):
            outcome = check_mapping_on_run(mapping, run_of(algorithm, seed, steps=60))
            if not outcome.ok:
                return outcome
        pytest.fail("a 3-unit gap bound cannot hold on every run")

    def test_enabledness_failure_message_and_states(self):
        outcome = self._failing_enabledness_outcome()
        assert "target step not enabled" in outcome.detail
        assert "too-tight" in outcome.detail
        assert outcome.failing_source_state is not None
        assert outcome.failing_target_state is not None
        with pytest.raises(MappingCheckError) as excinfo:
            outcome.raise_if_failed()
        assert "target step not enabled" in str(excinfo.value)
        assert excinfo.value.source_state is outcome.failing_source_state
        assert excinfo.value.target_state is outcome.failing_target_state

    def test_containment_failure_message_uses_explain(self):
        _t, algorithm, requirements, _m = pulse_setup()
        bad = InequalityMapping(
            algorithm,
            requirements,
            [Ineq(NOW, "==", 0)],  # holds initially, fails later
            name="decays",
        )
        outcome = check_mapping_on_run(bad, run_of(algorithm, 0))
        assert not outcome.ok
        assert "containment fails" in outcome.detail
        # The failure text is derived from the declaration: the violated
        # inequality with both sides' values.
        assert "violates == 0 = 0" in outcome.detail
        with pytest.raises(MappingCheckError) as excinfo:
            outcome.raise_if_failed()
        assert "Ct = " in str(excinfo.value)
        assert excinfo.value.source_state is not None
        assert excinfo.value.target_state is not None

    def test_initial_condition_failure_states(self):
        _t, algorithm, requirements, _m = pulse_setup()
        bad = InequalityMapping(
            algorithm, requirements, FALSE, name="never"
        )
        outcome = check_mapping_on_run(bad, run_of(algorithm, 0))
        assert not outcome.ok and outcome.steps_checked == 0
        assert "initial condition fails" in outcome.detail
        assert outcome.failing_source_state is not None
        assert outcome.failing_target_state is not None
