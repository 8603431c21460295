"""The grid searches in integer time, held to the same searches in
rational time.

``check_mapping_exhaustive`` and ``check_semantic_inclusion`` run on
copies scaled by the lcm of every denominator; the private references
run the same search on the rational objects themselves.  On every
system below the two must agree exactly: verdict, step or execution
count, failing states, detail text, violation and counterexample.
"""

import math
from fractions import Fraction as F

import pytest

from repro.core.checker import _reference_mapping_exhaustive, check_mapping_exhaustive
from repro.core.completeness import CanonicalMapping, ExhaustiveFirstEstimator
from repro.core.inclusion import _reference_inclusion, check_semantic_inclusion
from repro.core.mappings import NOW, Ineq, InequalityMapping, ProjectionMapping, target_lt
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.core.time_scale import TimeScale
from repro.surface import mapping_specs
from repro.systems.resource_manager import GRANT
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval

from tests.core.test_checker import FALSE, pulse_setup
from tests.core.test_completeness import tiny_rm_setup
from tests.core.test_inclusion import small_rm
from tests.timed.test_conditions import pulse_automaton, pulse_timed


def both_checks(mapping, grid, horizon, **kwargs):
    scaled = check_mapping_exhaustive(mapping, grid, horizon, **kwargs)
    reference = _reference_mapping_exhaustive(mapping, grid, horizon, **kwargs)
    assert scaled.ok == reference.ok
    assert scaled.steps_checked == reference.steps_checked
    assert scaled.detail == reference.detail
    assert scaled.failing_source_state == reference.failing_source_state
    assert scaled.failing_target_state == reference.failing_target_state
    assert repr(scaled.failing_source_state) == repr(reference.failing_source_state)
    assert repr(scaled.failing_target_state) == repr(reference.failing_target_state)
    assert scaled.exhausted_budget == reference.exhausted_budget
    return scaled


def both_inclusions(source, conditions, grid, horizon, **kwargs):
    scaled = check_semantic_inclusion(source, conditions, grid, horizon, **kwargs)
    reference = _reference_inclusion(source, conditions, grid, horizon, **kwargs)
    assert (scaled.ok, scaled.executions_checked, scaled.truncated) == (
        reference.ok,
        reference.executions_checked,
        reference.truncated,
    )
    assert scaled.violation == reference.violation
    assert scaled.counterexample == reference.counterexample
    assert repr(scaled.counterexample) == repr(reference.counterexample)
    return scaled


# ----------------------------------------------------------------------
# The pinned sweeps
# ----------------------------------------------------------------------


def test_rm_sweep_matches_reference():
    ((_label, mapping, _grid, _horizon),) = mapping_specs("rm")
    outcome = both_checks(mapping, F(1, 4), F(9))
    assert (outcome.ok, outcome.steps_checked) == (True, 3540)


def test_relay_line_3_sweeps_match_reference():
    steps = [
        both_checks(mapping, grid, horizon).steps_checked
        for _label, mapping, grid, horizon in mapping_specs("gen:relay_line-3")
    ]
    assert steps == [559, 709, 1690, 1608]


# ----------------------------------------------------------------------
# Failing mutants of tests/core/test_checker.py, swept exhaustively
# ----------------------------------------------------------------------


def _gap_mapping(interval):
    timed = pulse_timed()
    algorithm = time_of_boundmap(timed)
    gap = TimingCondition.after_action("GAP", interval, "fire", {"fire"})
    requirements = time_of_conditions(timed.automaton, [gap], name="req")
    return InequalityMapping(algorithm, requirements, (), name="gap")


def _declared(cases, name):
    _t, algorithm, requirements, _m = pulse_setup()
    return InequalityMapping(algorithm, requirements, cases, name=name)


MUTANTS = {
    "too-tight-upper": lambda: _gap_mapping(Interval(1, 3)),
    "too-loose-lower": lambda: _gap_mapping(Interval(4, 10)),
    "wrong-inequalities": lambda: _declared([Ineq(target_lt("GAP"), ">=", 10**6)], "wrong"),
    "decays": lambda: _declared([Ineq(NOW, "==", 0)], "decays"),
    "never": lambda: _declared(FALSE, "never"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
@pytest.mark.parametrize("grid", [F(1, 2), F(1, 3), 1])
def test_checker_mutants_fail_identically(name, grid):
    outcome = both_checks(MUTANTS[name](), grid, F(10))
    assert not outcome.ok
    assert "Fraction(" not in outcome.detail


def test_enabledness_failure_text():
    outcome = both_checks(_gap_mapping(Interval(1, 3)), F(1, 2), F(10))
    assert outcome.detail.startswith(
        "target step not enabled for gap on ('arm', 9/2): req: no step ('arm', 9/2) "
        "from TimeState(As='off', Ct=1, preds=[(Ft=2, Lt=4)])"
    )
    assert outcome.detail.endswith("requires an earlier Π event by Lt = 4, but t = 9/2)")


def test_containment_failure_text():
    outcome = both_checks(_declared([Ineq(NOW, "==", 0)], "decays"), F(1, 2), F(10))
    assert "containment fails for decays after (" in outcome.detail
    assert "violates == 0 = 0" in outcome.detail


def test_correct_pulse_mapping_and_truncation_match():
    _t, _a, _r, mapping = pulse_setup()
    assert both_checks(mapping, F(1, 2), F(10)).ok
    truncated = both_checks(mapping, F(1, 4), F(10), max_pairs=20)
    assert "truncated" in truncated.detail


# ----------------------------------------------------------------------
# Failing mutants of tests/core/test_inclusion.py
# ----------------------------------------------------------------------


def _rm_inclusion_cases():
    system = small_rm()
    params = system.params
    return {
        "rm-holds": ([system.g1, system.g2], F(1), F(5)),
        "g1-2-3": ([TimingCondition.from_start("G1", Interval(2, 3), [GRANT])], F(1), F(8)),
        "g1-3-7": ([TimingCondition.from_start("G1", Interval(3, 7), [GRANT])], F(1), F(8)),
        "g1-k-c": (
            [
                TimingCondition.from_start(
                    "G1", Interval(params.k * params.c1, params.k * params.c2), [GRANT]
                ),
                system.g2,
            ],
            F(1),
            F(8),
        ),
        "g1-thirds": (
            [TimingCondition.from_start("G1", Interval(F(7, 3), F(8, 3)), [GRANT])],
            F(1, 3),
            F(5),
        ),
    }


@pytest.mark.parametrize("name", sorted(_rm_inclusion_cases()))
def test_inclusion_cases_match_reference(name):
    conditions, grid, horizon = _rm_inclusion_cases()[name]
    outcome = both_inclusions(small_rm().algorithm, conditions, grid, horizon)
    assert outcome.ok == (name == "rm-holds")
    if not outcome.ok:
        assert "Fraction(" not in outcome.violation.detail


def test_inclusion_wrong_bound_mapping_matches_reference():
    system = small_rm()
    params = system.params
    tight = TimingCondition.from_start(
        "G1", Interval(params.k * params.c1, params.k * params.c2), [GRANT]
    )
    requirements = time_of_conditions(system.timed.automaton, [tight, system.g2], name="bad")
    outcome = both_checks(InequalityMapping(system.algorithm, requirements, ()), F(1), F(8))
    assert not outcome.ok


def test_inclusion_truncation_matches_reference():
    system = small_rm()
    outcome = both_inclusions(system.algorithm, [system.g1], F(1, 2), F(8), max_executions=30)
    assert outcome.ok and outcome.truncated


# ----------------------------------------------------------------------
# Opaque mappings, non-dyadic units, and what cannot be scaled
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lower_slack", [0, -1])
def test_canonical_mapping_through_the_adapter(lower_slack):
    algorithm, target = tiny_rm_setup()
    estimator = ExhaustiveFirstEstimator(algorithm, grid=F(1, 2), window=F(8))
    mapping = CanonicalMapping(algorithm, target, estimator, lower_slack=lower_slack)
    outcome = both_checks(mapping, F(1, 2), F(6))
    assert outcome.ok == (lower_slack == 0)


def halves_pulse():
    """The pulse with FIRE in [1/2, 3/2] and ARM in [0, 5/2]."""
    return TimedAutomaton(
        pulse_automaton(),
        Boundmap({"FIRE": Interval(F(1, 2), F(3, 2)), "ARM": Interval(0, F(5, 2))}),
    )


@pytest.mark.parametrize("gap", [Interval(F(1, 2), 4), Interval(F(1, 2), F(5, 2))])
def test_thirds_grid_with_halves_bounds(gap):
    timed = halves_pulse()
    algorithm = time_of_boundmap(timed)
    requirements = time_of_conditions(
        timed.automaton,
        [TimingCondition.after_action("GAP", gap, "fire", {"fire"})],
        name="req",
    )
    mapping = InequalityMapping(algorithm, requirements, ())
    assert TimeScale.for_mapping(mapping, F(1, 3), F(6)).factor == 6
    outcome = both_checks(mapping, F(1, 3), F(6))
    inclusion = both_inclusions(algorithm, list(requirements.conditions), F(1, 3), F(6))
    assert outcome.ok == inclusion.ok == (gap.hi == 4)


def test_scaled_copies_carry_int_time():
    ((_label, mapping, _grid, _horizon),) = mapping_specs("rm")
    scale = TimeScale.for_mapping(mapping, F(1, 4), F(9))
    assert scale.factor == 4
    scaled = scale.mapping(mapping)
    (start,) = scaled.source.start_states()
    values = [start.now] + [v for p in start.preds for v in (p.ft, p.lt)]
    assert all(type(v) is int or math.isinf(v) for v in values)
    assert scaled.source.base is mapping.source.base
    assert scale.state_down(start) == next(iter(mapping.source.start_states()))


def test_projection_mapping_keeps_its_name_map():
    mapping, grid, horizon = next(
        (mapping, grid, horizon)
        for _label, mapping, grid, horizon in mapping_specs("gen:relay_line-3")
        if isinstance(mapping, ProjectionMapping)
    )
    scaled = TimeScale.for_mapping(mapping, grid, horizon).mapping(mapping)
    assert isinstance(scaled, ProjectionMapping)
    assert dict(scaled.name_map) == dict(mapping.name_map)
    assert scaled.source is not mapping.source


def test_float_constants_run_unscaled():
    # A float has no exact unit: the search runs on the rational objects.
    timed = TimedAutomaton(
        pulse_automaton(), Boundmap({"FIRE": Interval(1, 2.5), "ARM": Interval(0, 5)})
    )
    algorithm = time_of_boundmap(timed)
    requirements = time_of_conditions(
        timed.automaton,
        [TimingCondition.after_action("GAP", Interval(1, 8), "fire", {"fire"})],
        name="req",
    )
    mapping = InequalityMapping(algorithm, requirements, ())
    assert TimeScale.for_mapping(mapping, F(1, 2), F(8)) is None
    assert both_checks(mapping, F(1, 2), F(8)).ok


def test_unit_is_the_lcm_of_denominators():
    assert TimeScale.of([F(1, 4), F(9), 3, math.inf, F(5, 6)]).factor == 12
    assert TimeScale.of([1, 2, math.inf]).factor == 1
    assert TimeScale.of([F(1, 2), 0.25]) is None
    scale = TimeScale(6)
    assert [scale.up(v) for v in (F(1, 3), F(1, 2), 2, math.inf)] == [2, 3, 12, math.inf]
    assert [scale.down(v) for v in (2, 3, 12)] == [F(1, 3), F(1, 2), 2]
    assert type(scale.down(12)) is int
