"""Semantic inclusion (the conclusion of Theorem 3.4) agrees with the
mapping method's verdicts."""

from fractions import Fraction as F

import pytest

from repro.core.checker import check_mapping_exhaustive
from repro.core.inclusion import check_semantic_inclusion
from repro.core.mappings import InequalityMapping
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.systems.mappings_rm import resource_manager_mapping
from repro.systems.resource_manager import (
    GRANT,
    ResourceManagerParams,
    ResourceManagerSystem,
)
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval

from tests.timed.test_conditions import pulse_timed


def small_rm():
    return ResourceManagerSystem(ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1)))


class TestInclusionHolds:
    def test_rm_requirements_hold_semantically(self):
        system = small_rm()
        outcome = check_semantic_inclusion(
            system.algorithm, [system.g1, system.g2], grid=F(1), horizon=F(5),
            max_executions=20_000,
        )
        assert outcome.ok, outcome.violation
        assert not outcome.truncated
        assert outcome.executions_checked > 50

    def test_pulse_gap_holds(self):
        timed = pulse_timed()
        algorithm = time_of_boundmap(timed)
        gap = TimingCondition.after_action("GAP", Interval(1, 7), "fire", {"fire"})
        outcome = check_semantic_inclusion(
            algorithm, [gap], grid=F(1), horizon=F(9)
        )
        assert outcome.ok

    def test_truncation_reported(self):
        system = small_rm()
        outcome = check_semantic_inclusion(
            system.algorithm, [system.g1], grid=F(1, 2), horizon=F(8),
            max_executions=30,
        )
        assert outcome.ok and outcome.truncated


class TestInclusionFails:
    def test_too_tight_bound_has_counterexample(self):
        system = small_rm()
        tight = TimingCondition.from_start("G1", Interval(2, 3), [GRANT])
        outcome = check_semantic_inclusion(
            system.algorithm, [tight], grid=F(1), horizon=F(8)
        )
        assert not outcome.ok
        assert outcome.violation.condition == "G1"
        assert outcome.counterexample is not None

    def test_counterexample_is_a_projection(self):
        system = small_rm()
        tight = TimingCondition.from_start("G1", Interval(3, 7), [GRANT])
        outcome = check_semantic_inclusion(
            system.algorithm, [tight], grid=F(1), horizon=F(8)
        )
        assert not outcome.ok
        # The counterexample's states are plain A-states.
        assert all(isinstance(s, tuple) for s in outcome.counterexample.states)


class TestAgreementWithMappingMethod:
    def test_correct_system_agrees(self):
        system = small_rm()
        mapping = resource_manager_mapping(system)
        mapping_ok = check_mapping_exhaustive(mapping, grid=F(1), horizon=F(8)).ok
        semantic = check_semantic_inclusion(
            system.algorithm, [system.g1, system.g2], grid=F(1), horizon=F(5),
            max_executions=20_000,
        )
        assert not semantic.truncated
        assert mapping_ok and semantic.ok

    def test_wrong_bound_agrees(self):
        # A requirements bound whose upper end is too small: semantic
        # inclusion fails AND the (permissive) mapping check fails —
        # Theorem 3.4's soundness observed from both sides.
        system = small_rm()
        params = system.params
        tight = TimingCondition.from_start(
            "G1", Interval(params.k * params.c1, params.k * params.c2), [GRANT]
        )
        g2 = system.g2
        requirements = time_of_conditions(
            system.timed.automaton, [tight, g2], name="bad"
        )
        mapping = InequalityMapping(
            system.algorithm, requirements, ()
        )
        mapping_ok = check_mapping_exhaustive(mapping, grid=F(1), horizon=F(8)).ok
        semantic_ok = check_semantic_inclusion(
            system.algorithm, [tight, g2], grid=F(1), horizon=F(8),
            max_executions=100_000,
        ).ok
        assert not mapping_ok and not semantic_ok
