"""Lemma 4.3: the Section 4.3 mapping is a strong possibilities mapping
— checked on runs, exhaustively on a grid, and refuted under mutation."""

import random
from fractions import Fraction as F

import pytest

from repro.core.checker import check_mapping_exhaustive, check_mapping_on_run
from repro.core.mappings import Ineq, InequalityMapping, source_lt, target_lt
from repro.core.time_automaton import time_of_conditions
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy, LazyStrategy, UniformStrategy
from repro.systems.mappings_rm import (
    resource_manager_mapping,
    resource_manager_mapping_over,
)
from repro.systems.resource_manager import (
    ResourceManagerParams,
    ResourceManagerSystem,
    grant_conditions,
    timer_of,
)
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval


class TestMappingOnRuns:
    def test_uniform_runs(self, rm_system):
        mapping = resource_manager_mapping(rm_system)
        for seed in range(8):
            run = Simulator(
                rm_system.algorithm, UniformStrategy(random.Random(seed))
            ).run(max_steps=150)
            outcome = check_mapping_on_run(mapping, run)
            assert outcome.ok, outcome.detail

    def test_extremal_runs(self, rm_system):
        mapping = resource_manager_mapping(rm_system)
        for seed in range(8):
            run = Simulator(
                rm_system.algorithm, ExtremalStrategy(random.Random(seed))
            ).run(max_steps=150)
            assert check_mapping_on_run(mapping, run).ok

    def test_lazy_runs(self, rm_system):
        mapping = resource_manager_mapping(rm_system)
        run = Simulator(rm_system.algorithm, LazyStrategy(random.Random(0))).run(
            max_steps=200
        )
        assert check_mapping_on_run(mapping, run).ok

    @pytest.mark.parametrize(
        "k,c1,c2,l",
        [(1, F(2), F(3), F(1)), (3, F(2), F(2), F(1)), (2, F(5), F(7), F(2))],
    )
    def test_other_parameterisations(self, k, c1, c2, l):
        system = ResourceManagerSystem(ResourceManagerParams(k=k, c1=c1, c2=c2, l=l))
        mapping = resource_manager_mapping(system)
        for seed in range(4):
            run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
                max_steps=120
            )
            assert check_mapping_on_run(mapping, run).ok


class TestMappingExhaustive:
    def test_small_grid_exhaustive(self):
        system = ResourceManagerSystem(
            ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1))
        )
        mapping = resource_manager_mapping(system)
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(8))
        assert outcome.ok, outcome.detail
        assert outcome.steps_checked > 100

    def test_k2_grid_exhaustive(self, rm_system):
        mapping = resource_manager_mapping(rm_system)
        outcome = check_mapping_exhaustive(mapping, grid=F(1), horizon=F(10))
        assert outcome.ok, outcome.detail


def _mutated_requirements(system, g1_interval=None, g2_interval=None):
    g1, g2 = grant_conditions(system.params)
    if g1_interval is not None:
        g1 = TimingCondition.from_start("G1", g1_interval, [g1])
        # rebuild with the same Π
        from repro.systems.resource_manager import GRANT

        g1 = TimingCondition.from_start("G1", g1_interval, [GRANT])
    if g2_interval is not None:
        from repro.systems.resource_manager import GRANT

        g2 = TimingCondition.after_action("G2", g2_interval, GRANT, [GRANT])
    return time_of_conditions(system.timed.automaton, [g1, g2], name="B-mutated")


def _mapping_against(system, requirements):
    """The Section 4.3 inequalities pointed at a (possibly wrong)
    requirements automaton."""
    return resource_manager_mapping_over(system.algorithm, requirements, system.params)


class TestMutations:
    """Wrong requirement bounds must be *refuted* by the checker — this
    is what distinguishes a proof check from a vacuous pass."""

    def _refuted(self, system, mapping, seeds=range(12)):
        for seed in seeds:
            run = Simulator(
                system.algorithm, ExtremalStrategy(random.Random(seed))
            ).run(max_steps=200)
            if not check_mapping_on_run(mapping, run).ok:
                return True
        return False

    def test_too_tight_g1_upper_refuted(self, rm_system):
        params = rm_system.params
        bad = _mutated_requirements(
            rm_system,
            g1_interval=Interval(params.k * params.c1, params.k * params.c2),  # no +l
        )
        assert self._refuted(rm_system, _mapping_against(rm_system, bad))

    def test_too_high_g1_lower_refuted(self, rm_system):
        params = rm_system.params
        bad = _mutated_requirements(
            rm_system,
            g1_interval=Interval(
                params.k * params.c1 + 1, params.k * params.c2 + params.l
            ),
        )
        assert self._refuted(rm_system, _mapping_against(rm_system, bad))

    def test_too_tight_g2_refuted(self, rm_system):
        params = rm_system.params
        bad = _mutated_requirements(
            rm_system,
            g2_interval=Interval(
                params.k * params.c1, params.k * params.c2  # gap lower misses −l
            ),
        )
        assert self._refuted(rm_system, _mapping_against(rm_system, bad))

    def test_exhaustive_refutation(self):
        system = ResourceManagerSystem(
            ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1))
        )
        # True first-grant supremum is k·c2 + l = 4; claim 3 instead.
        bad = _mutated_requirements(system, g1_interval=Interval(2, 3))
        outcome = check_mapping_exhaustive(
            _mapping_against(system, bad), grid=F(1, 2), horizon=F(8)
        )
        assert not outcome.ok

    def test_wrong_inequality_constant_refuted(self, rm_system):
        # Break the mapping itself (drop the +l in the Lt inequality so
        # it demands too much): containment must fail somewhere.
        c2, l = rm_system.params.c2, rm_system.params.l
        cases = {
            timer: [
                Ineq(target_lt(g), ">=", source_lt("TICK") + ((timer - 1) * c2 + l + 1))
                for g in ("G1", "G2")
            ]
            for timer in range(1, rm_system.params.k + 1)
        }
        cases[0] = [Ineq(target_lt(g), ">=", source_lt("LOCAL")) for g in ("G1", "G2")]
        mapping = InequalityMapping(
            rm_system.algorithm, rm_system.requirements, cases, case_of=timer_of
        )
        assert self._refuted(rm_system, mapping)
