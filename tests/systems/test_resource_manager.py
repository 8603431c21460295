"""Section 4 resource manager: structure, Lemma 4.1, Theorem 4.4
measurements."""

import random
from fractions import Fraction as F

import pytest

from repro.errors import AutomatonError
from repro.core.discretize import discrete_options
from repro.core.projection import project
from repro.sim.scheduler import Simulator
from repro.sim.strategies import EagerStrategy, LazyStrategy, UniformStrategy
from repro.sim.trace import timed_behavior_of_run
from repro.systems.resource_manager import (
    ELSE,
    GRANT,
    TICK,
    ResourceManagerParams,
    ResourceManagerSystem,
    lemma_4_1_predicate,
    manager_automaton,
    resource_manager,
    timer_of,
)
from repro.sim.bounds import gaps, occurrence_times
from repro.timed.satisfaction import find_boundmap_violation


class TestParams:
    def test_k_positive(self):
        with pytest.raises(AutomatonError):
            ResourceManagerParams(k=0, c1=2, c2=3, l=1)

    def test_c1_le_c2(self):
        with pytest.raises(AutomatonError):
            ResourceManagerParams(k=1, c1=3, c2=2, l=1)

    def test_c1_greater_than_l(self):
        with pytest.raises(AutomatonError):
            ResourceManagerParams(k=1, c1=1, c2=2, l=1)

    def test_l_positive(self):
        with pytest.raises(AutomatonError):
            ResourceManagerParams(k=1, c1=2, c2=3, l=0)

    def test_paper_intervals(self, rm_params):
        assert rm_params.first_grant_interval.lo == 2 * rm_params.c1
        assert rm_params.first_grant_interval.hi == 2 * rm_params.c2 + rm_params.l
        assert rm_params.grant_gap_interval.lo == 2 * rm_params.c1 - rm_params.l


class TestStructure:
    def test_manager_effects(self):
        mgr = manager_automaton(3)
        assert list(mgr.transitions(3, TICK)) == [2]
        assert list(mgr.transitions(0, GRANT)) == [3]

    def test_grant_enabled_iff_timer_nonpositive(self):
        mgr = manager_automaton(2)
        assert not mgr.is_enabled(1, GRANT)
        assert mgr.is_enabled(0, GRANT)
        assert mgr.is_enabled(-1, GRANT)

    def test_else_complements_grant(self):
        mgr = manager_automaton(2)
        for timer in (-1, 0, 1, 2):
            assert mgr.is_enabled(timer, ELSE) != mgr.is_enabled(timer, GRANT)

    def test_tick_hidden_in_composition(self, rm_params):
        ta = resource_manager(rm_params)
        assert TICK in ta.automaton.signature.internals
        assert ta.automaton.signature.external == {GRANT}

    def test_local_class_always_enabled(self, rm_params):
        # The LOCAL class (GRANT or ELSE) is enabled in every reachable state.
        ta = resource_manager(rm_params)
        local = ta.automaton.partition["LOCAL"]
        for timer in range(-1, rm_params.k + 1):
            state = ("clockstate", timer)
            assert ta.automaton.class_enabled(state, local)

    def test_start_state(self, rm_system):
        assert timer_of(rm_system.start_astate()) == rm_system.params.k


class TestLemma41:
    def test_along_random_runs(self, rm_system):
        predicate = lemma_4_1_predicate(rm_system)
        for seed in range(8):
            run = Simulator(
                rm_system.algorithm, UniformStrategy(random.Random(seed))
            ).run(max_steps=120)
            assert all(predicate(state) for state in run.states)

    def test_exhaustive_on_grid(self, rm_system):
        predicate = lemma_4_1_predicate(rm_system)
        seen = set()
        frontier = list(rm_system.algorithm.start_states())
        grid = F(1, 2)
        while frontier:
            state = frontier.pop()
            if state in seen:
                continue
            seen.add(state)
            assert predicate(state), state
            for action, t in discrete_options(rm_system.algorithm, state, grid, F(9)):
                frontier.extend(rm_system.algorithm.successors(state, action, t))
        assert len(seen) > 50

    def test_timer_never_negative(self, rm_system):
        predicate = lemma_4_1_predicate(rm_system)
        run = Simulator(rm_system.algorithm, EagerStrategy(random.Random(0))).run(
            max_steps=200
        )
        assert all(timer_of(s.astate) >= 0 for s in run.states)
        assert all(predicate(s) for s in run.states)


class TestTheorem44Measurements:
    def _grant_times(self, system, strategy, steps=400):
        run = Simulator(system.algorithm, strategy).run(max_steps=steps)
        behavior = timed_behavior_of_run(system.timed.automaton, run)
        return occurrence_times(behavior, GRANT)

    def test_uniform_runs_within_bounds(self, rm_system):
        params = rm_system.params
        for seed in range(6):
            times = self._grant_times(rm_system, UniformStrategy(random.Random(seed)))
            assert times, "expected several grants"
            assert times[0] in params.first_grant_interval
            for gap in gaps(times):
                assert gap in params.grant_gap_interval

    def test_eager_attains_lower_bound(self, rm_system):
        times = self._grant_times(rm_system, EagerStrategy(random.Random(0)))
        assert times[0] == rm_system.params.first_grant_interval.lo

    def test_lazy_stays_within_bounds(self, rm_system):
        # Lazy scheduling delays each *event* maximally; interestingly
        # that forces TICKs early (the LOCAL deadline is always the
        # binding one), so it probes the bounds rather than attaining
        # the supremum — attainment is covered by the extremal sweep
        # below and exactly by the zone analysis.
        params = rm_system.params
        times = self._grant_times(rm_system, LazyStrategy(random.Random(0)))
        assert times and times[0] in params.first_grant_interval
        for gap in gaps(times):
            assert gap in params.grant_gap_interval

    def test_extremal_attains_upper_bound(self, rm_system):
        from repro.sim.strategies import ExtremalStrategy

        params = rm_system.params
        best = max(
            self._grant_times(
                rm_system, ExtremalStrategy(random.Random(seed), p_low=0.3)
            )[0]
            for seed in range(40)
        )
        assert best == params.first_grant_interval.hi

    def test_projections_are_semi_executions(self, rm_system):
        run = Simulator(rm_system.algorithm, UniformStrategy(random.Random(1))).run(
            max_steps=100
        )
        assert find_boundmap_violation(rm_system.timed, project(run), semi=True) is None

    def test_requirements_satisfied_semantically(self, rm_system):
        from repro.timed.satisfaction import semi_satisfies_all

        run = Simulator(rm_system.algorithm, UniformStrategy(random.Random(2))).run(
            max_steps=150
        )
        assert semi_satisfies_all(project(run), [rm_system.g1, rm_system.g2]) is None

    def test_lemma_4_2_runs_never_quiesce(self, rm_system):
        # Lemma 4.2: all timed executions are infinite — the simulator
        # always finds a next event.
        run = Simulator(rm_system.algorithm, UniformStrategy(random.Random(3))).run(
            max_steps=300
        )
        assert len(run) == 300
