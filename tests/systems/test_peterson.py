"""Peterson's 2-process mutual exclusion with step-time bounds.

Safety is asynchronous (holds for every boundmap); the timing question
— first entry under contention — is exactly ``[3·s1, 3·s2]``, the
[LG89]-style recurrence bound, proven tight by the zone engine.
"""

import random
from fractions import Fraction as F

import pytest

from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.ioa.explorer import check_invariant
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy, UniformStrategy
from repro.systems.extensions.peterson import (
    CRITICAL,
    ENTER,
    EXIT,
    SETFLAG,
    SETTURN,
    TEST,
    PetersonParams,
    both_critical,
    peterson_automaton,
    peterson_system,
    someone_critical,
)
from repro.analyze.recurrence import peterson_first_entry_chain
from repro.timed.satisfaction import find_boundmap_violation
from repro.zones.analysis import event_separation_bounds, find_reachable_state


class TestParams:
    def test_ordering(self):
        with pytest.raises(Exception):
            PetersonParams(s1=2, s2=1)

    def test_s2_positive(self):
        with pytest.raises(Exception):
            PetersonParams(s1=0, s2=0)

    def test_e_positive(self):
        with pytest.raises(Exception):
            PetersonParams(s1=1, s2=2, e=0)


class TestUntimedSafety:
    def test_mutex_invariant_exhaustive(self):
        # Asynchronous safety: checked over the full untimed state graph.
        auto = peterson_automaton(PetersonParams(s1=F(1), s2=F(2), repeat=True))
        report = check_invariant(auto, lambda s: not both_critical(s))
        assert report.holds

    def test_mutex_under_timed_semantics(self):
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1), repeat=True)
        bad = find_reachable_state(
            peterson_system(params), both_critical, max_nodes=300_000
        )
        assert bad is None

    def test_mutex_for_degenerate_bounds(self):
        # Unlike Fischer, no timing discipline is needed: even with the
        # laziest/fastest extremes the invariant holds.
        params = PetersonParams(s1=F(0), s2=F(10), e=F(10), repeat=True)
        bad = find_reachable_state(
            peterson_system(params), both_critical, max_nodes=300_000
        )
        assert bad is None


class TestContentionBound:
    @pytest.mark.parametrize(
        "s1,s2",
        [(F(1), F(2)), (F(0), F(1)), (F(1), F(10)), (F(2), F(3))],
    )
    def test_first_entry_exactly_three_steps(self, s1, s2):
        params = PetersonParams(s1=s1, s2=s2)
        bounds = event_separation_bounds(
            peterson_system(params),
            {ENTER(1), ENTER(2)},
            occurrence=1,
            max_nodes=200_000,
        )
        assert bounds.lo == 3 * s1
        assert bounds.hi == 3 * s2
        assert not bounds.lo_strict and not bounds.hi_strict

    def test_matches_recurrence_baseline(self):
        params = PetersonParams(s1=F(1), s2=F(2))
        operational = peterson_first_entry_chain(params.step_interval).total()
        exact = event_separation_bounds(
            peterson_system(params), {ENTER(1), ENTER(2)}, occurrence=1,
            max_nodes=200_000,
        )
        assert (exact.lo, exact.hi) == (operational.lo, operational.hi)

    def test_handover_within_one_step(self):
        # After the winner exits, the loser's next check admits it:
        # handover within [0, s2].
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1))
        bounds = event_separation_bounds(
            peterson_system(params),
            {ENTER(1), ENTER(2)},
            occurrence=2,
            reset_on={EXIT(1), EXIT(2)},
            max_nodes=400_000,
        )
        assert bounds.lo == 0 and bounds.hi == params.s2

    def test_second_entry_absolute(self):
        # 3 steps + critical section + one more check.
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1))
        bounds = event_separation_bounds(
            peterson_system(params), {ENTER(1), ENTER(2)}, occurrence=2,
            max_nodes=400_000,
        )
        assert bounds.lo == 3 * params.s1
        assert bounds.hi == 3 * params.s2 + params.e + params.s2


class TestSimulation:
    def test_runs_are_semi_executions(self):
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1), repeat=True)
        timed = peterson_system(params)
        automaton = time_of_boundmap(timed)
        for seed in range(4):
            run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
                max_steps=100
            )
            assert find_boundmap_violation(timed, project(run), semi=True) is None
            assert all(not both_critical(s.astate) for s in run.states)

    def test_someone_enters_within_three_slow_steps(self):
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1), repeat=True)
        automaton = time_of_boundmap(peterson_system(params))
        for seed in range(6):
            run = Simulator(automaton, ExtremalStrategy(random.Random(seed))).run(
                max_steps=60
            )
            entries = [
                ev.time for ev in run.events if ev.action in (ENTER(1), ENTER(2))
            ]
            assert entries and entries[0] <= 3 * params.s2

    def test_one_shot_variant_quiesces(self):
        params = PetersonParams(s1=F(1), s2=F(2), e=F(1), repeat=False)
        automaton = time_of_boundmap(peterson_system(params))
        run = Simulator(automaton, UniformStrategy(random.Random(0))).run(
            max_steps=100
        )
        assert len(run) < 100  # both processes reach DONE and stop
        exits = [ev for ev in run.events if ev.action in (EXIT(1), EXIT(2))]
        assert len(exits) == 2
