"""Fischer's timed mutual exclusion: safety is a timing property.

The protocol is safe exactly when the wait-before-check exceeds the
maximum set delay (b > a); with this model's closed bounds, b = a
already admits a same-instant interleaving that violates mutex.
"""

import random
from fractions import Fraction as F

import pytest

from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy, UniformStrategy
from repro.systems.extensions.fischer import (
    CRITICAL,
    ENTER,
    EXIT,
    FischerParams,
    IDLE,
    SET,
    TRY,
    critical_processes,
    fischer_automaton,
    fischer_system,
    mutual_exclusion_violated,
)
from repro.timed.satisfaction import find_boundmap_violation
from repro.zones.analysis import find_reachable_state


class TestParams:
    def test_needs_two_processes(self):
        with pytest.raises(Exception):
            FischerParams(n=1, a=1, b=2, e=1)

    def test_positive_delays(self):
        with pytest.raises(Exception):
            FischerParams(n=2, a=0, b=2, e=1)

    def test_safe_predicate(self):
        assert FischerParams(n=2, a=1, b=2, e=1).safe
        assert not FischerParams(n=2, a=2, b=2, e=1).safe


class TestAutomaton:
    def setup_method(self):
        self.params = FischerParams(n=2, a=F(1), b=F(2), e=F(1))
        self.auto = fischer_automaton(self.params)
        (self.start,) = list(self.auto.start_states())

    def test_start_state(self):
        assert self.start == (0, (IDLE, IDLE))

    def test_try_requires_free_variable(self):
        assert self.auto.is_enabled(self.start, TRY(1))
        after_set = (1, ("waiting", IDLE))
        assert not self.auto.is_enabled(after_set, TRY(2))

    def test_set_writes_variable(self):
        setting = (0, ("setting", IDLE))
        (post,) = list(self.auto.transitions(setting, SET(1)))
        assert post == (1, ("waiting", IDLE))

    def test_enter_requires_ownership(self):
        waiting_owned = (1, ("waiting", IDLE))
        assert self.auto.is_enabled(waiting_owned, ENTER(1))
        waiting_lost = (2, ("waiting", "setting"))
        assert not self.auto.is_enabled(waiting_lost, ENTER(1))

    def test_exit_frees_variable(self):
        critical = (1, (CRITICAL, IDLE))
        (post,) = list(self.auto.transitions(critical, EXIT(1)))
        assert post == (0, (IDLE, IDLE))

    def test_partition_classes(self):
        names = set(self.auto.partition.names)
        assert {"TRY_1", "SET_1", "CHECK_1", "EXIT_1"} <= names
        assert len(names) == 4 * self.params.n


class TestSafetyViaZones:
    """Textbook setting: unbounded critical sections (e = ∞).  Safety
    holds iff b > a — both directions decided exactly."""

    @pytest.mark.parametrize("a,b", [(F(1), F(2)), (F(1), F(3, 2)), (F(3), F(4))])
    def test_safe_when_b_exceeds_a(self, a, b):
        params = FischerParams(n=2, a=a, b=b)
        bad = find_reachable_state(
            fischer_system(params), mutual_exclusion_violated, max_nodes=300_000
        )
        assert bad is None

    @pytest.mark.parametrize("a,b", [(F(2), F(1)), (F(1), F(1)), (F(3), F(2))])
    def test_unsafe_when_b_at_most_a(self, a, b):
        params = FischerParams(n=2, a=a, b=b)
        bad = find_reachable_state(
            fischer_system(params), mutual_exclusion_violated, max_nodes=300_000
        )
        assert bad is not None
        assert critical_processes(bad) == 2

    def test_three_processes_safe(self):
        params = FischerParams(n=3, a=F(1), b=F(2))
        bad = find_reachable_state(
            fischer_system(params), mutual_exclusion_violated, max_nodes=400_000
        )
        assert bad is None

    def test_bounded_critical_section_rescues_a_violating_config(self):
        # Ablation: a = 3 > b = 2 is unsafe in the textbook setting, but
        # with e = 1 < b the first process always leaves before the late
        # setter's mandatory wait elapses — safe again.
        unsafe = FischerParams(n=2, a=F(3), b=F(2))
        assert (
            find_reachable_state(
                fischer_system(unsafe), mutual_exclusion_violated, max_nodes=300_000
            )
            is not None
        )
        rescued = FischerParams(n=2, a=F(3), b=F(2), e=F(1))
        assert (
            find_reachable_state(
                fischer_system(rescued), mutual_exclusion_violated, max_nodes=300_000
            )
            is None
        )


class TestContentionBound:
    """The contending variant (all processes start setting): the first
    entry lands exactly in [b, a + 2b] — the last setter wins, and its
    check follows its set by [b, 2b]."""

    @pytest.mark.parametrize(
        "a,b",
        [(F(1), F(2)), (F(1), F(3)), (F(1, 2), F(2))],
    )
    def test_first_entry_exact(self, a, b):
        from repro.zones.analysis import event_separation_bounds

        params = FischerParams(n=2, a=a, b=b, contending=True)
        bounds = event_separation_bounds(
            fischer_system(params),
            {ENTER(1), ENTER(2)},
            occurrence=1,
            max_nodes=300_000,
        )
        assert bounds.lo == b and bounds.hi == a + 2 * b
        assert not bounds.lo_strict and not bounds.hi_strict

    def test_matches_recurrence_baseline(self):
        from repro.analyze.recurrence import fischer_first_entry_chain
        from repro.zones.analysis import event_separation_bounds

        a, b = F(1), F(2)
        operational = fischer_first_entry_chain(a, b).total()
        exact = event_separation_bounds(
            fischer_system(FischerParams(n=2, a=a, b=b, contending=True)),
            {ENTER(1), ENTER(2)},
            occurrence=1,
            max_nodes=300_000,
        )
        assert (exact.lo, exact.hi) == (operational.lo, operational.hi)

    def test_contending_start_state(self):
        params = FischerParams(n=2, a=F(1), b=F(2), contending=True)
        auto = fischer_automaton(params)
        (start,) = list(auto.start_states())
        assert start == (0, ("setting", "setting"))


class TestSimulation:
    def test_safe_runs_never_violate(self):
        params = FischerParams(n=2, a=F(1), b=F(2), e=F(1))
        automaton = time_of_boundmap(fischer_system(params))
        for seed in range(6):
            run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
                max_steps=150
            )
            assert all(not mutual_exclusion_violated(s.astate) for s in run.states)

    def test_runs_are_semi_executions(self):
        params = FischerParams(n=2, a=F(1), b=F(2), e=F(1))
        timed = fischer_system(params)
        automaton = time_of_boundmap(timed)
        run = Simulator(automaton, UniformStrategy(random.Random(1))).run(max_steps=120)
        assert find_boundmap_violation(timed, project(run), semi=True) is None

    def test_extremal_search_finds_unsafe_interleaving(self):
        # With a > b, some extremal schedule reaches a double-critical
        # state — the simulation-side witness of the zone verdict.
        params = FischerParams(n=2, a=F(2), b=F(1), e=F(1))
        automaton = time_of_boundmap(fischer_system(params))
        found = False
        for seed in range(60):
            run = Simulator(automaton, ExtremalStrategy(random.Random(seed))).run(
                max_steps=120
            )
            if any(mutual_exclusion_violated(s.astate) for s in run.states):
                found = True
                break
        assert found

    def test_progress_someone_enters(self):
        params = FischerParams(n=2, a=F(1), b=F(2), e=F(1))
        automaton = time_of_boundmap(fischer_system(params))
        run = Simulator(automaton, UniformStrategy(random.Random(2))).run(max_steps=200)
        entered = sum(
            1
            for ev in run.events
            if ev.action in (ENTER(1), ENTER(2))
        )
        assert entered >= 2
