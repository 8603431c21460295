"""Tests for the discrete-event simulator."""

import math
import random
from fractions import Fraction as F

import pytest

from repro.errors import SchedulingDeadlockError
from repro.ioa.actions import Kind
from repro.ioa.automaton import IOAutomaton
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.core.projection import project, validate_run
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.sim.scheduler import Simulator, simulate
from repro.sim.strategies import (
    EagerStrategy,
    ExtremalStrategy,
    LazyStrategy,
    UniformStrategy,
)
from repro.surface import bundle
from repro.timed.satisfaction import find_boundmap_violation
from repro.timed.timed_sequence import TimedSequence

from tests.timed.test_conditions import pulse_timed


def pulse_auto():
    return time_of_boundmap(pulse_timed())


class TestRuns:
    def test_runs_are_valid_executions(self):
        auto = pulse_auto()
        for seed in range(5):
            run = Simulator(auto, UniformStrategy(random.Random(seed))).run(max_steps=40)
            validate_run(auto, run)

    def test_projections_are_semi_executions(self):
        auto = pulse_auto()
        run = Simulator(auto, UniformStrategy(random.Random(0))).run(max_steps=40)
        assert find_boundmap_violation(pulse_timed(), project(run), semi=True) is None

    def test_deterministic_given_seed(self):
        auto = pulse_auto()
        r1 = Simulator(auto, UniformStrategy(random.Random(7))).run(max_steps=30)
        r2 = Simulator(auto, UniformStrategy(random.Random(7))).run(max_steps=30)
        assert r1 == r2

    def test_horizon_stops_run(self):
        auto = pulse_auto()
        run = Simulator(auto, UniformStrategy(random.Random(0))).run(
            max_steps=10_000, horizon=20
        )
        assert run.t_end >= 20 or len(run) < 10_000
        assert all(ev.time <= 30 for ev in run.events)

    def test_max_steps_respected(self):
        auto = pulse_auto()
        run = Simulator(auto, UniformStrategy(random.Random(0))).run(max_steps=12)
        assert len(run) <= 12

    def test_eager_hits_lower_bounds(self):
        auto = pulse_auto()
        run = Simulator(auto, EagerStrategy(random.Random(0))).run(max_steps=6)
        fire_times = [ev.time for ev in run.events if ev.action == "fire"]
        assert fire_times[0] == 1  # FIRE lower bound

    def test_lazy_hits_upper_bounds(self):
        auto = pulse_auto()
        run = Simulator(auto, LazyStrategy(random.Random(0))).run(max_steps=6)
        fire_times = [ev.time for ev in run.events if ev.action == "fire"]
        assert fire_times[0] == 2  # FIRE upper bound

    def test_simulate_wrapper(self):
        run = simulate(pulse_auto(), UniformStrategy(random.Random(1)), max_steps=10)
        assert len(run) == 10

    def test_from_state_resumes(self):
        auto = pulse_auto()
        first = Simulator(auto, UniformStrategy(random.Random(2))).run(max_steps=5)
        resumed = Simulator(auto, UniformStrategy(random.Random(3))).run(
            max_steps=5, from_state=first.last_state
        )
        assert resumed.first_state == first.last_state


class TestEdgeCases:
    def test_quiescent_stop(self):
        one_shot = GuardedAutomaton(
            "one-shot",
            [True],
            [
                ActionSpec(
                    "go",
                    Kind.OUTPUT,
                    precondition=lambda s: s,
                    effect=lambda _s: False,
                )
            ],
        )
        from repro.timed.boundmap import Boundmap, TimedAutomaton

        ta = TimedAutomaton(one_shot, Boundmap({"'go'": Interval(1, 2)}))
        run = Simulator(time_of_boundmap(ta), UniformStrategy(random.Random(0))).run(
            max_steps=50
        )
        assert len(run) == 1  # fires once, then quiescent

    def test_deadlock_raises(self):
        # An impossible requirement: 'go' must happen in [0, 1] but also
        # must not happen before 5 — window empty, deadline pending.
        always = GuardedAutomaton(
            "always", ["s"], [ActionSpec("go", Kind.OUTPUT)]
        )
        impossible = [
            TimingCondition.from_start("EARLY", Interval(0, 1), {"never"}),
            TimingCondition.from_start("LATE", Interval(5, 10), {"go"}),
        ]
        auto = time_of_conditions(always, impossible)
        with pytest.raises(SchedulingDeadlockError) as raised:
            Simulator(auto, UniformStrategy(random.Random(0))).run(max_steps=5)
        # Times are spelled by ``render_time``: ``1``, not ``Fraction(1, 1)``.
        assert str(raised.value) == (
            "time(always, ['EARLY', 'LATE']): no schedulable action in "
            "{!r} but deadline 1 of EARLY is pending".format(auto.initial("s"))
        )
        assert raised.value.deadline == 1

    def test_infeasible_choice_raises(self):
        class TooLate(UniformStrategy):
            def choose(self, state, options):
                return options[0][0], F(7, 2)

        always = GuardedAutomaton("always", ["s"], [ActionSpec("go", Kind.OUTPUT)])
        auto = time_of_conditions(
            always, [TimingCondition.from_start("EARLY", Interval(0, 1), {"go"})]
        )
        with pytest.raises(SchedulingDeadlockError) as raised:
            Simulator(auto, TooLate(random.Random(0))).run(max_steps=5)
        assert str(raised.value) == (
            "time(always, ['EARLY']): strategy chose infeasible step ('go', 7/2) "
            "in {!r}".format(auto.initial("s"))
        )

    def test_multiple_start_states_require_choice(self):
        multi = GuardedAutomaton(
            "multi", [0, 1], [ActionSpec("go", Kind.OUTPUT)]
        )
        auto = time_of_conditions(multi, [])
        with pytest.raises(SchedulingDeadlockError):
            Simulator(auto, UniformStrategy(random.Random(0))).run(max_steps=1)
        run = Simulator(auto, UniformStrategy(random.Random(0))).run(
            max_steps=1, start_astate=1
        )
        assert run.first_state.astate == 1


def reference_run(automaton, strategy, max_steps, horizon=None):
    """The simulator as it was: options from ``time_window`` per action
    enabled by the base class's filter, and the run grown one
    ``TimedSequence.extend`` at a time."""
    state = automaton.initial(next(iter(automaton.base.start_states())))
    run = TimedSequence.initial(state)
    for _ in range(max_steps):
        if horizon is not None and state.now >= horizon:
            break
        options = []
        for action in IOAutomaton.enabled_actions(automaton.base, state.astate):
            window = automaton.time_window(state, action)
            if window is not None:
                options.append((action, window[0], window[1]))
        if not options:
            assert math.isinf(automaton.deadline(state))
            break
        action, t = strategy.choose(state, options)
        state = strategy.pick_post(automaton.successors(state, action, t))
        run = run.extend(action, t, state)
    return run


STRATEGIES = [UniformStrategy, EagerStrategy, LazyStrategy, ExtremalStrategy]


class TestSeededTraces:
    @pytest.mark.parametrize("system", ["rm", "gen:fischer-3"])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda cls: cls.__name__)
    def test_run_equals_reference(self, system, strategy):
        auto = time_of_boundmap(bundle(system).timed())
        for seed in range(3):
            horizon = None if seed < 2 else 12
            run = Simulator(auto, strategy(random.Random(seed))).run(
                max_steps=120, horizon=horizon
            )
            expected = reference_run(
                auto, strategy(random.Random(seed)), max_steps=120, horizon=horizon
            )
            assert len(run) > 0 and run == expected, (system, strategy.__name__, seed)
