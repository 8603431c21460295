"""Budget interplay across the checkers (satellite: `CheckOutcome.__bool__`
with `exhausted_budget`, and exploration of deadlocking systems)."""

import random
from fractions import Fraction as F

from repro.core.checker import CheckOutcome
from repro.faults.budget import Budget
from repro.ioa.actions import Kind
from repro.ioa.explorer import check_invariant, explore, iter_steps
from repro.ioa.guarded import ActionSpec, GuardedAutomaton


class TestCheckOutcomeTruthiness:
    def test_ok_and_complete_is_truthy_and_conclusive(self):
        outcome = CheckOutcome(True, 10)
        assert bool(outcome) and outcome.conclusive

    def test_ok_but_exhausted_is_truthy_but_inconclusive(self):
        outcome = CheckOutcome(True, 10, exhausted_budget=True)
        assert bool(outcome)
        assert not outcome.conclusive

    def test_failure_is_falsy_and_always_conclusive(self):
        outcome = CheckOutcome(False, 10)
        assert not bool(outcome) and outcome.conclusive

    def test_failure_under_exhaustion_stays_conclusive(self):
        # A violation found in the checked portion is real regardless of
        # how much was left unchecked.
        outcome = CheckOutcome(False, 10, exhausted_budget=True)
        assert not bool(outcome)
        assert outcome.conclusive


def counter(limit=None):
    """Counts up; with a ``limit`` the last state is a dead end
    (deadlocks mid-exploration)."""

    def precondition(n):
        return limit is None or n < limit

    return GuardedAutomaton(
        "counter",
        [0],
        [
            ActionSpec(
                "inc", Kind.OUTPUT, precondition=precondition, effect=lambda n: n + 1
            )
        ],
    )


class TestExplorerBudget:
    def test_budget_truncates_and_flags(self):
        budget = Budget(max_states=5)
        result = explore(counter(), budget=budget)
        assert result.truncated and result.exhausted_budget
        assert len(result.reachable) <= 5

    def test_unbudgeted_behavior_unchanged(self):
        result = explore(counter(limit=4))
        assert result.reachable == {0, 1, 2, 3, 4}
        assert not result.exhausted_budget

    def test_invariant_check_partial_on_budget(self):
        report = check_invariant(
            counter(), lambda n: n < 1000, budget=Budget(max_states=10)
        )
        assert report.holds
        assert report.exhausted_budget
        assert bool(report)

    def test_invariant_violation_beats_exhaustion(self):
        report = check_invariant(
            counter(), lambda n: n < 3, budget=Budget(max_states=100)
        )
        assert not report.holds
        assert report.counterexample is not None


class TestIterStepsOnDeadlock:
    def test_dead_end_state_yields_no_steps(self):
        automaton = counter(limit=3)
        reachable = explore(automaton).reachable
        steps = list(iter_steps(automaton, reachable))
        # The dead-end state 3 contributes nothing; every other state
        # steps to its successor.
        assert ((3, "inc", 4) not in steps)
        assert set(steps) == {(0, "inc", 1), (1, "inc", 2), (2, "inc", 3)}

    def test_iter_steps_on_truncated_exploration(self):
        result = explore(counter(), budget=Budget(max_states=4))
        steps = list(iter_steps(counter(), result.reachable))
        assert len(steps) == len(result.reachable)


class TestSimulatorBudget:
    def _algorithm(self):
        from repro.core.time_automaton import time_of_boundmap
        from repro.ioa.partition import Partition
        from repro.timed.boundmap import Boundmap, TimedAutomaton
        from repro.timed.interval import Interval

        automaton = GuardedAutomaton(
            "ticker",
            [0],
            [ActionSpec("tick", Kind.OUTPUT, effect=lambda n: n + 1)],
            partition=Partition.from_pairs([("TICK", ["tick"])]),
        )
        return time_of_boundmap(
            TimedAutomaton(automaton, Boundmap({"TICK": Interval(1, 2)}))
        )

    def test_partial_run_on_budget(self):
        from repro.sim.scheduler import Simulator
        from repro.sim.strategies import UniformStrategy

        budget = Budget(max_steps=3)
        run = Simulator(self._algorithm(), UniformStrategy(random.Random(0))).run(
            max_steps=50, budget=budget
        )
        assert len(run.events) == 3
        assert budget.exhausted


class TestZoneBudget:
    def _rm(self):
        from repro.systems import ResourceManagerParams, resource_manager

        return resource_manager(
            ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
        )

    def test_zone_graph_partial_on_budget(self):
        from repro.zones.zone_graph import explore_zone_graph

        result = explore_zone_graph(self._rm(), budget=Budget(max_states=5))
        assert result.truncated and result.exhausted_budget
        assert result.nodes <= 5

    def test_safety_search_inconclusive_on_budget(self):
        from repro.zones.analysis import search_reachable_state

        result = search_reachable_state(
            self._rm(), lambda state: False, budget=Budget(max_states=3)
        )
        assert result.state is None
        assert result.exhausted_budget
        assert not result.conclusive

    def test_separation_bounds_partial_when_something_measured(self):
        from repro.systems import GRANT
        from repro.zones.analysis import event_separation_bounds

        bounds = event_separation_bounds(
            self._rm(), GRANT, budget=Budget(max_states=2000)
        )
        assert bounds.exhausted_budget in (True, False)  # never raises

    def test_safety_check_cut_at_max_nodes_is_inconclusive(self):
        # A sweep cut at its node cap proves nothing: it must come back
        # partial, or a caller would cache it as a settled pass.
        from repro.faults.checks import safety_check
        from repro.surface import bundle
        from repro.systems.extensions import mutual_exclusion_violated

        outcome = safety_check(
            bundle("gen:fischer-4").timed(), mutual_exclusion_violated, max_nodes=50
        )
        assert outcome.ok
        assert outcome.exhausted_budget and not outcome.conclusive
        assert outcome.detail == "safety sweep inconclusive (truncated at 50 nodes)"
