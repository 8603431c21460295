"""The product search of ``check_semantic_inclusion`` against a walk of
the whole execution tree.

``tree_inclusion`` below is the execution-tree algorithm the product
search replaced: breadth-first over every grid execution, re-projecting
and re-checking each whole prefix with the reference
:func:`semi_satisfies_all`.  Where the tree walk finishes, both
must agree on ``ok``, ``violation`` and ``counterexample``; the product
never checks more executions than the tree, and never truncates where
the tree did not.
"""

import random
from collections import deque
from fractions import Fraction as F

import pytest

from repro.core.discretize import discrete_options
from repro.core.inclusion import InclusionOutcome, check_semantic_inclusion
from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.ioa.actions import Kind
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.ioa.partition import Partition
from repro.gen.fuzzer import (
    GRID,
    _gap_condition,
    _horizon,
    build_instance,
    sample_recipe,
)
from repro.systems.resource_manager import GRANT
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import INFINITY, Interval
from repro.timed.satisfaction import find_condition_violation, semi_satisfies_all
from repro.timed.timed_sequence import TimedSequence

from tests.core.test_inclusion import small_rm
from tests.test_three_methods_agree import CLAIMS
from tests.timed.test_conditions import pulse_timed


def tree_inclusion(source, conditions, grid, horizon, max_executions=200_000):
    """Every grid execution of ``source``, each whole prefix projected
    and checked against ``conditions`` (Definition 3.1)."""
    checked = 0
    frontier = deque()
    for start in source.start_states():
        run = TimedSequence.initial(start)
        violation = semi_satisfies_all(project(run), conditions)
        if violation is not None:
            return InclusionOutcome(False, 1, False, violation, project(run))
        frontier.append(run)
        checked += 1
    while frontier:
        run = frontier.popleft()
        state = run.last_state
        for action, t in discrete_options(source, state, grid, horizon):
            for post in source.successors(state, action, t):
                extended = run.extend(action, t, post)
                checked += 1
                projected = project(extended)
                violation = semi_satisfies_all(projected, conditions)
                if violation is not None:
                    return InclusionOutcome(False, checked, False, violation, projected)
                if checked >= max_executions:
                    return InclusionOutcome(True, checked, True)
                frontier.append(extended)
    return InclusionOutcome(True, checked, False)


def assert_product_matches_tree(source, conditions, grid, horizon, max_executions):
    tree = tree_inclusion(source, conditions, grid, horizon, max_executions)
    product = check_semantic_inclusion(source, conditions, grid, horizon, max_executions)
    assert product.executions_checked <= tree.executions_checked
    if product.truncated:
        assert tree.truncated
    if tree.truncated:
        # The tree stopped early; a product violation must still be real.
        if not product.ok:
            assert (
                semi_satisfies_all(product.counterexample, conditions)
                == product.violation
            )
        return tree, product
    assert product.ok == tree.ok
    assert product.violation == tree.violation
    assert product.counterexample == tree.counterexample
    return tree, product


class TestSmallSystems:
    @pytest.mark.parametrize("g1", [Interval(2, 3), Interval(3, 7)], ids=str)
    def test_small_rm_violations(self, g1):
        system = small_rm()
        conditions = [TimingCondition.from_start("G1", g1, [GRANT]), system.g2]
        tree, product = assert_product_matches_tree(
            system.algorithm, conditions, F(1), F(6), 2_000
        )
        assert not tree.truncated and not product.ok

    @pytest.mark.parametrize("g1", [Interval(2, 6), Interval(0, 4)], ids=str)
    def test_small_rm_holds(self, g1):
        # Zero lower bounds let the tree fire forever at one instant, so
        # it never finishes; the product folds those repeats into one
        # product state and does.
        system = small_rm()
        conditions = [TimingCondition.from_start("G1", g1, [GRANT]), system.g2]
        tree, product = assert_product_matches_tree(
            system.algorithm, conditions, F(1), F(6), 2_000
        )
        assert tree.truncated
        assert product.ok and not product.truncated

    @pytest.mark.parametrize("claim", [claim for claim, _ in CLAIMS], ids=str)
    def test_pulse_claims(self, claim):
        algorithm = time_of_boundmap(pulse_timed())
        gap = TimingCondition.after_action("GAP", claim, "fire", {"fire"})
        tree, product = assert_product_matches_tree(
            algorithm, [gap], F(1, 2), F(6), 20_000
        )
        assert not tree.truncated
        if product.ok:
            assert product.executions_checked < tree.executions_checked


def shared_class_system(trigger, b_from_start=False):
    """``trigger`` moves ``s0`` to ``s1``; in ``s1`` (and in ``s0`` when
    ``b_from_start``) ``b`` loops too.  ``trigger`` and ``b`` share class
    X with bounds [1, 1], and ``g`` fires at exactly 3.  ``time(A, b)``
    records when X last fired but not which action fired, so histories
    that differ in their ``trigger`` steps meet in one ``TimeState``."""

    def spec(name, precondition):
        return ActionSpec(name, Kind.OUTPUT, precondition=precondition, effect=lambda _s: "s1")

    automaton = GuardedAutomaton(
        "shared",
        ["s0"],
        [
            spec(trigger, lambda _s: True),
            spec("b", lambda s: b_from_start or s == "s1"),
            spec("g", lambda _s: True),
        ],
        partition=Partition.from_pairs([("X", [trigger, "b"]), ("G", ["g"])]),
    )
    timed = TimedAutomaton(
        automaton, Boundmap({"X": Interval(1, 1), "G": Interval(3, 3)})
    )
    return time_of_boundmap(timed)


class TestProductKey:
    """Histories merged by the key must agree on every future verdict.
    Each case below has two histories in one ``TimeState`` that only the
    key tells apart, and only one of them leads to a violation.  A key
    that dropped the part telling them apart would let the clean history
    (explored first when the trigger's name sorts after ``b``) stand in
    for the other, and the first violation would move."""

    @pytest.mark.parametrize("trigger", ["a", "c"])
    def test_latest_threshold_is_kept(self, trigger):
        # Triggers at 1 and 2 leave thresholds 5/2 and 7/2 open; a
        # trigger at 1 then b at 2 leaves only 5/2.  g@3 breaks 7/2.
        condition = TimingCondition.after_action(
            "V", Interval(F(3, 2), INFINITY), trigger, {"g"}
        )
        tree, product = assert_product_matches_tree(
            shared_class_system(trigger), [condition], F(1, 2), F(3), 20_000
        )
        assert not tree.truncated and not tree.ok
        assert tree.violation.clause == "lower"

    @pytest.mark.parametrize("trigger", ["a", "c"])
    def test_earliest_deadline_is_kept(self, trigger):
        # A trigger at 1 leaves deadline 5/2 open, b at 1 none.  The
        # next event after 2 comes at 3 and breaks 5/2.
        condition = TimingCondition.after_action(
            "V", Interval(0, F(3, 2)), trigger, {"g"}
        )
        tree, product = assert_product_matches_tree(
            shared_class_system(trigger, b_from_start=True),
            [condition],
            F(1, 2),
            F(3),
            20_000,
        )
        assert not tree.truncated and not tree.ok
        assert tree.violation.clause == "upper"


@pytest.mark.parametrize("seed", range(40))
def test_sampled_fuzz_recipes(seed):
    system, claim, _expected = build_instance(sample_recipe(random.Random(seed)))
    assert_product_matches_tree(
        time_of_boundmap(system.timed),
        [_gap_condition(claim)],
        GRID,
        _horizon(system),
        2_000,
    )


def test_counterexample_is_the_reported_prefix():
    system = small_rm()
    tight = TimingCondition.from_start("G1", Interval(2, 3), [GRANT])
    outcome = check_semantic_inclusion(system.algorithm, [tight], F(1), F(8))
    assert not outcome.ok
    assert find_condition_violation(outcome.counterexample, tight, semi=True) == (
        outcome.violation
    )
