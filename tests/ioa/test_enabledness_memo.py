"""The per-instance enabledness memo against a from-scratch oracle.

``IOAutomaton`` memoises, per A-state, a bitmask of enabled partition
classes, and sorts its actions once.  The oracle here rebuilds every
answer from ``is_enabled`` alone, so any drift of the memo (a stale
entry, a bit mapped to the wrong class, a wrapper reading its inner
automaton's memo) shows as a mismatch on some reachable state.
"""

import random
from fractions import Fraction

import pytest

from repro.core.checker import check_mapping_exhaustive
from repro.faults.perturb import ActionDropAutomaton
from repro.gen.families import build_bundle
from repro.gen.names import is_gen_name
from repro.ioa.automaton import IOAutomaton
from repro.ioa.composition import Composition, HiddenAutomaton
from repro.ioa.explorer import explore
from repro.ioa.guarded import GuardedAutomaton
from repro.ioa.partition import PartitionClass
from repro.catalog import SURFACE_SYSTEMS
from repro.surface import _SYSTEMS, explore_automaton, mapping_specs

SYSTEMS = list(SURFACE_SYSTEMS) + ["gen:fischer-4", "gen:relay_line-3", "gen:tournament-4"]


def reference_actions(automaton, state):
    return sorted(
        (a for a in automaton.signature.all_actions if automaton.is_enabled(state, a)),
        key=repr,
    )


def reference_classes(automaton, state):
    return [
        cls
        for cls in automaton.partition
        if any(automaton.is_enabled(state, a) for a in cls.actions)
    ]


def memo_entries(automaton) -> int:
    """How many A-states the automaton's class-mask memo holds."""
    memo = getattr(automaton, "_class_masks", None)
    return 0 if memo is None else len(memo[1])


def fresh_automaton(name):
    """A newly built instance with an empty memo (bundles are memoised
    per process, so their shared automaton may be warm)."""
    if is_gen_name(name):
        return build_bundle.__wrapped__(name).timed().automaton
    return _SYSTEMS[name]().timed().automaton


def reachable_states(name):
    automaton, cap = explore_automaton(name)
    return list(explore(automaton, max_states=cap).reachable)


def assert_matches_reference(automaton, states):
    for state in states:
        expected = reference_classes(automaton, state)
        assert automaton.enabled_classes(state) == expected, state
        assert automaton.enabled_mask(state) == sum(
            1 << i for i, cls in enumerate(automaton.partition) if cls in expected
        ), state
        for cls in automaton.partition:
            assert automaton.class_enabled(state, cls) == (cls in expected), (state, cls)
        assert automaton.enabled_actions(state) == reference_actions(automaton, state), state


@pytest.fixture(scope="module", params=SYSTEMS)
def system(request):
    return request.param, reachable_states(request.param)


class TestOracle:
    def test_cold_then_hot(self, system):
        name, states = system
        automaton = fresh_automaton(name)
        assert memo_entries(automaton) == 0
        assert_matches_reference(automaton, states)  # cold memo
        assert memo_entries(automaton) == len(states)
        assert_matches_reference(automaton, states)  # hot memo
        assert memo_entries(automaton) == len(states)

    def test_shuffled_order(self, system):
        name, states = system
        shuffled = list(states)
        random.Random(name).shuffle(shuffled)
        automaton = fresh_automaton(name)
        # Interleave classes and states so the memo fills in an order
        # unrelated to the partition's.
        classes = list(automaton.partition)
        random.Random(name + "/classes").shuffle(classes)
        for state in shuffled:
            for cls in classes:
                assert automaton.class_enabled(state, cls) == any(
                    automaton.is_enabled(state, a) for a in cls.actions
                )
        random.Random(name + "/again").shuffle(shuffled)
        assert_matches_reference(automaton, shuffled)

    def test_class_outside_partition(self, system):
        name, states = system
        automaton = fresh_automaton(name)
        actions = sorted(automaton.signature.all_actions, key=repr)
        for cls in list(automaton.partition)[:3]:
            # Named like a partition class but holding another action:
            # only ``is_enabled`` may decide it, never the memo.
            other = next(a for a in actions if a not in cls.actions)
            foreign = PartitionClass(cls.name, frozenset([other]))
            for state in states[:50]:
                automaton.class_enabled(state, cls)  # warm the memo
                assert automaton.class_enabled(state, foreign) == automaton.is_enabled(
                    state, other
                )


def guarded_parts(automaton, states):
    """``(guarded, its states)`` for every :class:`GuardedAutomaton` in
    ``automaton``: itself, under hiding, or a component of a composition
    (whose states are projected to that component's)."""
    if isinstance(automaton, GuardedAutomaton):
        yield automaton, list(dict.fromkeys(states))
    elif isinstance(automaton, HiddenAutomaton):
        yield from guarded_parts(automaton.inner, states)
    elif isinstance(automaton, Composition):
        for index, component in enumerate(automaton.components):
            yield from guarded_parts(component, [state[index] for state in states])


class TestGuardPairs:
    def test_enabled_actions_match_the_base_filter(self, system):
        # The guard pairs against ``IOAutomaton``'s from-scratch filter,
        # content and order, from a cold instance.
        name, states = system
        parts = list(guarded_parts(fresh_automaton(name), states))
        assert parts, name
        for guarded, local_states in parts:
            assert not hasattr(guarded, "_guards")  # built on first use only
            for state in local_states:
                assert GuardedAutomaton.enabled_actions(
                    guarded, state
                ) == IOAutomaton.enabled_actions(guarded, state), (name, state)


class TestWrappersKeepTheirOwnMemo:
    def test_action_drop_differs_from_base(self):
        states = reachable_states("fischer")
        base = fresh_automaton("fischer")
        dropped_class = base.partition["EXIT_2"]
        dropped = ActionDropAutomaton(base, dropped_class.actions)
        # Fill the base memo first: a shared memo would answer for both.
        assert_matches_reference(base, states)
        assert_matches_reference(dropped, states)
        only_enabled = 0
        for state in states:
            if base.enabled_classes(state) == [dropped_class]:
                only_enabled += 1
                assert dropped.enabled_classes(state) == []
                assert dropped.enabled_actions(state) == []
            if base.class_enabled(state, dropped_class):
                assert not dropped.class_enabled(state, dropped_class)
        assert only_enabled > 0


class TestMemoryAndEquivalencePins:
    def test_explore_leaves_no_enabledness_entries(self):
        for name in ("gen:fischer-4", "gen:tournament-4", "rm"):
            automaton = fresh_automaton(name)
            explore(automaton, max_states=explore_automaton(name)[1])
            assert memo_entries(automaton) == 0, name

    # ``(ok, steps_checked)`` per obligation, as recorded before the
    # memo existed: enabledness caching must not move a single step.
    RELAY3_STEPS = [559, 709, 1690, 1608]
    RM_STEPS = [3540]

    def test_relay_line_3_mapping_steps(self):
        outcomes = [
            check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
            for _label, mapping, grid, horizon in mapping_specs("gen:relay_line-3")
        ]
        assert [(o.ok, o.steps_checked) for o in outcomes] == [
            (True, steps) for steps in self.RELAY3_STEPS
        ]

    def test_rm_mapping_steps(self):
        outcomes = [
            check_mapping_exhaustive(mapping, grid=Fraction(1, 4), horizon=Fraction(9))
            for _label, mapping, _grid, _horizon in mapping_specs("rm")
        ]
        assert [(o.ok, o.steps_checked) for o in outcomes] == [
            (True, steps) for steps in self.RM_STEPS
        ]
