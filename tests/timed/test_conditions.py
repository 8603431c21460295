"""Tests for timing conditions and the cond(C)/U_b derivation."""

from fractions import Fraction as F

import pytest

from repro.errors import TimingConditionError
from repro.ioa.actions import Kind
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.ioa.partition import Partition, PartitionClass
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition, boundmap_conditions, cond_of_class
from repro.timed.interval import Interval


class TestBuilders:
    def test_build_with_sets(self):
        cond = TimingCondition.build(
            "U",
            Interval(1, 2),
            actions={"g"},
            start_states={"s0"},
            disabling={"dead"},
        )
        assert cond.in_pi("g") and not cond.in_pi("x")
        assert cond.starts("s0") and not cond.starts("s1")
        assert cond.disables("dead") and not cond.disables("s0")

    def test_build_with_predicates(self):
        cond = TimingCondition.build(
            "U", Interval(1, 2), actions=lambda a: a.startswith("g")
        )
        assert cond.in_pi("grant") and not cond.in_pi("tick")

    def test_after_action_triggers(self):
        cond = TimingCondition.after_action("U", Interval(1, 2), "req", {"rsp"})
        assert cond.triggers("s", "req", "t")
        assert not cond.triggers("s", "other", "t")
        assert not cond.starts("s")

    def test_from_start_defaults_to_all_starts(self):
        cond = TimingCondition.from_start("U", Interval(1, 2), {"g"})
        assert cond.starts("anything")

    def test_bounds_accessors(self):
        cond = TimingCondition.build("U", Interval(F(1, 2), 3), actions={"g"})
        assert cond.lower == F(1, 2) and cond.upper == 3

    def test_default_predicates_never(self):
        cond = TimingCondition(name="U", interval=Interval(1, 2))
        assert not cond.starts("s")
        assert not cond.triggers("s", "a", "t")
        assert not cond.in_pi("a")
        assert not cond.disables("s")


class TestTechnicalRequirements:
    def test_start_overlap_with_disabling_rejected(self):
        cond = TimingCondition.build(
            "U", Interval(1, 2), actions={"g"}, start_states={"s"}, disabling={"s"}
        )
        with pytest.raises(TimingConditionError):
            cond.check_start_state("s")

    def test_trigger_into_disabling_rejected(self):
        cond = TimingCondition.build(
            "U",
            Interval(1, 2),
            actions={"g"},
            step_predicate=lambda pre, a, post: a == "req",
            disabling={"dead"},
        )
        with pytest.raises(TimingConditionError):
            cond.check_trigger_step("s", "req", "dead")

    def test_clean_states_pass(self):
        cond = TimingCondition.build(
            "U", Interval(1, 2), actions={"g"}, start_states={"s"}
        )
        cond.check_start_state("s")
        cond.check_trigger_step("s", "a", "t")


def pulse_automaton():
    """on/off toggle: 'fire' enabled only in 'on'; 'flip' input toggles."""
    return GuardedAutomaton(
        "pulse",
        ["on"],
        [
            ActionSpec(
                "fire",
                Kind.OUTPUT,
                precondition=lambda s: s == "on",
                effect=lambda _s: "off",
            ),
            ActionSpec(
                "arm",
                Kind.INTERNAL,
                precondition=lambda s: s == "off",
                effect=lambda _s: "on",
            ),
        ],
        partition=Partition.from_pairs([("FIRE", ["fire"]), ("ARM", ["arm"])]),
    )


def pulse_timed():
    return TimedAutomaton(
        pulse_automaton(),
        Boundmap({"FIRE": Interval(1, 2), "ARM": Interval(0, 5)}),
    )


class TestCondOfClass:
    def test_start_trigger_requires_enabledness(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["FIRE"])
        assert cond.starts("on")
        assert not cond.starts("off")  # not enabled there (and not a start state)

    def test_pi_is_the_class(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["FIRE"])
        assert cond.in_pi("fire") and not cond.in_pi("arm")

    def test_disabling_is_disabled_set(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["FIRE"])
        assert cond.disables("off") and not cond.disables("on")

    def test_trigger_on_own_action(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["ARM"])
        # arm (off -> on) leaves ARM disabled afterwards: not a trigger for ARM
        assert not cond.triggers("off", "arm", "on")
        # fire (on -> off) enables ARM from disabled: trigger
        assert cond.triggers("on", "fire", "off")

    def test_trigger_on_re_enable(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["FIRE"])
        assert cond.triggers("off", "arm", "on")
        assert not cond.triggers("on", "fire", "off")

    def test_class_outside_the_partition(self):
        # A class that is not one of part(A) has no bit in the enabled
        # mask: it is decided action by action, as ``class_enabled`` does.
        ta = pulse_timed()
        both = PartitionClass("FIRE", frozenset({"fire", "arm"}))
        cond = cond_of_class(ta, both)
        for state in ("on", "off"):
            assert ta.automaton.class_enabled(state, both)
            assert not cond.disables(state)
        assert cond.starts("on")
        assert cond.triggers("on", "fire", "off")  # its own action
        assert not cond.triggers("on", "other", "off")  # enabled before and after

    def test_interval_copied_from_boundmap(self):
        ta = pulse_timed()
        cond = cond_of_class(ta, ta.automaton.partition["FIRE"])
        assert cond.interval == Interval(1, 2)

    def test_boundmap_conditions_one_per_class(self):
        conds = boundmap_conditions(pulse_timed())
        assert [c.name for c in conds] == ["FIRE", "ARM"]

    def test_condition_names_unique(self):
        names = [c.name for c in boundmap_conditions(pulse_timed())]
        assert len(set(names)) == len(names)
