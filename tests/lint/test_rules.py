"""Unit tests for every shipped lint rule, one class per rule.

Each test builds a deliberately broken specification and asserts the
rule fires with its id, and a matching healthy specification stays
clean.
"""

import math
from fractions import Fraction

from repro.core.dummification import dummy_automaton
from repro.core.mappings import InequalityMapping
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.ioa.actions import ActionSignature, Kind
from repro.ioa.automaton import IOAutomaton
from repro.ioa.composition import compose
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.ioa.partition import Partition
from repro.lint import (
    lint_boundmap,
    lint_chain,
    lint_conditions,
    lint_mapping,
    lint_timed_automaton,
)
from repro.lint.diagnostics import Severity
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import INFINITY, Interval


def pulse_automaton():
    """on --fire--> off --arm--> on, two classes FIRE and ARM."""
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


def pulse_timed(fire=Interval(1, 2), arm=Interval(0, 5)):
    return TimedAutomaton(pulse_automaton(), Boundmap({"FIRE": fire, "ARM": arm}))


def rules_fired(report):
    return {d.rule for d in report}


class TestR001MissingClass:
    def test_fires(self):
        report = lint_boundmap({"A": (1, 2)}, partition_names=("A", "B"))
        (d,) = report.by_rule("R001")
        assert d.severity is Severity.ERROR and "'B'" in d.message

    def test_clean(self):
        report = lint_boundmap({"A": (1, 2)}, partition_names=("A",))
        assert not report.by_rule("R001")

    def test_skipped_without_partition(self):
        assert not lint_boundmap({"A": (1, 2)}).by_rule("R001")


class TestR002UnknownClass:
    def test_fires(self):
        report = lint_boundmap(
            {"A": (1, 2), "TYPO": (1, 2)}, partition_names=("A",)
        )
        (d,) = report.by_rule("R002")
        assert d.severity is Severity.ERROR and "'TYPO'" in d.message


class TestR003InvalidInterval:
    def test_inverted(self):
        (d,) = lint_boundmap({"A": (2, 1)}).by_rule("R003")
        assert "inverted" in d.message and d.severity is Severity.ERROR

    def test_negative_lower(self):
        (d,) = lint_boundmap({"A": (-1, 2)}).by_rule("R003")
        assert "negative" in d.message

    def test_infinite_lower(self):
        (d,) = lint_boundmap({"A": (math.inf, math.inf)}).by_rule("R003")
        assert "infinite lower" in d.message

    def test_zero_upper(self):
        (d,) = lint_boundmap({"A": (0, 0)}).by_rule("R003")
        assert "zero upper" in d.message

    def test_non_numeric(self):
        (d,) = lint_boundmap({"A": ("x", 2)}).by_rule("R003")
        assert "non-numeric" in d.message

    def test_not_an_interval(self):
        (d,) = lint_boundmap({"A": "garbage"}).by_rule("R003")
        assert "not an interval" in d.message

    def test_clean_interval_and_pair(self):
        report = lint_boundmap({"A": Interval(1, 2), "B": (0, INFINITY)})
        assert not report.by_rule("R003")


class TestR004InexactBounds:
    def test_float_endpoint_warns(self):
        (d,) = lint_boundmap({"A": (0.5, 1.5)}).by_rule("R004")
        assert d.severity is Severity.WARNING and "Fraction" in d.hint

    def test_interval_with_float_warns(self):
        assert lint_boundmap({"A": Interval(0.5, 1.5)}).by_rule("R004")

    def test_infinity_is_not_inexact(self):
        assert not lint_boundmap({"A": (0, INFINITY)}).by_rule("R004")

    def test_fraction_clean(self):
        report = lint_boundmap({"A": (Fraction(1, 2), Fraction(3, 2))})
        assert not report.by_rule("R004")


class TestR005TrivialClassBound:
    def test_fires(self):
        timed = pulse_timed(arm=Interval(0, INFINITY))
        (d,) = lint_timed_automaton(timed).by_rule("R005")
        assert d.severity is Severity.WARNING and "'ARM'" in d.message

    def test_clean(self):
        assert not lint_timed_automaton(pulse_timed()).by_rule("R005")


class TestR006VacuousTargets:
    def test_misspelt_action_fires(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build("C", Interval(1, 2), actions=["fier"])  # typo
        (d,) = lint_conditions(automaton, [cond]).by_rule("R006")
        assert d.severity is Severity.ERROR and "'C'" in d.message

    def test_clean(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build("C", Interval(1, 2), actions=["fire"])
        assert not lint_conditions(automaton, [cond]).by_rule("R006")


class TestR007TriggerDisablingOverlap:
    def test_start_overlap_fires(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build(
            "C",
            Interval(1, 2),
            actions=["fire"],
            start_states=["on"],
            disabling=["on"],
        )
        diagnostics = lint_conditions(automaton, [cond]).by_rule("R007")
        assert any("both triggering and disabling" in d.message for d in diagnostics)

    def test_trigger_step_into_disabling_fires(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build(
            "C",
            Interval(1, 2),
            actions=["arm"],
            step_predicate=lambda pre, a, post: a == "fire",
            disabling=["off"],  # every fire step ends in "off"
        )
        diagnostics = lint_conditions(automaton, [cond]).by_rule("R007")
        assert any("ends in a disabling state" in d.message for d in diagnostics)

    def test_clean(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build(
            "C",
            Interval(1, 2),
            actions=["fire"],
            start_states=["on"],
            disabling=["off"],
        )
        assert not lint_conditions(automaton, [cond]).by_rule("R007")


class TestR008DeadClass:
    def test_unreachable_precondition_fires(self):
        automaton = GuardedAutomaton(
            "stuck",
            [0],
            [
                ActionSpec("go", Kind.OUTPUT, effect=lambda n: n),
                ActionSpec("never", Kind.OUTPUT, precondition=lambda n: n > 10),
            ],
            partition=Partition.from_pairs([("GO", ["go"]), ("NEVER", ["never"])]),
        )
        timed = TimedAutomaton(
            automaton, Boundmap({"GO": Interval(1, 2), "NEVER": Interval(1, 2)})
        )
        (d,) = lint_timed_automaton(timed).by_rule("R008")
        assert d.severity is Severity.WARNING and "'NEVER'" in d.message

    def test_skipped_when_truncated(self):
        automaton = GuardedAutomaton(
            "counter",
            [0],
            [
                ActionSpec("inc", Kind.OUTPUT, effect=lambda n: n + 1),
                ActionSpec("never", Kind.OUTPUT, precondition=lambda n: n < 0),
            ],
            partition=Partition.from_pairs([("INC", ["inc"]), ("NEVER", ["never"])]),
        )
        timed = TimedAutomaton(
            automaton, Boundmap({"INC": Interval(1, 2), "NEVER": Interval(1, 2)})
        )
        assert not lint_timed_automaton(timed, max_states=10).by_rule("R008")

    def test_clean(self):
        assert not lint_timed_automaton(pulse_timed()).by_rule("R008")


class TestR009UntimedDummy:
    def _dummified(self, null_interval):
        composed = compose(pulse_automaton(), dummy_automaton(), name="pulse~")
        return TimedAutomaton(
            composed,
            Boundmap(
                {
                    "FIRE": Interval(1, 2),
                    "ARM": Interval(0, 5),
                    "NULL": null_interval,
                }
            ),
        )

    def test_unbounded_null_fires(self):
        timed = self._dummified(Interval(0, INFINITY))
        (d,) = lint_timed_automaton(timed).by_rule("R009")
        assert d.severity is Severity.ERROR and "force progress" in d.message

    def test_bounded_null_clean(self):
        assert not lint_timed_automaton(self._dummified(Interval(0, 1))).by_rule("R009")

    def test_no_dummy_clean(self):
        assert not lint_timed_automaton(pulse_timed()).by_rule("R009")


class TestR010MappingBaseMismatch:
    def test_distinct_bases_fire(self):
        timed_one = pulse_timed()
        other = GuardedAutomaton(
            "other",
            ["on"],
            [ActionSpec("ping", Kind.OUTPUT)],
            partition=Partition.from_pairs([("PING", ["ping"])]),
        )
        source = time_of_boundmap(timed_one)
        target = time_of_conditions(
            other, [TimingCondition.build("C", Interval(1, 2), actions=["ping"])]
        )
        mapping = InequalityMapping(source, target, (), name="bad")
        (d,) = lint_mapping(mapping).by_rule("R010")
        assert d.severity is Severity.ERROR and "different automata" in d.message

    def test_lookalike_instances_warn(self):
        source = time_of_boundmap(pulse_timed())
        target = time_of_boundmap(pulse_timed())  # equal, but a new object
        mapping = InequalityMapping(source, target, (), name="twin")
        (d,) = lint_mapping(mapping).by_rule("R010")
        assert d.severity is Severity.WARNING and "look-alike" in d.message

    def test_shared_base_clean(self):
        timed = pulse_timed()
        source = time_of_boundmap(timed)
        target = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("C", Interval(1, 2), actions=["fire"])],
        )
        mapping = InequalityMapping(source, target, ())
        assert not lint_mapping(mapping).by_rule("R010")


class TestR011ChainBrokenLink:
    def test_mismatched_levels_fire(self):
        timed = pulse_timed()
        source = time_of_boundmap(timed)
        mid_a = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("M", Interval(1, 9), actions=["fire"])],
            name="mid-a",
        )
        mid_b = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("M", Interval(1, 9), actions=["fire"])],
            name="mid-b",
        )
        top = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("T", Interval(1, 9), actions=["fire"])],
            name="top",
        )
        first = InequalityMapping(source, mid_a, (), name="one")
        second = InequalityMapping(mid_b, top, (), name="two")
        report = lint_chain([first, second])
        (d,) = report.by_rule("R011")
        assert d.severity is Severity.ERROR and "'mid-a'" in d.message

    def test_linked_levels_clean(self):
        timed = pulse_timed()
        source = time_of_boundmap(timed)
        mid = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("M", Interval(1, 9), actions=["fire"])],
            name="mid",
        )
        top = time_of_conditions(
            timed.automaton,
            [TimingCondition.build("T", Interval(1, 9), actions=["fire"])],
            name="top",
        )
        chain = [
            InequalityMapping(source, mid, ()),
            InequalityMapping(mid, top, ()),
        ]
        assert not lint_chain(chain).by_rule("R011")


class _RudeInput(IOAutomaton):
    """Deliberately violates input-enabledness: input 'in' only enabled
    in state 0."""

    name = "rude"

    @property
    def signature(self):
        return ActionSignature(inputs=frozenset(["in"]), outputs=frozenset(["out"]))

    def start_states(self):
        yield 0

    def transitions(self, state, action):
        if action == "out":
            return [1 - state]
        if action == "in" and state == 0:
            return [0]
        return []

    @property
    def partition(self):
        return Partition.from_pairs([("OUT", ["out"])])


class TestR012InputEnabledness:
    def test_disabled_input_fires(self):
        timed = TimedAutomaton(_RudeInput(), Boundmap({"OUT": Interval(1, 2)}))
        (d,) = lint_timed_automaton(timed).by_rule("R012")
        assert d.severity is Severity.ERROR and "'in'" in d.message

    def test_clean_without_inputs(self):
        assert not lint_timed_automaton(pulse_timed()).by_rule("R012")


class TestR013InactiveCondition:
    def test_never_activated_warns(self):
        automaton = pulse_automaton()
        cond = TimingCondition.build(
            "C",
            Interval(1, 2),
            actions=["fire"],
            step_predicate=lambda pre, a, post: a == "no-such-action",
        )
        (d,) = lint_conditions(automaton, [cond]).by_rule("R013")
        assert d.severity is Severity.WARNING and "'C'" in d.message

    def test_started_condition_clean(self):
        automaton = pulse_automaton()
        cond = TimingCondition.from_start("C", Interval(1, 2), ["fire"])
        assert not lint_conditions(automaton, [cond]).by_rule("R013")

    def test_triggered_condition_clean(self):
        automaton = pulse_automaton()
        cond = TimingCondition.after_action("C", Interval(1, 2), "fire", ["fire"])
        assert not lint_conditions(automaton, [cond]).by_rule("R013")

    def test_skipped_when_truncated(self):
        automaton = GuardedAutomaton(
            "counter",
            [0],
            [ActionSpec("inc", Kind.OUTPUT, effect=lambda n: n + 1)],
            partition=Partition.from_pairs([("INC", ["inc"])]),
        )
        cond = TimingCondition.build(
            "C",
            Interval(1, 2),
            actions=["inc"],
            step_predicate=lambda pre, a, post: False,
        )
        report = lint_conditions(automaton, [cond], max_states=5)
        assert not report.by_rule("R013")


class TestR014FragileBounds:
    def _lint(self, target):
        from repro.lint import lint_system

        return lint_system(target)

    def test_broken_system_warns_at_nominal(self):
        from repro.lint.targets import SystemTarget

        report = self._lint(SystemTarget(name="fischer-tight"))
        (diagnostic,) = report.by_rule("R014")
        assert diagnostic.severity is Severity.WARNING
        assert "eps=0" in diagnostic.message

    def test_system_without_harness_is_skipped(self):
        from repro.lint.targets import SystemTarget

        report = self._lint(SystemTarget(name="interrupt"))
        assert not report.by_rule("R014")
