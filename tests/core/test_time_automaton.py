"""Tests of the time(A, U) construction rules (Section 3.1)."""

import math
from fractions import Fraction as F

import pytest

from repro.errors import TimingConditionError, TimingViolationError
from repro.ioa.actions import Kind
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.core.time_automaton import PredictiveTimeAutomaton, time_of_conditions
from repro.core.time_state import DEFAULT_PREDICTION, Prediction


def flow_automaton():
    """req -> work -> done, plus a free-running 'noise' internal action."""
    return GuardedAutomaton(
        "flow",
        ["idle"],
        [
            ActionSpec(
                "req",
                Kind.OUTPUT,
                precondition=lambda s: s == "idle",
                effect=lambda _s: "busy",
            ),
            ActionSpec(
                "done",
                Kind.OUTPUT,
                precondition=lambda s: s == "busy",
                effect=lambda _s: "idle",
            ),
            ActionSpec("noise", Kind.INTERNAL),
        ],
    )


def response_condition(lo=1, hi=3, disabling=None):
    return TimingCondition.build(
        "R",
        Interval(lo, hi),
        actions={"done"},
        step_predicate=lambda pre, a, post: a == "req",
        disabling=disabling,
    )


def startup_condition(lo=2, hi=4):
    return TimingCondition.from_start("S", Interval(lo, hi), {"req"})


class TestInitialStates:
    def test_triggered_start_condition_gets_bounds(self):
        auto = time_of_conditions(flow_automaton(), [startup_condition(2, 4)])
        init = auto.initial("idle")
        assert auto.ft(init, "S") == 2 and auto.lt(init, "S") == 4

    def test_untriggered_condition_gets_defaults(self):
        auto = time_of_conditions(flow_automaton(), [response_condition()])
        init = auto.initial("idle")
        assert init.preds[0] == DEFAULT_PREDICTION

    def test_ct_starts_at_zero(self):
        auto = time_of_conditions(flow_automaton(), [response_condition()])
        assert auto.initial("idle").now == 0

    def test_duplicate_condition_names_rejected(self):
        with pytest.raises(TimingConditionError):
            time_of_conditions(
                flow_automaton(), [response_condition(), response_condition()]
            )

    def test_index_of_unknown(self):
        auto = time_of_conditions(flow_automaton(), [response_condition()])
        with pytest.raises(TimingConditionError):
            auto.index_of("ZZZ")


class TestStepRules:
    def setup_method(self):
        self.auto = time_of_conditions(
            flow_automaton(), [response_condition(1, 3), startup_condition(2, 4)]
        )
        self.init = self.auto.initial("idle")

    def test_condition_2_time_monotone(self):
        s1 = self.auto.successor(self.init, "req", 2)
        assert s1.now == 2
        assert self.auto.successors(s1, "done", 1) == []  # t < Ct

    def test_condition_3a_window_enforced_for_pi(self):
        s1 = self.auto.successor(self.init, "req", 2)
        # R predicts done in [3, 5]
        assert self.auto.successors(s1, "done", F(5, 2)) == []  # too early
        assert self.auto.successors(s1, "done", 6) == []  # too late
        assert self.auto.successors(s1, "done", 4) != []

    def test_condition_3b_trigger_with_pi_action(self):
        # 'req' is in Π(S) and S has no step triggers: rule 3(c) applies.
        s1 = self.auto.successor(self.init, "req", 2)
        assert s1.preds[self.auto.index_of("S")] == DEFAULT_PREDICTION

    def test_condition_4b_trigger_sets_predictions(self):
        s1 = self.auto.successor(self.init, "req", 2)
        assert self.auto.ft(s1, "R") == 3 and self.auto.lt(s1, "R") == 5

    def test_condition_4a_deadline_blocks_other_actions(self):
        s1 = self.auto.successor(self.init, "req", 2)  # R deadline 5
        assert self.auto.successors(s1, "noise", 6) == []
        assert self.auto.successors(s1, "noise", 5) != []

    def test_condition_4c_non_trigger_preserves_predictions(self):
        s1 = self.auto.successor(self.init, "req", 2)
        s2 = self.auto.successor(s1, "noise", 3)
        assert s2.preds[self.auto.index_of("R")] == s1.preds[self.auto.index_of("R")]

    def test_condition_4d_disabling_resets(self):
        cond = response_condition(1, 3, disabling=lambda s: s == "idle")
        auto = time_of_conditions(flow_automaton(), [cond])
        init = auto.initial("idle")
        s1 = auto.successor(init, "req", 2)
        assert auto.lt(s1, "R") == 5
        # noise in 'busy' keeps predictions; 'done' is in Π so 3(c)
        # resets anyway — test disabling via a non-Π action instead:
        cond2 = TimingCondition.build(
            "D",
            Interval(0, 10),
            actions={"never"},
            step_predicate=lambda pre, a, post: a == "req",
            disabling=lambda s: s == "idle",
        )
        auto2 = time_of_conditions(flow_automaton(), [cond2])
        s1 = auto2.successor(auto2.initial("idle"), "req", 2)
        assert auto2.lt(s1, "D") == 12
        s2 = auto2.successor(s1, "done", 3)  # back to idle: disabling
        assert s2.preds[0] == DEFAULT_PREDICTION

    def test_condition_4b_min_rule(self):
        # Two overlapping triggers: the earlier deadline must survive.
        cond = TimingCondition.build(
            "M",
            Interval(0, 10),
            actions={"never"},
            step_predicate=lambda pre, a, post: a == "noise",
        )
        auto = time_of_conditions(flow_automaton(), [cond])
        s1 = auto.successor(auto.initial("idle"), "noise", 1)  # Lt = 11
        s2 = auto.successor(s1, "noise", 2)  # new deadline 12, min keeps 11
        assert auto.lt(s2, "M") == 11
        assert auto.ft(s2, "M") == 2  # Ft is overwritten, per the definition

    def test_successor_matching_picks_astate(self):
        s1 = self.auto.successor_matching(self.init, "req", 2, "busy")
        assert s1.astate == "busy"

    def test_successor_matching_missing(self):
        with pytest.raises(TimingViolationError):
            self.auto.successor_matching(self.init, "req", 2, "bogus")

    def test_successor_raises_with_reason(self):
        s1 = self.auto.successor(self.init, "req", 2)
        with pytest.raises(TimingViolationError):
            self.auto.successor(s1, "done", 100)

    def test_is_step(self):
        s1 = self.auto.successor(self.init, "req", 2)
        assert self.auto.is_step(self.init, "req", 2, s1)
        assert not self.auto.is_step(self.init, "req", 3, s1)


class TestSchedulingHelpers:
    def setup_method(self):
        self.auto = time_of_conditions(
            flow_automaton(), [response_condition(1, 3), startup_condition(2, 4)]
        )
        self.init = self.auto.initial("idle")

    def test_deadline_is_min_lt(self):
        assert self.auto.deadline(self.init) == 4  # S's Lt; R default inf
        s1 = self.auto.successor(self.init, "req", 2)
        assert self.auto.deadline(s1) == 5

    def test_time_window_lower_respects_ft(self):
        window = self.auto.time_window(self.init, "req")
        assert window == (2, 4)

    def test_time_window_upper_includes_foreign_deadlines(self):
        window = self.auto.time_window(self.init, "noise")
        assert window == (0, 4)

    def test_time_window_empty(self):
        cond = TimingCondition.from_start("T", Interval(10, 20), {"req"})
        blocker = TimingCondition.from_start("B", Interval(0, 5), {"noise"})
        auto = time_of_conditions(flow_automaton(), [cond, blocker])
        # req cannot happen before 10, but B forces an event by 5 —
        # req's window [10, 5] is empty.
        assert auto.time_window(auto.initial("idle"), "req") is None

    def test_schedulable_actions(self):
        options = dict(
            (action, (lo, hi))
            for action, lo, hi in self.auto.schedulable_actions(self.init)
        )
        assert set(options) == {"req", "noise"}
        assert options["req"] == (2, 4)

    def test_time_violation_reports_reason(self):
        reason = self.auto.time_violation(self.init, "req", 1)
        assert reason is not None and "S" in reason


class TestRequirementTwoAtPointOfUse:
    """``(s', π, s) ∈ T_step ⇒ s ∉ S`` is asserted on every step that
    ``time(A, U)`` takes, not only by ``check_trigger_step``."""

    def expected_message(self, cond):
        with pytest.raises(TimingConditionError) as direct:
            cond.check_trigger_step("idle", "req", "busy")
        return str(direct.value)

    @pytest.mark.parametrize("pi", [{"done"}, {"req", "done"}])
    def test_trigger_into_disabling_state_raises(self, pi):
        # ``req`` triggers and ends in ``busy``, which disables; the
        # step is rejected whether or not ``req`` is in Π.
        cond = TimingCondition.build(
            "R",
            Interval(1, 3),
            actions=pi,
            step_predicate=lambda pre, a, post: a == "req",
            disabling={"busy"},
        )
        auto = time_of_conditions(flow_automaton(), [cond])
        init = auto.initial("idle")
        for take in (auto.successors, auto.successor):
            with pytest.raises(TimingConditionError) as raised:
                take(init, "req", 1)
            assert str(raised.value) == self.expected_message(cond)

    def test_disabling_without_trigger_resets(self):
        # Entering S on a non-trigger step is legal: the prediction
        # falls back to the default.
        cond = TimingCondition.build(
            "R",
            Interval(1, 3),
            actions={"noise"},
            step_predicate=lambda pre, a, post: a == "done",
            disabling={"busy"},
        )
        auto = time_of_conditions(flow_automaton(), [cond])
        post = auto.successor(auto.initial("idle"), "req", 1)
        assert post.preds == (DEFAULT_PREDICTION,)
        back = auto.successor(post, "done", 2)
        assert back.preds == (Prediction(3, 5),)


class TestSchedulableWindows:
    def test_schedulable_actions_agree_with_time_window(self):
        auto = time_of_conditions(
            flow_automaton(), [response_condition(1, 3), startup_condition(2, 4)]
        )
        state = auto.initial("idle")
        for action, t in [("noise", 1), ("req", 2), ("noise", 3), ("done", 4)]:
            expected = [
                (a,) + auto.time_window(state, a)
                for a in auto.base.enabled_actions(state.astate)
                if auto.time_window(state, a) is not None
            ]
            assert auto.schedulable_actions(state) == expected
            state = auto.successor(state, action, t)
