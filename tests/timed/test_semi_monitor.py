"""The incremental Definition 3.1 monitor against the whole-prefix
reference.

:class:`SemiSatisfactionMonitor` must report, after every event, exactly
what :func:`find_condition_violation` (one condition) or
:func:`semi_satisfies_all` (several) reports on that prefix: the same
``Violation`` — condition, clause, origin and detail string — or None,
and the same ``TimingConditionError`` at the same step.  A monitor is
not defined past its first violation, so each walk stops there.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimingConditionError
from repro.timed.conditions import TimingCondition
from repro.timed.interval import INFINITY, Interval
from repro.timed.satisfaction import (
    SemiSatisfactionMonitor,
    Violation,
    find_condition_violation,
    semi_satisfies_all,
)
from repro.timed.timed_sequence import TimedSequence

ACTIONS = ["a", "b", "g"]
STATES = ["s", "t", "dead"]

# Small denominators and a narrow range make equal times, and times
# landing exactly on deadlines and thresholds, common.
times = st.fractions(min_value=0, max_value=6, max_denominator=2)


@st.composite
def timed_sequences(draw):
    length = draw(st.integers(min_value=0, max_value=9))
    states = [draw(st.sampled_from(STATES)) for _ in range(length + 1)]
    raw_times = sorted(draw(st.lists(times, min_size=length, max_size=length)))
    events = [(draw(st.sampled_from(ACTIONS)), raw_times[i]) for i in range(length)]
    return TimedSequence(tuple(states), tuple(events))


@st.composite
def intervals(draw):
    lo = draw(st.sampled_from([0, 0, F(1, 2), 1, 2]))
    if draw(st.booleans()):
        return Interval(lo, INFINITY)
    width = draw(st.sampled_from([0, F(1, 2), 1, 3]))
    return Interval(lo, lo + width if lo + width > 0 else F(1, 2))


@st.composite
def conditions(draw, name="U"):
    interval = draw(intervals())
    pi = draw(st.sets(st.sampled_from(ACTIONS), min_size=1, max_size=2))
    shape = draw(st.sampled_from(["from_start", "after_action", "general"]))
    if shape == "from_start":
        starts = draw(st.sampled_from([None, {"s"}, {"s", "t"}]))
        return TimingCondition.from_start(name, interval, pi, start_states=starts)
    if shape == "after_action":
        return TimingCondition.after_action(
            name, interval, draw(st.sampled_from(ACTIONS)), pi
        )
    # Disabling states, start states that may disable and trigger steps
    # that may end disabled: the last two make both checkers raise.
    disabling = draw(st.sets(st.sampled_from(["dead", "t"]), max_size=1))
    start_states = draw(st.sets(st.sampled_from(STATES), max_size=2))
    trigger_actions = frozenset(draw(st.sets(st.sampled_from(ACTIONS), max_size=2)))
    guard_disabling = draw(st.booleans())

    def triggers(pre, action, post, ts=trigger_actions, d=frozenset(disabling)):
        return action in ts and not (guard_disabling and post in d)

    return TimingCondition.build(
        name,
        interval,
        actions=pi,
        start_states=start_states,
        step_predicate=triggers,
        disabling=disabling,
    )


def _reference(prefix, conds):
    if len(conds) == 1:
        return find_condition_violation(prefix, conds[0], semi=True)
    return semi_satisfies_all(prefix, conds)


def _outcome(call):
    try:
        return call()
    except TimingConditionError as exc:
        return ("raises", str(exc))


def _walk(seq, conds):
    """Compare the monitor with the reference on every prefix of
    ``seq`` up to the first violation or error; returns the number of
    prefixes compared."""

    def start():
        return SemiSatisfactionMonitor.start(conds, seq.first_state)

    monitor = _outcome(start)
    reference = _outcome(lambda: _reference(seq.prefix(0), conds))
    if isinstance(monitor, tuple):
        assert reference == monitor
        return 1
    assert reference is None  # an event-free prefix never violates
    for n, (pre, event, post) in enumerate(seq.triples(), start=1):
        step = _outcome(lambda: monitor.advance(pre, event.action, event.time, post))
        reference = _outcome(lambda: _reference(seq.prefix(n), conds))
        if step[0] == "raises":
            assert reference == step, "prefix {}".format(n)
            return n + 1
        monitor, violation = step
        assert violation == reference, "prefix {} of {!r}".format(n, seq)
        if violation is not None:
            assert monitor is None
            return n + 1
        assert monitor.length == n
    return len(seq) + 1


@settings(max_examples=400, deadline=None)
@given(seq=timed_sequences(), cond=conditions())
def test_monitor_matches_reference_on_every_prefix(seq, cond):
    _walk(seq, (cond,))


@settings(max_examples=200, deadline=None)
@given(
    seq=timed_sequences(),
    first=conditions(name="U1"),
    second=conditions(name="U2"),
)
def test_monitor_matches_reference_across_conditions(seq, first, second):
    """Several conditions: the first condition (in order) with a
    violation wins, and a later condition's error is only reached when
    the earlier ones are clean."""
    _walk(seq, (first, second))


class TestExamples:
    def test_smallest_origin_wins(self):
        # Triggers at 0 and 1 both miss a 1-unit deadline; origin 1 of
        # the reference is the first trigger step.
        cond = TimingCondition.after_action("U", Interval(0, 1), "a", {"g"})
        seq = TimedSequence(
            ("s", "s", "s", "s"), (("a", F(0)), ("a", F(1)), ("b", F(3)))
        )
        assert _walk(seq, (cond,)) == 4
        monitor = SemiSatisfactionMonitor.start((cond,), "s")
        for pre, event, post in seq.triples():
            monitor, violation = monitor.advance(pre, event.action, event.time, post)
        assert violation == Violation(
            "U",
            "upper",
            1,
            "no Π action or S state by the deadline 1 (t_end = 3)",
        )

    def test_earlier_origin_wins_across_clauses(self):
        # At t=7/2 origin 1 misses its deadline 3 and the g breaks origin
        # 2's lower threshold 4; the reference reports origin 1.
        cond = TimingCondition.after_action("U", Interval(2, 3), "a", {"g"})
        seq = TimedSequence(
            ("s", "s", "s", "s"), (("a", F(0)), ("a", F(2)), ("g", F(7, 2)))
        )
        monitor = SemiSatisfactionMonitor.start((cond,), "s")
        monitor, _ = monitor.advance("s", "a", F(0), "s")
        monitor, _ = monitor.advance("s", "a", F(2), "s")
        _, violation = monitor.advance("s", "g", F(7, 2), "s")
        assert violation == find_condition_violation(seq, cond, semi=True)
        assert violation.clause == "upper" and violation.origin_index == 1

    def test_disabling_state_clears_lower_obligations(self):
        cond = TimingCondition.build(
            "U",
            Interval(3, INFINITY),
            actions={"g"},
            start_states={"s"},
            disabling={"dead"},
        )
        monitor = SemiSatisfactionMonitor.start((cond,), "s")
        assert monitor.key == ((None, 3),)
        monitor, violation = monitor.advance("s", "b", F(1), "dead")
        assert violation is None and monitor.key == ((None, None),)
        _, violation = monitor.advance("dead", "g", F(2), "s")
        assert violation is None

    def test_key_tracks_earliest_deadline_and_latest_threshold(self):
        cond = TimingCondition.after_action("U", Interval(1, 4), "a", {"g"})
        monitor = SemiSatisfactionMonitor.start((cond,), "s")
        monitor, _ = monitor.advance("s", "a", F(1), "s")
        monitor, _ = monitor.advance("s", "a", F(2), "s")
        assert monitor.key == ((F(5), F(3)),)
        monitor, _ = monitor.advance("s", "b", F(5, 2), "s")
        assert monitor.key == ((F(5), F(3)),)
        monitor, _ = monitor.advance("s", "g", F(3), "s")
        assert monitor.key == ((None, None),)

    def test_disabling_start_state_raises(self):
        cond = TimingCondition.build(
            "U", Interval(0, 1), actions={"g"}, start_states={"s"}, disabling={"s"}
        )
        with pytest.raises(TimingConditionError):
            SemiSatisfactionMonitor.start((cond,), "s")
