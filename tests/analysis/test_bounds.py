"""Tests for behavior measurement helpers."""

import math

import pytest

from repro.sim.bounds import (
    BoundsAccumulator,
    first_occurrence,
    gaps,
    occurrence_times,
    separations_after,
)
from repro.timed.interval import Interval
from repro.timed.timed_sequence import TimedEvent


def behavior(*pairs):
    return [TimedEvent(a, t) for a, t in pairs]


class TestOccurrences:
    def test_occurrence_times(self):
        b = behavior(("g", 1), ("x", 2), ("g", 3))
        assert occurrence_times(b, "g") == [1, 3]

    def test_occurrence_times_predicate(self):
        b = behavior(("g1", 1), ("g2", 2), ("x", 3))
        assert occurrence_times(b, lambda a: a.startswith("g")) == [1, 2]

    def test_first_occurrence(self):
        b = behavior(("x", 1), ("g", 2))
        assert first_occurrence(b, "g") == 2

    def test_first_occurrence_missing(self):
        assert first_occurrence(behavior(("x", 1)), "g") is None

    def test_gaps(self):
        assert gaps([1, 3, 6]) == [2, 3]
        assert gaps([5]) == []


class TestSeparations:
    def test_basic_pairing(self):
        b = behavior(("req", 1), ("rsp", 3), ("req", 10), ("rsp", 11))
        assert separations_after(b, "req", "rsp") == [2, 1]

    def test_unanswered_trigger_skipped(self):
        b = behavior(("req", 1), ("rsp", 3), ("req", 10))
        assert separations_after(b, "req", "rsp") == [2]

    def test_retrigger_resets_measurement(self):
        b = behavior(("req", 1), ("req", 2), ("rsp", 5))
        # The second req re-arms the measurement: separation from t=2.
        assert separations_after(b, "req", "rsp") == [3]

    def test_target_before_trigger_ignored(self):
        b = behavior(("rsp", 1), ("req", 2), ("rsp", 4))
        assert separations_after(b, "req", "rsp") == [2]


class TestAccumulator:
    def test_empty(self):
        acc = BoundsAccumulator()
        assert acc.count == 0
        assert acc.mean is None
        assert acc.span() is None
        assert acc.all_within(Interval(0, 1))  # vacuous

    def test_min_max_mean(self):
        acc = BoundsAccumulator().add_all([3, 1, 2])
        assert acc.minimum == 1 and acc.maximum == 3
        assert acc.mean == 2

    def test_all_within(self):
        acc = BoundsAccumulator().add_all([2, 3])
        assert acc.all_within(Interval(1, 4))
        assert not acc.all_within(Interval(1, 2))

    def test_span(self):
        acc = BoundsAccumulator().add_all([2, 5])
        assert acc.span() == Interval(2, 5)

    def test_repr_mentions_count(self):
        acc = BoundsAccumulator().add_all([1])
        assert "n=1" in repr(acc)
