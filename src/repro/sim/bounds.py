"""Extracting timing measurements from timed behaviors.

Given timed behaviors (sequences of ``(action, time)`` pairs), compute
first-occurrence times, inter-occurrence gaps, and aggregate them over
run batches — the measurement side of experiments E1 and E4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Union

from repro.timed.interval import Interval
from repro.timed.timed_sequence import TimedEvent

__all__ = [
    "occurrence_times",
    "first_occurrence",
    "gaps",
    "separations_after",
    "BoundsAccumulator",
]

Behavior = Sequence[TimedEvent]
ActionMatcher = Union[Hashable, Callable[[Hashable], bool]]


def _matcher(action: ActionMatcher) -> Callable[[Hashable], bool]:
    if callable(action):
        return action
    return lambda a: a == action


def occurrence_times(behavior: Behavior, action: ActionMatcher) -> List[object]:
    """The times of every occurrence of ``action`` in order."""
    match = _matcher(action)
    return [ev.time for ev in behavior if match(ev.action)]


def first_occurrence(behavior: Behavior, action: ActionMatcher) -> Optional[object]:
    """The time of the first occurrence, or None."""
    match = _matcher(action)
    for ev in behavior:
        if match(ev.action):
            return ev.time
    return None


def gaps(times: Sequence[object]) -> List[object]:
    """Differences between consecutive times."""
    return [later - earlier for earlier, later in zip(times, times[1:])]


def separations_after(
    behavior: Behavior, trigger: ActionMatcher, target: ActionMatcher
) -> List[object]:
    """For each ``trigger`` occurrence, the delay to the next ``target``
    occurrence (unmatched triggers are skipped) — the shape measured by
    conditions like ``U_{k,n}``."""
    match_trigger = _matcher(trigger)
    match_target = _matcher(target)
    pending: Optional[object] = None
    result: List[object] = []
    for ev in behavior:
        if pending is not None and match_target(ev.action):
            result.append(ev.time - pending)
            pending = None
        if match_trigger(ev.action):
            pending = ev.time
    return result


@dataclass
class BoundsAccumulator:
    """Streaming min/max/count/total over measured values."""

    count: int = 0
    minimum: object = math.inf
    maximum: object = -math.inf
    total: object = 0

    def add(self, value) -> None:
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.total = self.total + value

    def add_all(self, values: Iterable) -> "BoundsAccumulator":
        for value in values:
            self.add(value)
        return self

    @property
    def mean(self):
        if self.count == 0:
            return None
        return self.total / self.count

    def all_within(self, interval: Interval) -> bool:
        """True when every recorded value fell inside ``interval``
        (vacuously true when empty)."""
        if self.count == 0:
            return True
        return interval.contains(self.minimum) and interval.contains(self.maximum)

    def span(self) -> Optional[Interval]:
        """The observed [min, max] as an interval, or None when empty."""
        if self.count == 0:
            return None
        return Interval(self.minimum, self.maximum)

    def __repr__(self) -> str:
        if self.count == 0:
            return "BoundsAccumulator(empty)"
        return "BoundsAccumulator(n={}, min={!r}, max={!r})".format(
            self.count, self.minimum, self.maximum
        )
