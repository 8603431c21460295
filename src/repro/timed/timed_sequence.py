"""Timed sequences (paper Section 2.2).

A timed sequence alternates states and ``(action, time)`` pairs with
nondecreasing times, ``t_0 = 0`` implicit.  The library represents only
finite timed sequences explicitly; infinite timed executions appear as
ever-growing prefixes produced by the simulator (Lemma 3.1 justifies
reasoning about the limit of such prefix chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, List, Sequence, Tuple, Union

from repro.errors import TimedSequenceError
from repro.ioa.execution import Execution
from repro.timed.interval import render_time

__all__ = ["TimedEvent", "TimedSequence", "timed_word"]


@dataclass(frozen=True)
class TimedEvent:
    """One ``(action, time)`` pair."""

    action: Hashable
    time: object  # any real-number type

    def __repr__(self) -> str:
        return "({!r}, {})".format(self.action, render_time(self.time))


class TimedSequence:
    """A finite timed sequence ``s0, (π1, t1), s1, …, s_end``."""

    def __init__(
        self,
        states: Sequence[Hashable],
        events: Sequence[Union[TimedEvent, Tuple[Hashable, object]]],
    ):
        self._states: Tuple[Hashable, ...] = tuple(states)
        normalised: List[TimedEvent] = []
        for ev in events:
            if not isinstance(ev, TimedEvent):
                action, time = ev
                ev = TimedEvent(action, time)
            normalised.append(ev)
        self._events: Tuple[TimedEvent, ...] = tuple(normalised)
        if len(self._states) != len(self._events) + 1:
            raise TimedSequenceError(
                "a timed sequence with {} events needs {} states, got {}".format(
                    len(self._events), len(self._events) + 1, len(self._states)
                )
            )
        previous = 0  # t_0 = 0 by definition
        for index, ev in enumerate(self._events):
            if ev.time < previous:
                raise TimedSequenceError(
                    "event times must be nondecreasing: t_{} = {} < t_{} = {}".format(
                        index + 1, render_time(ev.time), index, render_time(previous)
                    )
                )
            previous = ev.time

    @classmethod
    def initial(cls, state: Hashable) -> "TimedSequence":
        """The event-free timed sequence sitting in ``state``."""
        return cls((state,), ())

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def states(self) -> Tuple[Hashable, ...]:
        return self._states

    @property
    def events(self) -> Tuple[TimedEvent, ...]:
        return self._events

    @property
    def first_state(self) -> Hashable:
        return self._states[0]

    @property
    def last_state(self) -> Hashable:
        return self._states[-1]

    def __len__(self) -> int:
        """Number of events."""
        return len(self._events)

    @property
    def t_end(self) -> object:
        """The paper's ``t_end``: time of the last event, or 0."""
        if not self._events:
            return 0
        return self._events[-1].time

    def state(self, i: int) -> Hashable:
        """``s_i``."""
        return self._states[i]

    def action(self, i: int) -> Hashable:
        """``π_i`` for ``i ≥ 1`` (paper indexing)."""
        return self._events[i - 1].action

    def time(self, i: int) -> object:
        """``t_i`` for ``i ≥ 0`` (``t_0 = 0``)."""
        if i == 0:
            return 0
        return self._events[i - 1].time

    def triples(self) -> Iterator[Tuple[Hashable, TimedEvent, Hashable]]:
        """Iterate over ``(s_{i-1}, (π_i, t_i), s_i)`` timed steps."""
        for i, ev in enumerate(self._events):
            yield (self._states[i], ev, self._states[i + 1])

    # ------------------------------------------------------------------
    # Derived sequences
    # ------------------------------------------------------------------

    def ord(self) -> Execution:
        """The paper's ``ord(α)``: the time components removed."""
        return Execution(self._states, tuple(ev.action for ev in self._events))

    def timed_schedule(self) -> Tuple[TimedEvent, ...]:
        """The (action, time) pairs — the timed schedule."""
        return self._events

    def timed_behavior(self, external) -> Tuple[TimedEvent, ...]:
        """The pairs whose action satisfies the ``external`` predicate
        (or membership in an action set)."""
        if callable(external):
            keep = external
        else:
            members = frozenset(external)

            def keep(action: Hashable) -> bool:
                return action in members

        return tuple(ev for ev in self._events if keep(ev.action))

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------

    def extend(self, action: Hashable, time: object, state: Hashable) -> "TimedSequence":
        """A new timed sequence with one more event appended."""
        return TimedSequence(
            self._states + (state,), self._events + (TimedEvent(action, time),)
        )

    def prefix(self, events: int) -> "TimedSequence":
        """The prefix with the given number of events."""
        if events < 0 or events > len(self._events):
            raise TimedSequenceError("prefix length {} out of range".format(events))
        return TimedSequence(self._states[: events + 1], self._events[:events])

    def is_prefix_of(self, other: "TimedSequence") -> bool:
        """True when ``self`` is a prefix of ``other`` (Lemma 3.1 chains)."""
        if len(self) > len(other):
            return False
        return (
            self._states == other._states[: len(self._states)]
            and self._events == other._events[: len(self._events)]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimedSequence)
            and self._states == other._states
            and self._events == other._events
        )

    def __hash__(self) -> int:
        return hash((self._states, self._events))

    def __repr__(self) -> str:
        if len(self._events) <= 4:
            body = ", ".join(repr(ev) for ev in self._events)
        else:
            body = "{!r}, …, {!r} ({} events)".format(
                self._events[0], self._events[-1], len(self._events)
            )
        return "TimedSequence({})".format(body)


def timed_word(seq: TimedSequence) -> Tuple[Tuple[Hashable, object], ...]:
    """The sequence of ``(action, time)`` tuples, for easy assertions."""
    return tuple((ev.action, ev.time) for ev in seq.events)
