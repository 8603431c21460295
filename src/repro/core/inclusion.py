"""Direct semantic inclusion checking (the conclusion of Theorem 3.4).

A strong possibilities mapping *proves* that every timed execution of
``(A, U)`` satisfies the conditions ``V``.  This module checks that
statement directly — no mapping involved — by enumerating the grid
executions of ``time(A, U)`` and testing each projection against ``V``
(Definition 3.1's semi-satisfaction, the right reading for finite
prefixes), up to histories that no later event can tell apart.

This is the ground truth the mapping method is sound against; the test
suite confirms the two verdicts agree on correct systems *and* on
mutants (a refuted mapping corresponds to an actual inclusion failure,
or to an unprovable-but-true bound — the checker tells which).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, NamedTuple, Optional, Sequence, Tuple

from repro.timed.conditions import TimingCondition
from repro.timed.satisfaction import SemiSatisfactionMonitor, Violation
from repro.timed.timed_sequence import TimedSequence
from repro.core.discretize import discrete_options
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState

__all__ = ["InclusionOutcome", "check_semantic_inclusion"]


@dataclass(frozen=True)
class InclusionOutcome:
    """Outcome of a grid-exhaustive semantic inclusion check."""

    ok: bool
    executions_checked: int
    truncated: bool
    violation: Optional[Violation] = None
    counterexample: Optional[TimedSequence] = None

    def __bool__(self) -> bool:
        return self.ok


def check_semantic_inclusion(
    source: PredictiveTimeAutomaton,
    conditions: Sequence[TimingCondition],
    grid,
    horizon,
    max_executions: int = 200_000,
) -> InclusionOutcome:
    """Check that the projection of every grid execution of ``source``
    semi-satisfies every condition in ``conditions``.

    Satisfaction is a property of whole histories, but by Lemma 3.2 the
    part of a history that later events can still refute is a bounded
    summary: per condition, the earliest open upper deadline and the
    latest open lower threshold (the ``Lt`` and ``Ft`` that
    ``time(A, V)`` would carry; a
    :class:`~repro.timed.satisfaction.SemiSatisfactionMonitor` tracks
    them one event at a time).  So the search runs breadth-first over
    the product of ``time(A, U)`` states and those summaries, not over
    the execution tree.  An extension is checked, but not explored
    further, when its product state has already been enqueued: its
    successors depend only on the ``TimeState`` and its future verdicts
    only on the summary.  Breadth-first order makes the first violation
    found the same one a walk of the whole tree would find first, so
    ``ok``, ``violation`` and ``counterexample`` do not depend on the
    pruning.

    ``executions_checked`` counts the product nodes explored: every
    start state and every one-step extension of an explored node is
    checked once, including the extensions then skipped as already
    enqueued.  ``max_executions`` caps it.  Violations come back with
    the offending projected sequence, rebuilt from parent pointers.

    The search runs in integer time (:mod:`repro.core.time_scale`), on
    copies of ``source`` and ``conditions`` scaled by the lcm ``D`` of
    the denominators of every bound, the grid and the horizon.  The
    counterexample is divided back by ``D``, and its violation found
    again by replaying it over ``conditions``.
    """
    from repro.core.time_scale import TimeScale

    conditions = tuple(conditions)
    scale = TimeScale.for_inclusion(source, conditions, grid, horizon)
    if scale is None:
        return _reference_inclusion(source, conditions, grid, horizon, max_executions)
    outcome = _search_product(
        scale.automaton(source),
        tuple(scale.condition(c) for c in conditions),
        scale.up(grid),
        scale.up(horizon),
        max_executions,
    )
    if outcome.ok:
        return outcome
    counterexample = scale.sequence_down(outcome.counterexample)
    return InclusionOutcome(
        False,
        outcome.executions_checked,
        False,
        _replay(conditions, counterexample),
        counterexample,
    )


def _reference_inclusion(
    source: PredictiveTimeAutomaton,
    conditions: Sequence[TimingCondition],
    grid,
    horizon,
    max_executions: int = 200_000,
) -> InclusionOutcome:
    """The same search in the source's own rational time: the oracle
    the integer search is held to."""
    return _search_product(source, tuple(conditions), grid, horizon, max_executions)


def _replay(conditions: Tuple[TimingCondition, ...], seq: TimedSequence) -> Violation:
    """The violation that ends ``seq``, found again by the monitor over
    ``conditions`` (a counterexample violates at its last event only)."""
    monitor = SemiSatisfactionMonitor.start(conditions, seq.first_state)
    for pre, event, post in seq.triples():
        monitor, violation = monitor.advance(pre, event.action, event.time, post)
        if violation is not None:
            return violation
    raise AssertionError("counterexample {!r} violates nothing".format(seq))


def _search_product(
    source: PredictiveTimeAutomaton,
    conditions: Tuple[TimingCondition, ...],
    grid,
    horizon,
    max_executions: int,
) -> InclusionOutcome:
    """The breadth-first search of :func:`check_semantic_inclusion`."""
    checked = 0
    seen = set()
    frontier: deque = deque()
    for start in source.start_states():
        monitor = SemiSatisfactionMonitor.start(conditions, start.astate)
        checked += 1
        key = (start, monitor.key)
        if key not in seen:
            seen.add(key)
            frontier.append(_Node(start, monitor, None, None))
    while frontier:
        node = frontier.popleft()
        state = node.state
        for action, t in discrete_options(source, state, grid, horizon):
            for post in source.successors(state, action, t):
                monitor, violation = node.monitor.advance(
                    state.astate, action, t, post.astate
                )
                checked += 1
                if violation is not None:
                    return InclusionOutcome(
                        False,
                        checked,
                        False,
                        violation,
                        _projected_path(node, (action, t), post),
                    )
                if checked >= max_executions:
                    return InclusionOutcome(True, checked, True)
                key = (post, monitor.key)
                if key not in seen:
                    seen.add(key)
                    frontier.append(_Node(post, monitor, node, (action, t)))
    return InclusionOutcome(True, checked, False)


class _Node(NamedTuple):
    """A product node: its ``time(A, U)`` state, the monitor of the path
    into it, and the parent and ``(action, time)`` event it came by."""

    state: TimeState
    monitor: SemiSatisfactionMonitor
    parent: Optional["_Node"]
    event: Optional[Tuple[Hashable, object]]


def _projected_path(node: _Node, event, post: TimeState) -> TimedSequence:
    """``project`` of the execution from a start state into ``node``,
    extended by ``event`` into ``post``."""
    states = [post.astate]
    events = [event]
    while node is not None:
        states.append(node.state.astate)
        if node.event is not None:
            events.append(node.event)
        node = node.parent
    states.reverse()
    events.reverse()
    return TimedSequence(states, events)
