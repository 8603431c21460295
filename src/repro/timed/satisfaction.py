"""Satisfaction checkers for timing conditions and timed executions.

Implements, directly from the paper:

- Definition 2.1 — ``α`` is a timed execution of ``(A, b)``;
- Definition 2.2 — ``α`` satisfies a timing condition;
- Definition 3.1 — ``α`` *semi-satisfies* a timing condition (the
  safety-only reading for finite prefixes, where an upper bound is
  excused if insufficient time has passed), both over a whole prefix
  (:func:`find_condition_violation`, the reference) and one event at a
  time (:class:`SemiSatisfactionMonitor`).

All checkers return a :class:`Violation` (or None) so tests and
diagnostics can point at the exact failing clause.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.ioa.execution import validate_execution
from repro.ioa.partition import PartitionClass
from repro.timed.boundmap import TimedAutomaton
from repro.timed.conditions import TimingCondition, boundmap_conditions
from repro.timed.interval import render_time
from repro.timed.timed_sequence import TimedSequence

__all__ = [
    "Violation",
    "find_condition_violation",
    "SemiSatisfactionMonitor",
    "satisfies",
    "semi_satisfies",
    "find_boundmap_violation",
    "is_timed_execution",
    "is_timed_semi_execution",
    "satisfies_all",
    "semi_satisfies_all",
]


@dataclass(frozen=True)
class Violation:
    """A concrete refutation of one clause of a satisfaction definition."""

    condition: str
    clause: str  # "upper" or "lower"
    origin_index: int  # i (0 for T_start origins)
    detail: str

    def __str__(self) -> str:
        return "[{}] {} bound violated from index {}: {}".format(
            self.condition, self.clause, self.origin_index, self.detail
        )


def _check_upper_from(
    seq: TimedSequence,
    condition: TimingCondition,
    origin_index: int,
    origin_time,
    semi: bool,
) -> Optional[Violation]:
    """Clause 1 of Definitions 2.2/3.1 for one origin.

    Scan for the first ``j > origin_index`` with ``π_j ∈ Π`` or
    ``s_j ∈ S``; it must come no later than ``origin_time + b_u``.
    """
    deadline = origin_time + condition.upper
    for j in range(origin_index + 1, len(seq) + 1):
        action_j = seq.action(j)
        state_j = seq.state(j)
        if condition.in_pi(action_j) or condition.disables(state_j):
            if seq.time(j) <= deadline:
                return None
            return Violation(
                condition.name,
                "upper",
                origin_index,
                "first Π/S occurrence at index {} has time {} > deadline "
                "{}".format(j, render_time(seq.time(j)), render_time(deadline)),
            )
    if semi and seq.t_end <= deadline:
        return None
    return Violation(
        condition.name,
        "upper",
        origin_index,
        "no Π action or S state by the deadline {} (t_end = {})".format(
            render_time(deadline), render_time(seq.t_end)
        ),
    )


def _check_lower_from(
    seq: TimedSequence,
    condition: TimingCondition,
    origin_index: int,
    origin_time,
) -> Optional[Violation]:
    """Clause 2 of Definition 2.2 (identical in Definition 3.1) for one
    origin: any ``Π`` action strictly before ``origin_time + b_l`` must
    be preceded by a disabling state strictly inside the window.
    """
    if condition.lower == 0:
        return None
    threshold = origin_time + condition.lower
    disabling_seen = False
    for j in range(origin_index + 1, len(seq) + 1):
        t_j = seq.time(j)
        if t_j >= threshold:
            return None  # times are nondecreasing; no later violation possible
        if condition.in_pi(seq.action(j)) and not disabling_seen:
            return Violation(
                condition.name,
                "lower",
                origin_index,
                "Π action {!r} at index {} occurs at time {} < {} with no "
                "intervening disabling state".format(
                    seq.action(j), j, render_time(t_j), render_time(threshold)
                ),
            )
        if condition.disables(seq.state(j)):
            disabling_seen = True
    return None


def find_condition_violation(
    seq: TimedSequence, condition: TimingCondition, semi: bool = False
) -> Optional[Violation]:
    """First violation of Definition 2.2 (or 3.1 when ``semi``), or None."""
    # T_start origin (the definitions evaluate T_start only at s0).
    if condition.starts(seq.state(0)):
        condition.check_start_state(seq.state(0))
        if condition.interval.is_upper_bounded:
            violation = _check_upper_from(seq, condition, 0, 0, semi)
            if violation is not None:
                return violation
        violation = _check_lower_from(seq, condition, 0, 0)
        if violation is not None:
            return violation
    # T_step origins.
    for i, (pre, event, post) in enumerate(seq.triples(), start=1):
        if not condition.triggers(pre, event.action, post):
            continue
        condition.check_trigger_step(pre, event.action, post)
        if condition.interval.is_upper_bounded:
            violation = _check_upper_from(seq, condition, i, event.time, semi)
            if violation is not None:
                return violation
        violation = _check_lower_from(seq, condition, i, event.time)
        if violation is not None:
            return violation
    return None


class SemiSatisfactionMonitor:
    """Definition 3.1 checked one event at a time, for a tuple of
    conditions.

    Feeding the events of ``seq`` to :meth:`start` / :meth:`advance`
    reports, at each step, exactly the :class:`Violation` that
    :func:`semi_satisfies_all` reports on that prefix (same condition,
    clause, origin and detail), and raises the same
    :class:`~repro.errors.TimingConditionError` at the same step.
    Monitors are immutable, so sibling extensions share their parent.

    Per condition it keeps only the obligations a later event can still
    break:

    - the *first* open upper obligation ``(origin, deadline)`` since the
      last ``Π``/``S`` step.  All open upper obligations end at the same
      future ``Π``/``S`` step, and deadlines grow with the origin, so
      the first one is the earliest to expire and the one the reference
      reports;
    - the open lower obligations ``(origin, threshold)`` since the last
      disabling state whose threshold is still in the future, in origin
      (hence threshold) order.

    Each :meth:`advance` costs O(open obligations).
    """

    __slots__ = ("conditions", "length", "_upper", "_lower")

    def __init__(self, conditions, length, upper, lower):
        self.conditions: Tuple[TimingCondition, ...] = conditions
        #: Number of events seen so far (the index of the last event).
        self.length: int = length
        self._upper = upper
        self._lower = lower

    @classmethod
    def start(
        cls, conditions: Sequence[TimingCondition], state: Hashable
    ) -> "SemiSatisfactionMonitor":
        """The monitor of the event-free sequence sitting in ``state``.

        An event-free prefix never violates Definition 3.1, but a
        ``T_start`` state that also disables raises here.
        """
        conditions = tuple(conditions)
        upper = []
        lower = []
        for condition in conditions:
            first = None
            opened = ()
            if condition.starts(state):
                condition.check_start_state(state)
                if condition.interval.is_upper_bounded:
                    first = (0, 0 + condition.upper)
                if condition.lower != 0:
                    opened = ((0, 0 + condition.lower),)
            upper.append(first)
            lower.append(opened)
        return cls(conditions, 0, tuple(upper), tuple(lower))

    @property
    def key(self) -> Tuple:
        """What every future verdict depends on, per condition: the
        earliest open deadline and the latest open threshold."""
        return tuple(
            (None if first is None else first[1], opened[-1][1] if opened else None)
            for first, opened in zip(self._upper, self._lower)
        )

    def advance(
        self, pre: Hashable, action: Hashable, time, post: Hashable
    ) -> Tuple[Optional["SemiSatisfactionMonitor"], Optional[Violation]]:
        """Append the step ``(pre, (action, time), post)``.

        Returns ``(monitor, None)`` for the extended prefix, or
        ``(None, violation)`` when the extended prefix no longer
        semi-satisfies some condition.
        """
        index = self.length + 1
        upper = []
        lower = []
        for condition, first, opened in zip(self.conditions, self._upper, self._lower):
            in_pi = condition.in_pi(action)
            disables = condition.disables(post)
            violation = None
            if first is not None and not time <= first[1]:
                origin, deadline = first
                if in_pi or disables:
                    detail = (
                        "first Π/S occurrence at index {} has time {} > deadline "
                        "{}".format(index, render_time(time), render_time(deadline))
                    )
                else:
                    detail = (
                        "no Π action or S state by the deadline {} (t_end = "
                        "{})".format(render_time(deadline), render_time(time))
                    )
                violation = Violation(condition.name, "upper", origin, detail)
            # Thresholds grow with the origin: the reached ones are a prefix.
            expired = 0
            while expired < len(opened) and time >= opened[expired][1]:
                expired += 1
            opened = opened[expired:]
            if opened and in_pi:
                origin, threshold = opened[0]
                if violation is None or origin < violation.origin_index:
                    violation = Violation(
                        condition.name,
                        "lower",
                        origin,
                        "Π action {!r} at index {} occurs at time {} < {} with no "
                        "intervening disabling state".format(
                            action, index, render_time(time), render_time(threshold)
                        ),
                    )
            if violation is not None:
                return None, violation
            if in_pi or disables:
                first = None
            if disables:
                opened = ()
            if condition.triggers(pre, action, post):
                condition.check_trigger_step(pre, action, post)
                if first is None and condition.interval.is_upper_bounded:
                    first = (index, time + condition.upper)
                if condition.lower != 0:
                    opened = opened + ((index, time + condition.lower),)
            upper.append(first)
            lower.append(opened)
        return SemiSatisfactionMonitor(self.conditions, index, tuple(upper), tuple(lower)), None


def satisfies(seq: TimedSequence, condition: TimingCondition) -> bool:
    """Definition 2.2: ``seq`` satisfies ``condition``."""
    return find_condition_violation(seq, condition, semi=False) is None


def semi_satisfies(seq: TimedSequence, condition: TimingCondition) -> bool:
    """Definition 3.1: ``seq`` semi-satisfies ``condition``."""
    return find_condition_violation(seq, condition, semi=True) is None


def satisfies_all(
    seq: TimedSequence, conditions: Iterable[TimingCondition]
) -> Optional[Violation]:
    """First violation across a set of conditions (Definition 2.2), or
    None when ``seq`` is a timed execution of ``(A, U)`` as far as the
    conditions are concerned."""
    for condition in conditions:
        violation = find_condition_violation(seq, condition, semi=False)
        if violation is not None:
            return violation
    return None


def semi_satisfies_all(
    seq: TimedSequence, conditions: Iterable[TimingCondition]
) -> Optional[Violation]:
    """First semi-satisfaction violation across a set of conditions."""
    for condition in conditions:
        violation = find_condition_violation(seq, condition, semi=True)
        if violation is not None:
            return violation
    return None


# ----------------------------------------------------------------------
# Definition 2.1, checked directly against the boundmap (not via cond(C))
# ----------------------------------------------------------------------


def _class_origins(
    seq: TimedSequence, automaton, cls: PartitionClass
) -> Iterable[Tuple[int, object]]:
    """The origins of Definition 2.1 for class ``C``: indices ``i`` with
    ``s_i ∈ enabled(A, C)`` and (``i = 0`` or ``s_{i-1} ∈ disabled`` or
    ``π_i ∈ C``), paired with ``t_i``."""
    enabled_at: List[bool] = [
        automaton.class_enabled(state, cls) for state in seq.states
    ]
    if enabled_at[0]:
        yield (0, 0)
    for i in range(1, len(seq) + 1):
        if not enabled_at[i]:
            continue
        if not enabled_at[i - 1] or seq.action(i) in cls.actions:
            yield (i, seq.time(i))


def find_boundmap_violation(
    timed: TimedAutomaton, seq: TimedSequence, semi: bool = False
) -> Optional[Violation]:
    """Definition 2.1, implemented literally (per class and origin).

    With ``semi=True``, upper-bound obligations whose deadline lies
    beyond ``t_end`` are excused, mirroring Definition 3.1; this is the
    right check for finite prefixes of ongoing executions.
    """
    automaton = timed.automaton
    for cls in timed.classes():
        interval = timed.class_interval(cls)
        enabled_at = [automaton.class_enabled(state, cls) for state in seq.states]
        for origin, origin_time in _class_origins(seq, automaton, cls):
            # Condition 1: within b_u, some C action occurs or C is disabled.
            if interval.is_upper_bounded:
                deadline = origin_time + interval.hi
                witness = None
                for j in range(origin + 1, len(seq) + 1):
                    if seq.action(j) in cls.actions or not enabled_at[j]:
                        witness = j
                        break
                if witness is not None:
                    if seq.time(witness) > deadline:
                        return Violation(
                            cls.name,
                            "upper",
                            origin,
                            "first C action / disabling at index {} is at time "
                            "{} > deadline {}".format(
                                witness, render_time(seq.time(witness)), render_time(deadline)
                            ),
                        )
                elif not (semi and seq.t_end <= deadline):
                    return Violation(
                        cls.name,
                        "upper",
                        origin,
                        "no C action or disabled state by deadline {} "
                        "(t_end = {})".format(render_time(deadline), render_time(seq.t_end)),
                    )
            # Condition 2: no C action strictly before b_l has elapsed.
            if interval.lo > 0:
                threshold = origin_time + interval.lo
                for j in range(origin + 1, len(seq) + 1):
                    if seq.time(j) >= threshold:
                        break
                    if seq.action(j) in cls.actions:
                        return Violation(
                            cls.name,
                            "lower",
                            origin,
                            "C action {!r} at index {} occurs at time {} < "
                            "{}".format(
                                seq.action(j), j, render_time(seq.time(j)), render_time(threshold)
                            ),
                        )
    return None


def is_timed_execution(
    timed: TimedAutomaton, seq: TimedSequence, check_untimed: bool = True
) -> bool:
    """True when ``seq`` is a (finite) timed execution of ``(A, b)``
    per Definition 2.1, including ``ord(seq)`` being an execution of
    ``A`` unless ``check_untimed`` is disabled."""
    if check_untimed:
        validate_execution(timed.automaton, seq.ord())
    return find_boundmap_violation(timed, seq, semi=False) is None


def is_timed_semi_execution(
    timed: TimedAutomaton, seq: TimedSequence, check_untimed: bool = True
) -> bool:
    """True when ``seq`` is a timed semi-execution of ``(A, U_b)`` —
    the Definition 3.1 reading of the boundmap conditions."""
    if check_untimed:
        validate_execution(timed.automaton, seq.ord())
    return find_boundmap_violation(timed, seq, semi=True) is None
