"""Timing conditions (paper Section 2.3).

A timing condition ``(T_start, T_step) --b--> (Π, S)`` bounds the
time from a trigger (a designated start state, or a designated step) to
the next occurrence of an action in ``Π``, with the measurement suspended
whenever a state in the disabling set ``S`` is reached.

Because the automata in this library may have large or structured state
spaces, conditions are represented by *predicates* (``starts``,
``triggers``, ``in_pi``, ``disables``) rather than materialised sets.
The paper's two technical requirements — triggers never designate a
disabled state — cannot be checked once and for all against a
predicate, so they are asserted at every point of use
(:meth:`TimingCondition.check_start_state`,
:meth:`TimingCondition.check_trigger_step`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Optional, Tuple, Union

from repro.errors import TimingConditionError
from repro.ioa.automaton import IOAutomaton
from repro.ioa.partition import PartitionClass
from repro.timed.boundmap import TimedAutomaton
from repro.timed.interval import Interval

__all__ = ["TimingCondition", "cond_of_class", "boundmap_conditions"]


def _never_state(_state: Hashable) -> bool:
    return False


def _never_step(_pre: Hashable, _action: Hashable, _post: Hashable) -> bool:
    return False


@dataclass(frozen=True)
class TimingCondition:
    """One timing condition ``(T_start, T_step) --b--> (Π, S)``.

    Attributes
    ----------
    name:
        Unique identifier; keys the ``Ft``/``Lt`` components in
        ``time(A, U)`` states.
    interval:
        The bound ``b = [b_l, b_u]``.
    starts:
        Membership predicate of ``T_start ⊆ start(A)`` (evaluated only
        on start states).
    triggers:
        Membership predicate of ``T_step ⊆ steps(A)``.
    in_pi:
        Membership predicate of the action set ``Π``.
    disables:
        Membership predicate of the disabling set ``S``.
    """

    name: str
    interval: Interval
    starts: Callable[[Hashable], bool] = _never_state
    triggers: Callable[[Hashable, Hashable, Hashable], bool] = _never_step
    in_pi: Callable[[Hashable], bool] = _never_state
    disables: Callable[[Hashable], bool] = _never_state

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        interval: Interval,
        actions: Union[Iterable[Hashable], Callable[[Hashable], bool]],
        start_states: Union[None, Iterable[Hashable], Callable[[Hashable], bool]] = None,
        step_predicate: Optional[Callable[[Hashable, Hashable, Hashable], bool]] = None,
        disabling: Union[None, Iterable[Hashable], Callable[[Hashable], bool]] = None,
    ) -> "TimingCondition":
        """Build a condition from sets or predicates, whichever is handy."""
        return cls(
            name=name,
            interval=interval,
            starts=_as_state_predicate(start_states),
            triggers=step_predicate or _never_step,
            in_pi=_as_action_predicate(actions),
            disables=_as_state_predicate(disabling),
        )

    @classmethod
    def after_action(
        cls,
        name: str,
        interval: Interval,
        trigger_action: Hashable,
        target_actions: Union[Iterable[Hashable], Callable[[Hashable], bool]],
    ) -> "TimingCondition":
        """The common "event-to-event" shape: measured from every step
        whose action is ``trigger_action`` to the next target action —
        e.g. the paper's ``G2`` (GRANT-to-GRANT) and ``U_{k,n}``
        (SIGNAL_k-to-SIGNAL_n)."""

        def triggers(_pre: Hashable, action: Hashable, _post: Hashable) -> bool:
            return action == trigger_action

        return cls(
            name=name,
            interval=interval,
            triggers=triggers,
            in_pi=_as_action_predicate(target_actions),
        )

    @classmethod
    def from_start(
        cls,
        name: str,
        interval: Interval,
        target_actions: Union[Iterable[Hashable], Callable[[Hashable], bool]],
        start_states: Union[None, Iterable[Hashable], Callable[[Hashable], bool]] = None,
    ) -> "TimingCondition":
        """Measured from (all, or the given) start states to the first
        target action — e.g. the paper's ``G1``."""
        starts = _as_state_predicate(start_states) if start_states is not None else (
            lambda _s: True
        )
        return cls(
            name=name,
            interval=interval,
            starts=starts,
            in_pi=_as_action_predicate(target_actions),
        )

    # ------------------------------------------------------------------
    # Bound accessors (paper notation)
    # ------------------------------------------------------------------

    @property
    def lower(self):
        """``b_l``."""
        return self.interval.lo

    @property
    def upper(self):
        """``b_u``."""
        return self.interval.hi

    # ------------------------------------------------------------------
    # Technical requirements (checked at point of use)
    # ------------------------------------------------------------------

    def check_start_state(self, state: Hashable) -> None:
        """Requirement 1: ``T_start ∩ S = ∅`` — assert for this state."""
        if self.starts(state) and self.disables(state):
            raise TimingConditionError(
                "condition {!r}: start state {!r} is both triggering and "
                "disabling".format(self.name, state)
            )

    def check_trigger_step(self, pre: Hashable, action: Hashable, post: Hashable) -> None:
        """Requirement 2: ``(s', π, s) ∈ T_step ⇒ s ∉ S`` — assert for
        this step."""
        if self.triggers(pre, action, post) and self.disables(post):
            raise TimingConditionError(
                "condition {!r}: trigger step ({!r}, {!r}, {!r}) ends in a "
                "disabling state".format(self.name, pre, action, post)
            )

    def __repr__(self) -> str:
        return "TimingCondition({!r}, {!r})".format(self.name, self.interval)


def _as_state_predicate(
    spec: Union[None, Iterable[Hashable], Callable[[Hashable], bool]]
) -> Callable[[Hashable], bool]:
    if spec is None:
        return _never_state
    if callable(spec):
        return spec
    members = frozenset(spec)
    return lambda state: state in members


def _as_action_predicate(
    spec: Union[Iterable[Hashable], Callable[[Hashable], bool]]
) -> Callable[[Hashable], bool]:
    if callable(spec):
        return spec
    members = frozenset(spec)
    return lambda action: action in members


def cond_of_class(timed: TimedAutomaton, cls: PartitionClass) -> TimingCondition:
    """The paper's ``cond(C)`` (Section 2.3): the timing condition a
    boundmap imposes on partition class ``C``.

    - ``T_start(C) = start(A) ∩ enabled(A, C)``
    - ``T_step(C)``: steps ``(s', π, s)`` with ``s ∈ enabled(A, C)`` and
      (``s' ∈ disabled(A, C)`` or ``π ∈ C``)
    - ``Π(C) = C`` and ``S(C) = disabled(A, C)``
    """
    automaton = timed.automaton
    start_set = frozenset(automaton.start_states())

    def starts(state: Hashable) -> bool:
        return state in start_set and automaton.class_enabled(state, cls)

    def triggers(pre: Hashable, action: Hashable, post: Hashable) -> bool:
        if not automaton.class_enabled(post, cls):
            return False
        return action in cls.actions or not automaton.class_enabled(pre, cls)

    def disables(state: Hashable) -> bool:
        return not automaton.class_enabled(state, cls)

    return TimingCondition(
        name=cls.name,
        interval=timed.class_interval(cls),
        starts=starts,
        triggers=triggers,
        in_pi=lambda action: action in cls.actions,
        disables=disables,
    )


def boundmap_conditions(timed: TimedAutomaton) -> Tuple[TimingCondition, ...]:
    """The paper's ``U_b``: one ``cond(C)`` per partition class."""
    return tuple(cond_of_class(timed, cls) for cls in timed.classes())
