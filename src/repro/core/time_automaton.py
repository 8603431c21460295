"""The general ``time(A, U)`` construction (paper Section 3.1).

Given an I/O automaton ``A`` and a set ``U`` of timing conditions,
``time(A, U)`` is an ordinary I/O automaton over actions ``(π, t)``
whose state carries the predictive components ``Ct`` and
``Ft(U)/Lt(U)``.  Steps enforce, literally, conditions 1–4 of the
paper's definition:

1. ``(s'.As, π, s.As)`` is a step of ``A``;
2. ``s'.Ct ≤ t = s.Ct``;
3. for ``π ∈ Π(U)``: ``Ft ≤ t ≤ Lt``, and the prediction is refreshed
   on trigger steps or reset to the default otherwise;
4. for ``π ∉ Π(U)``: ``t ≤ Lt``, trigger steps impose
   ``(t + b_l, min(Lt, t + b_u))``, disabling steps reset to the
   default, and other steps leave the prediction unchanged.

Because its actions carry a real-valued time, ``time(A, U)`` is not an
enumerable :class:`~repro.ioa.automaton.IOAutomaton`; it exposes its own
step API (:meth:`successors`, :meth:`is_step`, :meth:`time_window`).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TimingConditionError, TimingViolationError
from repro.ioa.automaton import IOAutomaton
from repro.timed.boundmap import TimedAutomaton
from repro.timed.conditions import TimingCondition, boundmap_conditions
from repro.timed.interval import render_time
from repro.timed.timed_sequence import TimedSequence
from repro.core.time_state import DEFAULT_PREDICTION, Prediction, TimeState

__all__ = ["PredictiveTimeAutomaton", "time_of_conditions", "time_of_boundmap"]


class PredictiveTimeAutomaton:
    """The automaton ``time(A, U)`` for a fixed condition tuple ``U``."""

    def __init__(
        self,
        base: IOAutomaton,
        conditions: Sequence[TimingCondition],
        name: Optional[str] = None,
    ):
        self.base = base
        self.conditions: Tuple[TimingCondition, ...] = tuple(conditions)
        names = [c.name for c in self.conditions]
        if len(set(names)) != len(names):
            raise TimingConditionError(
                "condition names must be unique, got {!r}".format(names)
            )
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(self.conditions)}
        self._pi_flags: Dict[Hashable, Tuple[bool, ...]] = {}
        self.name = name or "time({}, {})".format(base.name, names)
        #: The ``(A, b)`` this automaton is ``time(A, b)`` of, when it
        #: was built by :func:`time_of_boundmap`; its zone graph is then
        #: an exact description of the reachable states.
        self.timed: Optional[TimedAutomaton] = None

    # ------------------------------------------------------------------
    # Condition/state component access
    # ------------------------------------------------------------------

    def index_of(self, condition_name: str) -> int:
        """Position of a condition in state ``preds`` tuples."""
        try:
            return self._index[condition_name]
        except KeyError:
            raise TimingConditionError(
                "{} has no condition named {!r}".format(self.name, condition_name)
            ) from None

    def condition(self, condition_name: str) -> TimingCondition:
        return self.conditions[self.index_of(condition_name)]

    def ft(self, state: TimeState, condition_name: str):
        """``state.Ft(U)`` by condition name."""
        return state.preds[self.index_of(condition_name)].ft

    def lt(self, state: TimeState, condition_name: str):
        """``state.Lt(U)`` by condition name."""
        return state.preds[self.index_of(condition_name)].lt

    # ------------------------------------------------------------------
    # Start states
    # ------------------------------------------------------------------

    def initial(self, astate: Hashable) -> TimeState:
        """The start state of ``time(A, U)`` over the start state
        ``astate`` of ``A``: triggered conditions predict
        ``(b_l, b_u)``; others hold the default ``(0, ∞)``."""
        preds: List[Prediction] = []
        for cond in self.conditions:
            if cond.starts(astate):
                cond.check_start_state(astate)
                preds.append(Prediction(cond.lower, cond.upper))
            else:
                preds.append(DEFAULT_PREDICTION)
        return TimeState(astate, 0, tuple(preds))

    def start_states(self) -> Iterable[TimeState]:
        for astate in self.base.start_states():
            yield self.initial(astate)

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def _in_pi(self, action: Hashable) -> Tuple[bool, ...]:
        """``action ∈ Π(U)`` for each condition, in condition order.
        ``Π(U)`` is a fixed action set, so the flags are computed once
        per action and memoised on the instance."""
        flags = self._pi_flags.get(action)
        if flags is None:
            flags = tuple(bool(cond.in_pi(action)) for cond in self.conditions)
            self._pi_flags[action] = flags
        return flags

    def time_violation(self, state: TimeState, action: Hashable, t) -> Optional[str]:
        """The reason ``(action, t)`` is time-forbidden in ``state``, or
        None when conditions 2, 3(a) and 4(a) all hold."""
        if t < state.now:
            return "time {} precedes Ct = {}".format(render_time(t), render_time(state.now))
        for cond, pred, in_pi in zip(self.conditions, state.preds, self._in_pi(action)):
            if in_pi:
                if not (pred.ft <= t <= pred.lt):
                    return "condition {!r} requires t in [{}, {}], got {}".format(
                        cond.name, render_time(pred.ft), render_time(pred.lt), render_time(t)
                    )
            elif t > pred.lt:
                return (
                    "condition {!r} requires an earlier Π event by Lt = {}, "
                    "but t = {}".format(cond.name, render_time(pred.lt), render_time(t))
                )
        return None

    def _next_prediction(
        self,
        cond: TimingCondition,
        pred: Prediction,
        in_pi: bool,
        pre_astate: Hashable,
        action: Hashable,
        post_astate: Hashable,
        t,
    ) -> Prediction:
        """Conditions 3(b)–(c) and 4(b)–(d) for one condition."""
        trigger = cond.triggers(pre_astate, action, post_astate)
        if trigger:
            cond.check_trigger_step(pre_astate, action, post_astate)
        if in_pi:
            if trigger:
                return Prediction(t + cond.lower, t + cond.upper)
            return DEFAULT_PREDICTION
        if trigger:
            return Prediction(t + cond.lower, min(pred.lt, t + cond.upper))
        if cond.disables(post_astate):
            return DEFAULT_PREDICTION
        return pred

    def successors(self, state: TimeState, action: Hashable, t) -> List[TimeState]:
        """All post-states of the timed action ``(action, t)``; empty when
        the action is not enabled (in ``A`` or time-wise)."""
        if self.time_violation(state, action, t) is not None:
            return []
        return self._posts(state, action, t)

    def _posts(self, state: TimeState, action: Hashable, t) -> List[TimeState]:
        """The post-states of ``(action, t)``, whose time window the
        caller has already checked."""
        posts: List[TimeState] = []
        seen = set()
        flags = self._in_pi(action)
        for post_astate in self.base.transitions(state.astate, action):
            if post_astate in seen:
                continue
            seen.add(post_astate)
            preds = tuple(
                self._next_prediction(cond, pred, in_pi, state.astate, action, post_astate, t)
                for cond, pred, in_pi in zip(self.conditions, state.preds, flags)
            )
            posts.append(TimeState(post_astate, t, preds))
        return posts

    def successor(self, state: TimeState, action: Hashable, t) -> TimeState:
        """The unique post-state; raises :class:`TimingViolationError`
        with the violated clause when the step is forbidden, and fails
        when ``A`` is nondeterministic here (use
        :meth:`successor_matching` then)."""
        reason = self.time_violation(state, action, t)
        if reason is not None:
            raise TimingViolationError(
                "{}: ({!r}, {}) not enabled in {!r}: {}".format(
                    self.name, action, render_time(t), state, reason
                )
            )
        posts = self._posts(state, action, t)
        if not posts:
            raise TimingViolationError(
                "{}: action {!r} is not enabled in A-state {!r}".format(
                    self.name, action, state.astate
                )
            )
        if len(posts) > 1:
            raise TimingViolationError(
                "{}: action {!r} is nondeterministic in A-state {!r}; use "
                "successor_matching".format(self.name, action, state.astate)
            )
        return posts[0]

    def successor_matching(
        self, state: TimeState, action: Hashable, t, post_astate: Hashable
    ) -> TimeState:
        """The post-state whose ``A``-component equals ``post_astate`` —
        the step the mapping proofs construct ("apply the time(A, V)
        definition to u', matching the A-step")."""
        for post in self.successors(state, action, t):
            if post.astate == post_astate:
                return post
        reason = self.time_violation(state, action, t)
        raise TimingViolationError(
            "{}: no step ({!r}, {}) from {!r} reaching A-state {!r}{}".format(
                self.name,
                action,
                render_time(t),
                state,
                post_astate,
                "" if reason is None else " ({})".format(reason),
            )
        )

    def is_step(self, pre: TimeState, action: Hashable, t, post: TimeState) -> bool:
        """True if ``(pre, (action, t), post)`` is a step of ``time(A, U)``."""
        return any(post == candidate for candidate in self.successors(pre, action, t))

    # ------------------------------------------------------------------
    # Scheduling helpers (used by the simulator and the discretizer)
    # ------------------------------------------------------------------

    def deadline(self, state: TimeState):
        """``min_U Lt(U)``: no event may occur later, and if finite, some
        event *must* occur by then (the liveness half of an upper bound)."""
        current = math.inf
        for pred in state.preds:
            if pred.lt < current:
                current = pred.lt
        return current

    def time_window(self, state: TimeState, action: Hashable) -> Optional[Tuple[object, object]]:
        """The interval of times at which ``action`` may occur next, or
        None when the window is empty.  Lower end: ``Ct`` and every
        ``Ft(U)`` with ``π ∈ Π(U)``; upper end: every ``Lt(U)``."""
        lo = state.now
        hi = self.deadline(state)
        for pred, in_pi in zip(state.preds, self._in_pi(action)):
            if in_pi and pred.ft > lo:
                lo = pred.ft
        if lo > hi:
            return None
        return (lo, hi)

    def schedulable_actions(self, state: TimeState) -> List[Tuple[Hashable, object, object]]:
        """The actions enabled in ``state.astate`` whose time window is
        non-empty, with their windows: ``[(action, lo, hi), …]``."""
        result = []
        for action in self.base.enabled_actions(state.astate):
            window = self.time_window(state, action)
            if window is not None:
                result.append((action, window[0], window[1]))
        return result

    def __repr__(self) -> str:
        return "<PredictiveTimeAutomaton {}>".format(self.name)


def time_of_conditions(
    base: IOAutomaton,
    conditions: Sequence[TimingCondition],
    name: Optional[str] = None,
) -> PredictiveTimeAutomaton:
    """Build ``time(A, U)`` from an automaton and conditions."""
    return PredictiveTimeAutomaton(base, conditions, name=name)


def time_of_boundmap(timed: TimedAutomaton, name: Optional[str] = None) -> PredictiveTimeAutomaton:
    """The special case ``time(A, b) = time(A, U_b)`` (Section 3.2),
    instantiating the general construction on the boundmap conditions."""
    automaton = PredictiveTimeAutomaton(
        timed.automaton,
        boundmap_conditions(timed),
        name=name or "time({}, b)".format(timed.automaton.name),
    )
    automaton.timed = timed
    return automaton
