"""Discrete-event generation of executions of ``time(A, U)``.

The simulator walks the predictive automaton: at each state it collects
the schedulable actions and their time windows (which already respect
every ``Ft`` lower bound and every ``Lt`` deadline), lets a
:class:`~repro.sim.strategies.Strategy` choose the next timed action,
and appends the step.  Every produced run is, by construction, an
execution of ``time(A, U)``; its projection is therefore a timed
semi-execution of ``(A, U)`` (Lemma 3.2), and growing prefixes
approximate the admissible infinite executions (Lemma 3.1).

A state with a finite deadline but no schedulable action means the
modelled system cannot meet its own timing conditions; the simulator
raises :class:`SchedulingDeadlockError` rather than silently stopping.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Optional

from repro.errors import SchedulingDeadlockError
from repro.obs import instrument as _telemetry
from repro.timed.interval import render_time
from repro.timed.timed_sequence import TimedEvent, TimedSequence
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState
from repro.sim.strategies import Strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses sim)
    from repro.faults.budget import Budget

__all__ = ["Simulator", "simulate"]


class Simulator:
    """Generates runs of a :class:`PredictiveTimeAutomaton`."""

    def __init__(self, automaton: PredictiveTimeAutomaton, strategy: Strategy):
        self.automaton = automaton
        self.strategy = strategy

    def run(
        self,
        max_steps: int,
        horizon=None,
        start_astate: Optional[Hashable] = None,
        from_state: Optional[TimeState] = None,
        budget: Optional["Budget"] = None,
    ) -> TimedSequence:
        """Produce a run of up to ``max_steps`` events.

        Stops early when model time passes ``horizon``, or when the
        automaton is quiescent (no schedulable action *and* no pending
        deadline).  ``from_state`` continues from an arbitrary state
        (used by the completeness estimators); otherwise the run begins
        in the start state over ``start_astate`` (default: the unique
        start state of the base automaton).

        A ``budget`` caps the number of steps and the wall time: on
        exhaustion the run produced so far is returned (a valid, partial
        execution) and ``budget.exhausted`` tells the caller why it is
        short.
        """
        rec = _telemetry._ACTIVE
        state = self._initial_state(start_astate, from_state)
        # Grown in lists and checked once as a TimedSequence at the end:
        # extending a sequence per step would copy and re-check it.
        states = [state]
        events = []
        reason = "max_steps"
        for _ in range(max_steps):
            if budget is not None and not budget.charge_step():
                reason = "budget"
                break  # partial run; budget.exhausted explains the cut
            if horizon is not None and state.now >= horizon:
                reason = "horizon"
                break
            options = self.automaton.schedulable_actions(state)
            if not options:
                deadline = self.automaton.deadline(state)
                if math.isinf(deadline):
                    reason = "quiescent"
                    break  # quiescent: nothing to do, no obligation pending
                expired = ", ".join(
                    cond.name
                    for cond, pred in zip(self.automaton.conditions, state.preds)
                    if pred.lt == deadline
                )
                if rec is not None:
                    rec.event(
                        "sim.deadlock",
                        automaton=self.automaton.name,
                        state=repr(state),
                        condition=expired or None,
                        deadline=deadline,
                        steps=len(events),
                    )
                raise SchedulingDeadlockError(
                    "{}: no schedulable action in {!r} but deadline {} of "
                    "{} is pending".format(
                        self.automaton.name,
                        state,
                        render_time(deadline),
                        expired or "<unknown>",
                    ),
                    state=state,
                    condition=expired or None,
                    deadline=deadline,
                )
            action, t = self.strategy.choose(state, options)
            if rec is not None:
                rec.incr("sim.steps")
                for cond, pred in zip(self.automaton.conditions, state.preds):
                    lt = pred.lt
                    if not (isinstance(lt, float) and math.isinf(lt)):
                        rec.gauge("sim.slack." + cond.name, lt - t)
                rec.event("sim.step", action=action, time=t)
            posts = self.automaton.successors(state, action, t)
            if not posts:
                if rec is not None:
                    rec.event(
                        "sim.deadlock",
                        automaton=self.automaton.name,
                        state=repr(state),
                        condition=None,
                        deadline=None,
                        action=action,
                        time=t,
                        steps=len(events),
                    )
                raise SchedulingDeadlockError(
                    "{}: strategy chose infeasible step ({!r}, {}) in "
                    "{!r}".format(self.automaton.name, action, render_time(t), state),
                    state=state,
                )
            state = self.strategy.pick_post(posts)
            states.append(state)
            events.append(TimedEvent(action, t))
        if rec is not None:
            rec.event("sim.end", reason=reason, steps=len(events), now=state.now)
        return TimedSequence(states, events)

    def _initial_state(
        self, start_astate: Optional[Hashable], from_state: Optional[TimeState]
    ) -> TimeState:
        if from_state is not None:
            return from_state
        if start_astate is not None:
            return self.automaton.initial(start_astate)
        starts = list(self.automaton.base.start_states())
        if len(starts) != 1:
            raise SchedulingDeadlockError(
                "{} has {} start states; pass start_astate".format(
                    self.automaton.base.name, len(starts)
                )
            )
        return self.automaton.initial(starts[0])


def simulate(
    automaton: PredictiveTimeAutomaton,
    strategy: Strategy,
    max_steps: int,
    horizon=None,
) -> TimedSequence:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(automaton, strategy).run(max_steps=max_steps, horizon=horizon)
