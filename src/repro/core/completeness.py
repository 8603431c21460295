"""The completeness construction (paper Section 7, Theorem 7.1).

If every timed execution of ``(A, b)`` satisfies the conditions ``U``,
then the *canonical* mapping

    ``u ∈ f(s)  ⇔  ∀Ũ: u.Lt(Ũ) ≥ sup { first_Ũ(α) | α ∈ Ext(s) }``
    ``           and  u.Ft(Ũ) ≤ inf { first_ΠŨ(α) | α ∈ Ext(s) }``

is a strong possibilities mapping from ``time(Ã, b̃)`` to
``time(Ã, Ũ)``.  Here ``Ext(s)`` is the set of admissible extensions of
``s``, ``first_Ũ`` is the first time an action of ``Π(Ũ)`` *or* a state
of ``S(Ũ)`` occurs, and ``first_ΠŨ`` is the first time a ``Π(Ũ)``
action occurs with no earlier ``S(Ũ)`` state.

The suprema/infima over the (uncountable) extension set are not
computable in general; this module provides two estimators:

- :class:`ExhaustiveFirstEstimator` — exact for the rational-grid
  semantics, by memoised search over all grid extensions;
- :class:`SamplingFirstEstimator` — Monte-Carlo over simulated
  extensions, to be combined with slack in :class:`CanonicalMapping`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import SchedulingDeadlockError
from repro.timed.conditions import TimingCondition
from repro.core.discretize import discrete_options
from repro.core.mappings import StrongPossibilitiesMapping
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState
from repro.timed.interval import render_time

__all__ = [
    "ExhaustiveFirstEstimator",
    "SamplingFirstEstimator",
    "CanonicalMapping",
]


class ExhaustiveFirstEstimator:
    """Exact ``sup first`` / ``inf first_Π`` over all grid extensions.

    ``window`` is the look-ahead beyond ``state.now``; choose it larger
    than every finite deadline of the conditions of interest, so that
    any triggered obligation resolves inside the window (beyond it the
    estimator reports ``∞``, which is exact for never-resolving
    branches and safely over-approximate otherwise).

    Cycles can only occur at a constant ``now`` (every time-advancing
    step leads to a fresh state); extensions looping forever at constant
    time are not admissible, so in-progress revisits are ignored.
    """

    def __init__(
        self,
        automaton: PredictiveTimeAutomaton,
        grid,
        window,
    ):
        self.automaton = automaton
        self.grid = grid
        self.window = window

    def first_bounds(self, state: TimeState, condition: TimingCondition):
        """``(sup first_Ũ, inf first_ΠŨ)`` from ``state``."""
        cap = state.now + self.window
        sup_memo: Dict[TimeState, Optional[object]] = {}
        inf_memo: Dict[TimeState, Optional[object]] = {}
        sup = self._sup_first(state, condition, cap, sup_memo, set())
        inf = self._inf_first_pi(state, condition, cap, inf_memo, set())
        return (math.inf if sup is None else sup, math.inf if inf is None else inf)

    def _successor_steps(self, state: TimeState, cap):
        for action, t in discrete_options(self.automaton, state, self.grid, cap):
            for post in self.automaton.successors(state, action, t):
                yield action, t, post

    def _sup_first(self, state, condition, cap, memo, stack):
        if condition.disables(state.astate):
            return state.now
        if state.now > cap:
            return math.inf
        if state in memo:
            return memo[state]
        if state in stack:
            return None  # constant-time cycle: not an admissible suffix
        stack.add(state)
        best = None
        saw_step = False
        for action, t, post in self._successor_steps(state, cap):
            if post == state:
                continue  # timed self-loop, never the whole suffix
            saw_step = True
            if condition.in_pi(action) or condition.disables(post.astate):
                candidate = t
            else:
                candidate = self._sup_first(post, condition, cap, memo, stack)
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        stack.discard(state)
        if not saw_step:
            best = self._no_step_value(state)
        memo[state] = best
        return best

    def _no_step_value(self, state):
        """Value when no grid step exists inside the window: ``∞`` when
        the state is quiescent or its next events lie beyond the
        look-ahead cap (unresolved); a refinement error only when the
        continuous automaton itself is stuck against a deadline."""
        if self.automaton.schedulable_actions(state):
            return math.inf  # events exist, but beyond the cap: unresolved
        if math.isinf(self.automaton.deadline(state)):
            return math.inf  # quiescent: no event ever occurs
        raise SchedulingDeadlockError(
            "no step from {!r} despite a finite deadline; refine the "
            "grid".format(state)
        )

    def _inf_first_pi(self, state, condition, cap, memo, stack):
        if condition.disables(state.astate):
            return math.inf  # an S-state precedes any Π action
        if state.now > cap:
            return math.inf
        if state in memo:
            return memo[state]
        if state in stack:
            return None
        stack.add(state)
        best = None
        saw_step = False
        for action, t, post in self._successor_steps(state, cap):
            if post == state:
                continue
            saw_step = True
            if condition.in_pi(action):
                candidate = t
            elif condition.disables(post.astate):
                candidate = math.inf
            else:
                candidate = self._inf_first_pi(post, condition, cap, memo, stack)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        stack.discard(state)
        if not saw_step:
            best = self._no_step_value(state)
        memo[state] = best
        return best


class SamplingFirstEstimator:
    """Monte-Carlo ``sup``/``inf`` estimates over simulated extensions.

    Under-approximates the supremum and over-approximates the infimum;
    pair with slack in :class:`CanonicalMapping`.  Results are memoised
    per (state, condition) so repeated containment checks stay cheap.
    """

    def __init__(self, automaton, strategy_factory, runs: int = 20, max_steps: int = 400):
        self.automaton = automaton
        self.strategy_factory = strategy_factory
        self.runs = runs
        self.max_steps = max_steps
        self._memo: Dict[Tuple[TimeState, str], Tuple[object, object]] = {}

    def first_bounds(self, state: TimeState, condition: TimingCondition):
        key = (state, condition.name)
        if key in self._memo:
            return self._memo[key]
        from repro.sim.scheduler import Simulator  # local import: sim builds on core

        if condition.disables(state.astate):
            result = (state.now, math.inf)
            self._memo[key] = result
            return result
        sup_estimate = None
        inf_estimate = None
        for seed in range(self.runs):
            simulator = Simulator(self.automaton, self.strategy_factory(seed))
            run = simulator.run(max_steps=self.max_steps, from_state=state)
            first_u, first_pi = _firsts_along(run, condition)
            if first_u is not None and (sup_estimate is None or first_u > sup_estimate):
                sup_estimate = first_u
            if inf_estimate is None or first_pi < inf_estimate:
                inf_estimate = first_pi
        result = (
            math.inf if sup_estimate is None else sup_estimate,
            math.inf if inf_estimate is None else inf_estimate,
        )
        self._memo[key] = result
        return result


def _firsts_along(run, condition):
    """``(first_Ũ, first_ΠŨ)`` along one concrete extension (the run's
    start state is the extension's ``s_0``); ``first_Ũ`` is None when
    unresolved within the run."""
    first_u = None
    first_pi = math.inf
    disabling_seen = False
    for _pre, event, post in run.triples():
        hit_pi = condition.in_pi(event.action)
        hit_s = condition.disables(post.astate)
        if first_u is None and (hit_pi or hit_s):
            first_u = event.time
        if not disabling_seen and hit_pi:
            first_pi = event.time
            break
        if hit_s:
            disabling_seen = True
        if first_u is not None and disabling_seen:
            break
    return first_u, first_pi


class CanonicalMapping(StrongPossibilitiesMapping):
    """The Theorem 7.1 mapping, with pluggable ``first`` estimators.

    ``upper_slack``/``lower_slack`` relax the two inequalities to absorb
    estimation error when a sampling estimator is used; keep them at 0
    with :class:`ExhaustiveFirstEstimator`.
    """

    def __init__(
        self,
        source: PredictiveTimeAutomaton,
        target: PredictiveTimeAutomaton,
        estimator,
        upper_slack=0,
        lower_slack=0,
        name: Optional[str] = None,
    ):
        super().__init__(source, target, name=name or "canonical")
        self.estimator = estimator
        self.upper_slack = upper_slack
        self.lower_slack = lower_slack

    def image_contains(self, target_state: TimeState, source_state: TimeState) -> bool:
        for cond in self.target.conditions:
            sup_first, inf_first_pi = self.estimator.first_bounds(source_state, cond)
            lt = self.target.lt(target_state, cond.name)
            ft = self.target.ft(target_state, cond.name)
            if not math.isinf(sup_first) and lt < sup_first - self.upper_slack:
                return False
            if math.isinf(sup_first) and not math.isinf(lt):
                return False
            if ft > inf_first_pi + self.lower_slack:
                return False
        return True

    def describe_failure(self, target_state: TimeState, source_state: TimeState) -> str:
        if target_state.astate != source_state.astate:
            return super().describe_failure(target_state, source_state)
        problems = []
        for cond in self.target.conditions:
            sup_first, inf_first_pi = self.estimator.first_bounds(source_state, cond)
            lt = self.target.lt(target_state, cond.name)
            ft = self.target.ft(target_state, cond.name)
            if (not math.isinf(sup_first) and lt < sup_first - self.upper_slack) or (
                math.isinf(sup_first) and not math.isinf(lt)
            ):
                problems.append(
                    "{}: Lt = {} < sup first = {}".format(
                        cond.name, render_time(lt), render_time(sup_first)
                    )
                )
            if ft > inf_first_pi + self.lower_slack:
                problems.append(
                    "{}: Ft = {} > inf first_Π = {}".format(
                        cond.name, render_time(ft), render_time(inf_first_pi)
                    )
                )
        return "; ".join(problems) or "no violated inequality (?)"


def state_cap(state: TimeState, window):
    """Absolute horizon for look-ahead from ``state``."""
    return state.now + window
