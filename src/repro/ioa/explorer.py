"""Reachability exploration and invariant checking for I/O automata.

A breadth-first explorer over the (possibly truncated) reachable state
space, with parent pointers so that invariant violations come with a
concrete counterexample execution.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import AutomatonError
from repro.ioa.automaton import IOAutomaton
from repro.ioa.execution import Execution
from repro.obs import instrument as _telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses ioa)
    from repro.faults.budget import Budget

__all__ = [
    "ExplorationResult",
    "explore",
    "iter_steps",
    "InvariantReport",
    "check_invariant",
]


@dataclass
class ExplorationResult:
    """Outcome of a (possibly truncated) breadth-first exploration."""

    reachable: Set[Hashable]
    transitions_explored: int
    truncated: bool
    #: parent[s] = (predecessor state, action) for counterexample paths.
    parents: Dict[Hashable, Tuple[Optional[Hashable], Optional[Hashable]]] = field(
        default_factory=dict
    )
    #: True when a Budget (not max_states/max_depth) stopped the search.
    exhausted_budget: bool = False

    def path_to(self, state: Hashable) -> Execution:
        """Reconstruct an execution from a start state to ``state``."""
        if state not in self.parents:
            raise AutomatonError("state {!r} was not reached".format(state))
        states: List[Hashable] = [state]
        actions: List[Hashable] = []
        current = state
        while True:
            pred, action = self.parents[current]
            if pred is None:
                break
            states.append(pred)
            actions.append(action)
            current = pred
        states.reverse()
        actions.reverse()
        return Execution(tuple(states), tuple(actions))


def explore(
    automaton: IOAutomaton,
    max_states: int = 100_000,
    max_depth: Optional[int] = None,
    budget: Optional["Budget"] = None,
) -> ExplorationResult:
    """Breadth-first exploration of the reachable states of ``automaton``.

    Stops (and flags ``truncated``) when ``max_states`` distinct states
    have been found or ``max_depth`` levels expanded.  A ``budget``
    additionally caps states, transitions and wall time; budget
    exhaustion returns the partial result with ``exhausted_budget`` set
    rather than raising.
    """
    rec = _telemetry._ACTIVE
    result = ExplorationResult(reachable=set(), transitions_explored=0, truncated=False)
    frontier: deque = deque()
    for s0 in automaton.start_states():
        if s0 not in result.reachable:
            if budget is not None and not budget.charge_state():
                result.truncated = True
                result.exhausted_budget = True
                return result
            result.reachable.add(s0)
            result.parents[s0] = (None, None)
            frontier.append((s0, 0))
    if rec is not None:
        rec.incr("explore.states", len(result.reachable))
    while frontier:
        if rec is not None:
            rec.gauge("explore.frontier", len(frontier))
        state, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            result.truncated = True
            continue
        for action in automaton.enabled_actions(state):
            for post in automaton.transitions(state, action):
                if budget is not None and not budget.charge_step():
                    result.truncated = True
                    result.exhausted_budget = True
                    return result
                result.transitions_explored += 1
                if rec is not None:
                    rec.incr("explore.transitions")
                if post in result.reachable:
                    continue
                if len(result.reachable) >= max_states:
                    result.truncated = True
                    return result
                if budget is not None and not budget.charge_state():
                    result.truncated = True
                    result.exhausted_budget = True
                    return result
                result.reachable.add(post)
                result.parents[post] = (state, action)
                if rec is not None:
                    rec.incr("explore.states")
                frontier.append((post, depth + 1))
    return result


def iter_steps(
    automaton: IOAutomaton, states: Iterable[Hashable]
) -> Iterable[Tuple[Hashable, Hashable, Hashable]]:
    """All steps ``(pre, action, post)`` of ``automaton`` whose
    pre-state lies in ``states`` — typically the reachable set of an
    :func:`explore` call.  Used by invariant-style checks (e.g. the lint
    pass) that quantify over reachable steps."""
    for state in states:
        for action in automaton.enabled_actions(state):
            for post in automaton.transitions(state, action):
                yield (state, action, post)


@dataclass(frozen=True)
class InvariantReport:
    """The result of an invariant check."""

    holds: bool
    states_checked: int
    truncated: bool
    counterexample: Optional[Execution] = None
    #: True when a Budget stopped the check before the frontier emptied;
    #: ``holds`` then covers only the states actually visited.
    exhausted_budget: bool = False

    def __bool__(self) -> bool:
        return self.holds


def check_invariant(
    automaton: IOAutomaton,
    predicate: Callable[[Hashable], bool],
    max_states: int = 100_000,
    max_depth: Optional[int] = None,
    budget: Optional["Budget"] = None,
) -> InvariantReport:
    """Check ``predicate`` on every reachable state (up to the limits).

    On a violation, returns a report carrying a shortest-path
    counterexample execution.  With a ``budget``, exhaustion yields a
    partial ``holds=True`` report flagged ``exhausted_budget`` — the
    invariant held on everything visited, but the check is inconclusive.
    """
    rec = _telemetry._ACTIVE
    result = ExplorationResult(reachable=set(), transitions_explored=0, truncated=False)
    frontier: deque = deque()
    checked = 0
    for s0 in automaton.start_states():
        if s0 in result.reachable:
            continue
        if budget is not None and not budget.charge_state():
            return InvariantReport(True, checked, True, None, exhausted_budget=True)
        result.reachable.add(s0)
        result.parents[s0] = (None, None)
        checked += 1
        if rec is not None:
            rec.incr("explore.states")
        if not predicate(s0):
            return InvariantReport(False, checked, False, result.path_to(s0))
        frontier.append((s0, 0))
    truncated = False
    while frontier:
        if rec is not None:
            rec.gauge("explore.frontier", len(frontier))
        state, depth = frontier.popleft()
        if max_depth is not None and depth >= max_depth:
            truncated = True
            continue
        for action in automaton.enabled_actions(state):
            for post in automaton.transitions(state, action):
                if budget is not None and not budget.charge_step():
                    return InvariantReport(True, checked, True, None, exhausted_budget=True)
                if rec is not None:
                    rec.incr("explore.transitions")
                if post in result.reachable:
                    continue
                if len(result.reachable) >= max_states:
                    return InvariantReport(True, checked, True, None)
                if budget is not None and not budget.charge_state():
                    return InvariantReport(True, checked, True, None, exhausted_budget=True)
                result.reachable.add(post)
                result.parents[post] = (state, action)
                checked += 1
                if rec is not None:
                    rec.incr("explore.states")
                if not predicate(post):
                    return InvariantReport(False, checked, truncated, result.path_to(post))
                frontier.append((post, depth + 1))
    return InvariantReport(True, checked, truncated, None)
