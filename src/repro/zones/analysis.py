"""Exact event-separation bounds via zone reachability.

Answers the questions the paper's theorems pose — "over *all* timed
executions, how early/late can the ``m``-th occurrence of this event
come, measured from that other event?" — exactly, by reading observer
clock bounds off the zone at fire time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Optional, Tuple

from repro.errors import ZoneError
from repro.obs import instrument as _telemetry
from repro.timed.boundmap import TimedAutomaton
from repro.timed.interval import Interval
from repro.zones.zone_graph import Observer, ZoneGraphResult, explore_zone_graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses zones)
    from repro.faults.budget import Budget

__all__ = [
    "SeparationBounds",
    "event_separation_bounds",
    "absolute_event_bounds",
    "find_reachable_state",
    "SafetySearchResult",
    "search_reachable_state",
]


@dataclass(frozen=True)
class SeparationBounds:
    """Exact reachable bounds of an event-separation time.

    ``lo``/``hi`` are the extreme values over every timed execution;
    ``lo_strict``/``hi_strict`` record whether the extreme is attained
    (False) or only approached (True).  ``hi`` may be ``inf``.

    ``exhausted_budget`` marks *partial* bounds: the zone exploration
    was cut short by a :class:`~repro.faults.budget.Budget`, so the
    bounds cover only the firings found — still sound evidence for
    refutation (any firing outside a claim refutes it) but not for
    verification.
    """

    lo: object
    hi: object
    lo_strict: bool
    hi_strict: bool
    nodes: int
    transitions: int
    exhausted_budget: bool = False

    def within(self, interval: Interval) -> bool:
        """True when every reachable separation lies inside ``interval``
        (the paper's claimed bound is *sound*)."""
        if self.lo < interval.lo:
            return False
        if isinstance(self.hi, float) and math.isinf(self.hi):
            return math.isinf(interval.hi)
        return self.hi <= interval.hi

    def tight(self, interval: Interval) -> bool:
        """True when the claimed bound is also *attained* at both ends
        (the paper's interval is exact, not just sound)."""
        return (
            self.within(interval)
            and self.lo == interval.lo
            and not self.lo_strict
            and (
                self.hi == interval.hi
                or (math.isinf(interval.hi) and isinstance(self.hi, float) and math.isinf(self.hi))
            )
            and not self.hi_strict
        )

    def __str__(self) -> str:
        """The bounds as an interval, ``(`` or ``)`` at an end that is
        only approached: ``[6, 10]``."""
        from repro.timed.interval import render_time

        return "{}{}, {}{}".format(
            "(" if self.lo_strict else "[",
            render_time(self.lo),
            render_time(self.hi),
            ")" if self.hi_strict else "]",
        )

    def __repr__(self) -> str:
        return "SeparationBounds" + str(self)


def event_separation_bounds(
    timed: TimedAutomaton,
    measure: Hashable,
    occurrence: int = 1,
    reset_on: Iterable[Hashable] = (),
    max_nodes: int = 100_000,
    budget: Optional["Budget"] = None,
) -> SeparationBounds:
    """Exact bounds of the time at which ``measure`` fires for the
    ``occurrence``-th time, measured by an observer clock reset on each
    action in ``reset_on`` (empty: absolute time since the start).

    Without a ``budget``, truncation raises :class:`ZoneError` as
    before.  With one, budget exhaustion degrades gracefully: if any
    firing was recorded, the partial bounds are returned flagged
    ``exhausted_budget``; only when *nothing* was measured does the
    call raise.
    """
    if occurrence < 1:
        raise ZoneError("occurrence is 1-based")
    observer = Observer("obs", frozenset(reset_on))
    if isinstance(measure, (set, frozenset, list, tuple)):
        # A group: the occurrence-th firing of *any* member action.
        key = "group"
        counted_kwargs = {
            "counted_groups": {key: (frozenset(measure), occurrence)}
        }
    else:
        key = measure
        counted_kwargs = {"counted_actions": {measure: occurrence}}
    _telemetry.incr("zones.queries")
    with _telemetry.span("zones.query"):
        result = explore_zone_graph(
            timed,
            observers=[observer],
            max_nodes=max_nodes,
            budget=budget,
            **counted_kwargs,
        )
    record = result.firings.get((key, occurrence))
    if result.truncated and not (result.exhausted_budget and record is not None):
        raise ZoneError(
            "zone exploration truncated at {} nodes{}".format(
                result.nodes,
                " (budget exhausted before any firing)"
                if result.exhausted_budget
                else "; raise max_nodes",
            )
        )
    if record is None:
        raise ZoneError(
            "action {!r} never reaches occurrence {} in any execution".format(
                measure, occurrence
            )
        )
    (lo_value, lo_flag) = record.lower["obs"]
    (hi_value, hi_flag) = record.upper["obs"]
    return SeparationBounds(
        lo=lo_value,
        hi=hi_value,
        lo_strict=(lo_flag == -1),
        hi_strict=(hi_flag == -1),
        nodes=result.nodes,
        transitions=result.transitions,
        exhausted_budget=result.exhausted_budget,
    )


@dataclass(frozen=True)
class SafetySearchResult:
    """Outcome of a budget-guarded timed safety search.

    ``state`` is a reachable bad state (None when none was found);
    ``exhausted_budget``/``truncated`` qualify a ``None``: the absence
    proof is complete only when both are False.
    """

    state: Optional[Hashable]
    nodes: int
    truncated: bool
    exhausted_budget: bool

    @property
    def conclusive(self) -> bool:
        """A found state is always conclusive; a clean sweep is
        conclusive only if nothing cut the search short."""
        return self.state is not None or not self.truncated

    def __bool__(self) -> bool:
        """True when a bad state was found."""
        return self.state is not None


def search_reachable_state(
    timed: TimedAutomaton,
    predicate,
    max_nodes: int = 200_000,
    budget: Optional["Budget"] = None,
) -> SafetySearchResult:
    """Budget-guarded variant of :func:`find_reachable_state`: never
    raises on truncation, returning a :class:`SafetySearchResult` whose
    ``conclusive`` property distinguishes "proved unreachable" from
    "ran out of budget"."""
    _telemetry.incr("zones.queries")
    with _telemetry.span("zones.query"):
        result = explore_zone_graph(
            timed,
            watch=predicate,
            stop_on_watch=True,
            max_nodes=max_nodes,
            budget=budget,
        )
    return SafetySearchResult(
        state=result.watched[0] if result.watched else None,
        nodes=result.nodes,
        truncated=result.truncated,
        exhausted_budget=result.exhausted_budget,
    )


def find_reachable_state(
    timed: TimedAutomaton,
    predicate,
    max_nodes: int = 200_000,
) -> Optional[Hashable]:
    """Exact timed safety check: the first reachable ``A``-state
    satisfying ``predicate`` (under the *timed* semantics — states that
    are only untimed-reachable do not count), or None when no such state
    is reachable.

    This is how timing-dependent safety properties like Fischer-style
    mutual exclusion are decided: unreachability of the bad states under
    one timing discipline, reachability under another.
    """
    result = search_reachable_state(timed, predicate, max_nodes=max_nodes)
    if result.state is not None:
        return result.state
    if result.truncated:
        raise ZoneError(
            "safety check inconclusive: truncated at {} nodes".format(result.nodes)
        )
    return None


def absolute_event_bounds(
    timed: TimedAutomaton,
    measure: Hashable,
    occurrence: int = 1,
    max_nodes: int = 100_000,
    budget: Optional["Budget"] = None,
) -> SeparationBounds:
    """Exact bounds of the absolute time of an event's ``occurrence``-th
    firing (observer never reset)."""
    return event_separation_bounds(
        timed,
        measure,
        occurrence=occurrence,
        reset_on=(),
        max_nodes=max_nodes,
        budget=budget,
    )
