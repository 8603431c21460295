"""Closed-form bound derivation (paper Theorem 6.4, the ``B_k``
hierarchy).

The third static pass constant-folds boundmaps through chain/relay
composition: an ``n``-stage relay with per-hop bound ``[d1, d2]`` has
the end-to-end bound ``[n·d1, n·d2]``, each intermediate ``U_{k,n}``
carries ``[(n−k)·d1, (n−k)·d2]``, and a heterogeneous chain carries
Minkowski partial sums.  Every derived bound is compared against the
bound the system actually *declares* (requirement intervals, params
properties) — a mismatch is a specification bug surfaced by lint rule
R019, a match is a statically-proved Theorem 6.4 instance.

The same fold yields each system's closed-form perturbation tolerance
``ε* = (hi − lo) / (hi + lo)`` of its critical interval: the largest
uniform tightening factor that keeps the slowest-case lower bound under
the fastest-case upper bound.  These are cross-checked against the
exploratory tolerance analyzer in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.errors import AnalyzeError
from repro.timed.interval import Interval

__all__ = ["DerivedBound", "derived_bounds", "closed_form_tolerance"]


@dataclass(frozen=True)
class DerivedBound:
    """One statically-derived bound, paired with its declared twin."""

    system: str
    label: str
    derived: Interval
    declared: Interval
    detail: str = ""

    @property
    def agrees(self) -> bool:
        return self.derived == self.declared

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "label": self.label,
            "derived": repr(self.derived),
            "declared": repr(self.declared),
            "agrees": self.agrees,
            "detail": self.detail,
        }


def _fold(intervals) -> Interval:
    total = None
    for interval in intervals:
        total = interval if total is None else total + interval
    if total is None:
        raise AnalyzeError("cannot fold an empty interval sequence")
    return total


def derived_bounds(name: str) -> List[DerivedBound]:
    """All closed-form bounds derivable for one system, each paired
    with the declared bound it must reproduce."""
    from repro.surface import bundle

    return list(bundle(name).bounds())


def _rm_bounds(name: str, system) -> List[DerivedBound]:
    from repro.analyze.recurrence import rm_first_grant_chain, rm_grant_gap_chain

    p = system.params
    tick = Interval(p.c1, p.c2)
    first = tick.scale(p.k) + Interval(0, p.l)
    gap = Interval(p.c1 - p.l, p.c2) + tick.scale(p.k - 1) + Interval(0, p.l)
    results = [
        DerivedBound(
            system=name,
            label="first-grant",
            derived=first,
            declared=p.first_grant_interval,
            detail="k ticks then a grant step: k*[c1, c2] + [0, l]",
        ),
        DerivedBound(
            system=name,
            label="grant-gap",
            derived=gap,
            declared=p.grant_gap_interval,
            detail="first tick after a grant is [c1 - l, c2] (Lemma 4.1), "
            "then k - 1 ticks, then the grant step",
        ),
    ]
    # The recurrence milestone chains fold to the same closed forms —
    # keep the two derivations honest against each other.
    results.append(
        DerivedBound(
            system=name,
            label="first-grant/recurrence",
            derived=first,
            declared=rm_first_grant_chain(p).total(),
            detail="closed form vs the milestone-chain fold",
        )
    )
    results.append(
        DerivedBound(
            system=name,
            label="grant-gap/recurrence",
            derived=gap,
            declared=rm_grant_gap_chain(p).total(),
            detail="closed form vs the milestone-chain fold",
        )
    )
    return results


def _line_bounds(name: str, system) -> List[DerivedBound]:
    """A relay's or a chain's bounds: the fold of the stages after
    ``k`` against ``U_{k,n}``'s declared partial sum, end to end
    (``k = 0``, Theorem 6.4) and for every intermediate level."""
    from repro.systems.signal_relay import partial_sum_interval

    stages = system.stages
    results = [
        DerivedBound(
            system=name,
            label="end-to-end",
            derived=_fold(stages),
            declared=partial_sum_interval(stages, 0),
            detail="Minkowski sum of stages 1..{} (Theorem 6.4)".format(system.n),
        )
    ]
    for k in range(1, system.n):
        results.append(
            DerivedBound(
                system=name,
                label="U[{},{}]".format(k, system.n),
                derived=_fold(stages[k:]),
                declared=partial_sum_interval(stages, k),
                detail="the B_k hierarchy bound: Minkowski sum of stages "
                "{}..{}".format(k + 1, system.n),
            )
        )
    return results


def _fischer_bounds(name: str, params) -> List[DerivedBound]:
    from repro.analyze.recurrence import fischer_first_entry_chain

    derived = Interval(0, params.a) + Interval(params.b, 2 * params.b)
    return [
        DerivedBound(
            system=name,
            label="first-entry",
            derived=derived,
            declared=fischer_first_entry_chain(params.a, params.b).total(),
            detail="a SET within [0, a] then a check within [b, 2b]",
        )
    ]


def _tournament_bounds(name: str, params) -> List[DerivedBound]:
    from repro.analyze.recurrence import peterson_first_entry_chain

    if params.n != 2:
        # Width >= 4 entry-upper bounds are decided on the zone graph
        # (see the analyze obligations); no closed form is declared.
        return []
    step = params.step_interval
    return [
        DerivedBound(
            system=name,
            label="first-entry",
            derived=step.scale(3),
            declared=peterson_first_entry_chain(step).total(),
            detail="the width-2 bracket is Peterson: three protocol steps "
            "of [s1, s2] each",
        )
    ]


def _peterson_bounds(name: str, params) -> List[DerivedBound]:
    from repro.analyze.recurrence import peterson_first_entry_chain

    step = params.step_interval
    return [
        DerivedBound(
            system=name,
            label="first-entry",
            derived=step.scale(3),
            declared=peterson_first_entry_chain(step).total(),
            detail="three protocol steps (set flag, set turn, test) of "
            "[s1, s2] each",
        )
    ]


def closed_form_tolerance(name: str) -> Optional[Fraction]:
    """The closed-form perturbation tolerance ``(hi − lo)/(hi + lo)``
    of the system's critical interval, or ``None`` when the system's
    safety does not reduce to a single interval ratio."""
    from repro.surface import bundle

    return bundle(name).tolerance
