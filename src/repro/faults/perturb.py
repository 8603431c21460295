"""Perturbation operators on timed automata.

Physical clocks drift and jitter; links delay and drop.  These
operators produce the corresponding *models*: a boundmap whose
intervals have been scaled or shifted by an exact ``Fraction`` ε, a
condition set whose claims have been weakened or tightened, and a base
automaton with actions delayed or dropped.  The tolerance analyzer
(:mod:`repro.faults.tolerance`) then asks how large ε can get before
the paper's proofs stop going through.

Directions follow the two sides of a proof:

- ``widen`` — the *implementation* gets sloppier (clock drift outward:
  earlier lower ends, later upper ends).  Stresses safety properties
  and any claim whose bound the paper shows *tight*.
- ``tighten`` — the implementation gets more precise (drift inward).
  A sound mapping must keep holding, until tightening inverts an
  interval and the system itself becomes ill-formed — that inversion
  point is a natural tolerance ceiling.

All arithmetic is exact; ``[0, ∞]`` trivial bounds (deliberately
untimed environment classes) are left untouched by boundmap
perturbation so ε only stresses classes that carry timing content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.catalog import DIRECTIONS, MODES
from repro.errors import PerturbationError, TimingConditionError
from repro.ioa.automaton import IOAutomaton
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval

__all__ = [
    "Drift",
    "perturb_interval",
    "perturb_boundmap",
    "perturb_conditions",
    "delay_class",
    "drop_actions",
    "ActionDropAutomaton",
]


@dataclass(frozen=True)
class Drift:
    """A clock drift/jitter specification.

    ``mode='scale'`` models *rate* drift — each bound end moves by a
    relative factor of ε; ``mode='shift'`` models *offset* jitter —
    each end moves by an absolute ε.  ``classes`` restricts the drift
    to the named partition classes (None: global).
    """

    epsilon: Fraction
    mode: str = "scale"
    direction: str = "tighten"
    classes: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise PerturbationError(
                "unknown drift mode {!r}; expected one of {}".format(self.mode, MODES)
            )
        if self.direction not in DIRECTIONS:
            raise PerturbationError(
                "unknown drift direction {!r}; expected one of {}".format(
                    self.direction, DIRECTIONS
                )
            )
        if isinstance(self.epsilon, float):
            raise PerturbationError(
                "epsilon must be exact (int or Fraction), got float {!r}".format(
                    self.epsilon
                )
            )
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon < 0:
            raise PerturbationError("epsilon must be non-negative")
        if self.classes is not None:
            object.__setattr__(self, "classes", frozenset(self.classes))

    def applies_to(self, class_name: str) -> bool:
        return self.classes is None or class_name in self.classes

    def describe(self) -> str:
        scope = "global" if self.classes is None else ",".join(sorted(self.classes))
        return "{} {} eps={} ({})".format(self.direction, self.mode, self.epsilon, scope)


def perturb_interval(interval: Interval, drift: Drift) -> Interval:
    """Apply a drift to one bound interval.

    Raises :class:`PerturbationError` when the drifted interval is no
    longer well-formed (tightening inverted it, or the upper end hit 0)
    — the system has no timed semantics at this ε.
    """
    eps = drift.epsilon
    lo, hi = interval.lo, interval.hi
    hi_inf = isinstance(hi, float) and math.isinf(hi)
    if drift.mode == "scale":
        if drift.direction == "widen":
            new_lo = lo * (1 - eps) if eps <= 1 else 0
            new_hi = hi if hi_inf else hi * (1 + eps)
        else:
            new_lo = lo * (1 + eps)
            new_hi = hi if hi_inf else hi * (1 - eps)
    else:
        if drift.direction == "widen":
            new_lo = max(0, lo - eps)
            new_hi = hi if hi_inf else hi + eps
        else:
            new_lo = lo + eps
            new_hi = hi if hi_inf else hi - eps
    try:
        return Interval(new_lo, new_hi)
    except TimingConditionError as exc:
        raise PerturbationError(
            "drift {} collapses {!r}: {}".format(drift.describe(), interval, exc)
        ) from exc


def perturb_boundmap(timed: TimedAutomaton, drift: Drift) -> TimedAutomaton:
    """Apply a drift to the boundmap of ``(A, b)``, returning a new
    timed automaton over the *same* base ``A``.

    Trivial ``[0, ∞]`` bounds are left unchanged: they carry no timing
    content, and drifting them would spuriously constrain classes the
    model deliberately leaves untimed.
    """
    perturbed = {}
    for name, interval in timed.boundmap.items():
        if drift.applies_to(name) and not interval.is_trivial:
            perturbed[name] = perturb_interval(interval, drift)
        else:
            perturbed[name] = interval
    return TimedAutomaton(timed.automaton, Boundmap(perturbed))


def perturb_conditions(
    conditions: Iterable[TimingCondition],
    drift: Drift,
    names: Optional[Iterable[str]] = None,
) -> Tuple[TimingCondition, ...]:
    """Weaken (``widen``) or tighten the intervals of ``U``-style
    timing conditions, leaving their trigger/start/π structure alone.

    ``names`` restricts the perturbation to the named conditions; a
    drift with ``classes`` set restricts by the same field.
    """
    wanted = None if names is None else set(names)
    out = []
    for cond in conditions:
        selected = (wanted is None or cond.name in wanted) and drift.applies_to(
            cond.name
        )
        if selected and not cond.interval.is_trivial:
            out.append(replace(cond, interval=perturb_interval(cond.interval, drift)))
        else:
            out.append(cond)
    return tuple(out)


def delay_class(timed: TimedAutomaton, class_name: str, delay) -> TimedAutomaton:
    """Inject a fixed delay into one component: both bound ends of
    ``class_name`` move later by ``delay`` (a slow process or link).
    """
    if delay < 0:
        raise PerturbationError("delay must be non-negative")
    perturbed = {}
    for name, interval in timed.boundmap.items():
        if name == class_name:
            perturbed[name] = interval.shift(delay)
        else:
            perturbed[name] = interval
    if class_name not in perturbed:
        raise PerturbationError(
            "no partition class {!r} in {}".format(class_name, timed.name)
        )
    return TimedAutomaton(timed.automaton, Boundmap(perturbed))


class ActionDropAutomaton(IOAutomaton):
    """A wrapper automaton in which a set of actions never fires.

    Models a lossy link or a crashed component in a composed system:
    the signature and partition are unchanged (the class still exists —
    it just never gets a chance), but every dropped action's transition
    relation is empty.  Downstream effects are exactly the failure
    modes the budgeted checkers must survive: starved classes,
    quiescence, or a :class:`~repro.errors.SchedulingDeadlockError`
    when a dropped class carries a finite deadline some condition still
    predicts.
    """

    def __init__(self, base: IOAutomaton, dropped: Iterable[Hashable]):
        self.base = base
        self.dropped = frozenset(dropped)
        self.name = "{}-drop({})".format(
            base.name, ",".join(sorted(map(repr, self.dropped)))
        )

    @property
    def signature(self):
        return self.base.signature

    @property
    def partition(self):
        return self.base.partition

    def start_states(self):
        return self.base.start_states()

    def transitions(self, state, action):
        if action in self.dropped:
            return ()
        return self.base.transitions(state, action)


def drop_actions(
    timed: TimedAutomaton, actions: Iterable[Hashable]
) -> TimedAutomaton:
    """Drop ``actions`` from a timed automaton's base, keeping the
    boundmap (the partition is unchanged, so it still validates)."""
    return TimedAutomaton(
        ActionDropAutomaton(timed.automaton, actions), timed.boundmap
    )
