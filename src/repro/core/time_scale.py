"""Integer time for the grid searches over ``time(A, U)``.

``time(A, U)`` only compares times and adds them to the bounds of
``U`` (Section 3.1), so multiplying every bound, the grid and the
horizon by one positive integer ``D`` maps the grid executions one to
one onto the grid executions of the scaled automaton: the same steps in
the same order, every time ``D`` times larger.  With ``D`` the lcm of
the denominators of all those constants, every time of the scaled
search is a Python int, which compares, adds and hashes far faster than
a :class:`~fractions.Fraction`.

:class:`TimeScale` computes ``D`` and builds the scaled copies once per
search: the automata (the same ``A``, each condition's interval times
``D``), the conditions, and the mapping (an :class:`InequalityMapping`
with its constants times ``D``, recompiled; any other mapping behind an
adapter that hands it rational states).  :meth:`TimeScale.down` turns a
scaled time back into the rational it stands for; the searches use it
only on a result.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence

from repro.core.mappings import Ineq, InequalityMapping, Linear, StrongPossibilitiesMapping
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import Prediction, TimeState
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.timed.timed_sequence import TimedSequence

__all__ = ["TimeScale"]


class TimeScale:
    """Time in integer units of ``1/factor``."""

    def __init__(self, factor: int):
        self.factor = factor
        self._automata: Dict[int, PredictiveTimeAutomaton] = {}

    @classmethod
    def of(cls, values: Iterable) -> Optional["TimeScale"]:
        """The scale whose unit divides every finite value, or None when
        some finite value is not an int or a fraction (a float has no
        exact unit the rational search would agree with)."""
        denominators = []
        for value in values:
            if isinstance(value, int):
                continue
            if isinstance(value, Fraction):
                denominators.append(value.denominator)
            elif not (isinstance(value, float) and math.isinf(value)):
                return None
        return cls(math.lcm(*denominators))

    @classmethod
    def for_mapping(
        cls, mapping: StrongPossibilitiesMapping, grid, horizon
    ) -> Optional["TimeScale"]:
        """The scale of a grid search of ``mapping``: its grid, horizon,
        the bounds of source and target, and a declared mapping's
        constants (and coefficients, which must be exact too)."""
        values = [grid, horizon, *_bounds(mapping.source.conditions)]
        values.extend(_bounds(mapping.target.conditions))
        if isinstance(mapping, InequalityMapping):
            for conjunction in mapping.cases.values():
                for ineq in conjunction:
                    for side in (ineq.lhs, ineq.rhs):
                        values.append(side.constant)
                        values.extend(coeff for _term, coeff in side.terms)
        return cls.of(values)

    @classmethod
    def for_inclusion(
        cls,
        source: PredictiveTimeAutomaton,
        conditions: Sequence[TimingCondition],
        grid,
        horizon,
    ) -> Optional["TimeScale"]:
        """The scale of a grid search of ``source`` against
        ``conditions``."""
        return cls.of([grid, horizon, *_bounds(source.conditions), *_bounds(conditions)])

    # ------------------------------------------------------------------
    # Times
    # ------------------------------------------------------------------

    def up(self, value):
        """A time in units of ``1/factor`` (``∞`` stays ``∞``)."""
        if isinstance(value, float):
            return value
        return int(value * self.factor)

    def down(self, value):
        """The rational a scaled time stands for: an int when whole."""
        if isinstance(value, float):
            return value
        whole, rest = divmod(value, self.factor)
        return whole if rest == 0 else Fraction(value, self.factor)

    def state_down(self, state: TimeState) -> TimeState:
        down = self.down
        return TimeState(
            state.astate,
            down(state.now),
            tuple(Prediction(down(p.ft), down(p.lt)) for p in state.preds),
        )

    def sequence_down(self, seq: TimedSequence) -> TimedSequence:
        return TimedSequence(
            seq.states, [(event.action, self.down(event.time)) for event in seq.events]
        )

    # ------------------------------------------------------------------
    # Scaled copies
    # ------------------------------------------------------------------

    def condition(self, condition: TimingCondition) -> TimingCondition:
        interval = condition.interval
        return dataclasses.replace(
            condition, interval=Interval(self.up(interval.lo), self.up(interval.hi))
        )

    def automaton(self, automaton: PredictiveTimeAutomaton) -> PredictiveTimeAutomaton:
        """``time(A, U·D)``: the same ``A`` and condition names, every
        interval times ``D``.  One copy per automaton, so a mapping
        whose source is its target keeps that identity."""
        scaled = self._automata.get(id(automaton))
        if scaled is None:
            scaled = PredictiveTimeAutomaton(
                automaton.base,
                [self.condition(c) for c in automaton.conditions],
                name=automaton.name,
            )
            self._automata[id(automaton)] = scaled
        return scaled

    def mapping(self, mapping: StrongPossibilitiesMapping) -> StrongPossibilitiesMapping:
        """The mapping between the scaled source and target."""
        source = self.automaton(mapping.source)
        target = self.automaton(mapping.target)
        if not isinstance(mapping, InequalityMapping):
            return _RationalImage(mapping, source, target, self)
        scaled = copy.copy(mapping)
        scaled.source, scaled.target = source, target
        scaled._declare(
            {
                key: tuple(
                    Ineq(self._linear(ineq.lhs), ineq.rel, self._linear(ineq.rhs))
                    for ineq in conjunction
                )
                for key, conjunction in mapping.cases.items()
            }
        )
        return scaled

    def _linear(self, side: Linear) -> Linear:
        return Linear(side.terms, self.up(side.constant))


class _RationalImage(StrongPossibilitiesMapping):
    """An opaque mapping between scaled automata: its image is decided
    by the original mapping on the rational states."""

    def __init__(self, mapping, source, target, scale: TimeScale):
        super().__init__(source, target, name=mapping.name)
        self.mapping = mapping
        self.scale = scale

    def image_contains(self, target_state: TimeState, source_state: TimeState) -> bool:
        down = self.scale.state_down
        return self.mapping.image_contains(down(target_state), down(source_state))


def _bounds(conditions: Iterable[TimingCondition]):
    for condition in conditions:
        yield condition.interval.lo
        yield condition.interval.hi
