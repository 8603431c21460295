"""Closed subintervals of ``[0, ∞]`` used by boundmaps and timing
conditions (paper Sections 2.2–2.3).

The paper requires every bound interval ``[b_l, b_u]`` to have
``b_l ≠ ∞`` and ``b_u ≠ 0``.  Values may be ints, fractions or floats;
``math.inf`` denotes an unbounded upper end.  Interval arithmetic
(Minkowski sum, integer scaling) backs the recurrence-style baseline
analysis of EXPERIMENTS E11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.errors import TimingConditionError

__all__ = ["Interval", "INFINITY", "as_exact", "render_time"]

#: Alias so callers need not import :mod:`math` for unbounded intervals.
INFINITY = math.inf

Number = Union[int, float, Fraction]


def as_exact(value: Number) -> Number:
    """Convert ``value`` to exact arithmetic where possible.

    Ints and fractions pass through; finite floats become
    :class:`~fractions.Fraction`; ``inf`` stays ``inf``.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if math.isinf(value):
        return INFINITY
    return Fraction(value).limit_denominator(10**12)


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi] ⊆ [0, ∞]``.

    Satisfies the paper's boundmap requirements: ``0 ≤ lo ≤ hi``,
    ``lo ≠ ∞`` and ``hi ≠ 0``.
    """

    lo: Number
    hi: Number

    def __post_init__(self) -> None:
        if math.isinf(self.lo):
            raise TimingConditionError("interval lower bound must not be infinite")
        if self.lo < 0:
            raise TimingConditionError(
                "interval lower bound must be nonnegative, got {}".format(render_time(self.lo))
            )
        if self.hi == 0:
            raise TimingConditionError("interval upper bound must be nonzero")
        if self.hi < self.lo:
            raise TimingConditionError(
                "empty interval [{}, {}]".format(render_time(self.lo), render_time(self.hi))
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def exactly(cls, value: Number) -> "Interval":
        """The point interval ``[value, value]`` (value must be > 0)."""
        return cls(value, value)

    @classmethod
    def at_most(cls, hi: Number) -> "Interval":
        """``[0, hi]`` — an upper bound only."""
        return cls(0, hi)

    @classmethod
    def at_least(cls, lo: Number) -> "Interval":
        """``[lo, ∞]`` — a lower bound only."""
        return cls(lo, INFINITY)

    @classmethod
    def unbounded(cls) -> "Interval":
        """``[0, ∞]`` — the trivial interval imposing no constraint."""
        return cls(0, INFINITY)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_upper_bounded(self) -> bool:
        """True when ``hi < ∞`` (the condition's clause 1 applies)."""
        return not math.isinf(self.hi)

    @property
    def is_trivial(self) -> bool:
        """True for ``[0, ∞]``: no timing constraint at all."""
        return self.lo == 0 and math.isinf(self.hi)

    @property
    def width(self) -> Number:
        """``hi − lo`` (``∞`` when unbounded)."""
        if math.isinf(self.hi):
            return INFINITY
        return self.hi - self.lo

    def contains(self, value: Number) -> bool:
        """True if ``lo ≤ value ≤ hi``."""
        return self.lo <= value <= self.hi

    def __contains__(self, value: Number) -> bool:
        return self.contains(value)

    # ------------------------------------------------------------------
    # Arithmetic (for the recurrence baseline and requirement synthesis)
    # ------------------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        """Minkowski sum ``[a+c, b+d]``."""
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def shift(self, offset: Number) -> "Interval":
        """``[lo + offset, hi + offset]`` (offset ≥ 0)."""
        if offset < 0:
            raise TimingConditionError("cannot shift an interval by a negative offset")
        return Interval(self.lo + offset, self.hi + offset)

    def scale(self, factor: int) -> "Interval":
        """``[k·lo, k·hi]`` for a positive integer ``k`` — the ``k``
        repetitions of an event with this per-occurrence bound."""
        if not isinstance(factor, int) or factor <= 0:
            raise TimingConditionError("scale factor must be a positive integer")
        hi = INFINITY if math.isinf(self.hi) else self.hi * factor
        return Interval(self.lo * factor, hi)

    def intersect(self, other: "Interval") -> "Interval":
        """The intersection; raises if it would be empty or violate the
        interval well-formedness rules."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, slack: Number) -> "Interval":
        """``[max(0, lo − slack), hi + slack]``: used by sampled
        completeness estimators to absorb Monte-Carlo error."""
        if slack < 0:
            raise TimingConditionError("slack must be nonnegative")
        lo = self.lo - slack
        if lo < 0:
            lo = 0
        hi = self.hi if math.isinf(self.hi) else self.hi + slack
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return "[{}, {}]".format(render_time(self.lo), render_time(self.hi))


def render_time(value: Number) -> str:
    """A time or bound as counterexample text spells it: ``3/2``, ``2``
    (an int and an integral fraction alike), ``inf``; other values by
    ``repr``."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    if isinstance(value, Fraction):
        return "{}/{}".format(value.numerator, value.denominator)
    return repr(value)
