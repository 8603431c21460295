"""Rational time discretisation of ``time(A, U)``.

Continuous-time automata have uncountably many timed steps; for
*exhaustive* checking we restrict event times to multiples of a rational
``grid`` and bound the absolute ``horizon``.  When every constant of the
model is a multiple of the grid, all ``Ft``/``Lt`` components stay on
the grid, so window endpoints are themselves explorable times and the
grid semantics exercises every boundary case of the definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterator, List, Tuple

from repro.errors import TimingConditionError
from repro.core.time_automaton import PredictiveTimeAutomaton
from repro.core.time_state import TimeState

__all__ = ["grid_times", "discrete_options", "grid_aligned"]


def grid_aligned(value, grid) -> bool:
    """True when ``value`` is a multiple of ``grid`` (or infinite)."""
    if isinstance(value, float) and math.isinf(value):
        return True
    return Fraction(value) % Fraction(grid) == 0


def _exact(value):
    """Ints and fractions as they are; anything else as a fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def grid_times(lo, hi, grid) -> List:
    """All multiples of ``grid`` in ``[lo, hi]`` (empty when ``lo > hi``).

    Int inputs give ints; otherwise the times are fractions."""
    grid = _exact(grid)
    if grid <= 0:
        raise TimingConditionError("grid must be positive")
    if isinstance(hi, float) and math.isinf(hi):
        raise TimingConditionError("grid_times needs a finite upper end; cap hi first")
    lo = _exact(lo)
    hi = _exact(hi)
    if lo > hi:
        return []
    first_index = -((-lo) // grid)  # ceil(lo / grid)
    last_index = hi // grid  # floor(hi / grid)
    return [grid * i for i in range(int(first_index), int(last_index) + 1)]


def discrete_options(
    automaton: PredictiveTimeAutomaton,
    state: TimeState,
    grid,
    horizon,
) -> Iterator[Tuple[Hashable, object]]:
    """All grid-time steps available from ``state``: pairs ``(π, t)``
    with ``t`` a multiple of ``grid``, inside the action's time window,
    and at most ``horizon``.

    Events at times beyond ``horizon`` are pruned — callers choose a
    horizon large enough that every obligation of interest resolves
    earlier.
    """
    horizon = _exact(horizon)
    for action, lo, hi in automaton.schedulable_actions(state):
        if isinstance(hi, float) and math.isinf(hi):
            capped_hi = horizon
        else:
            capped_hi = min(hi, horizon)
        for t in grid_times(lo, capped_hi, grid):
            yield (action, t)
