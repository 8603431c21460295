"""States of the ``time(A, U)`` automaton (paper Section 3.1).

Each state pairs a state of ``A`` with the current time ``Ct`` and, per
timing condition ``U``, the predictive components ``Ft(U)`` and
``Lt(U)`` — the first and last times at which ``U`` permits/requires its
next ``Π(U)`` event.  The default (inactive) prediction is
``Ft = 0, Lt = ∞``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.timed.interval import render_time

__all__ = ["Prediction", "TimeState", "DEFAULT_PREDICTION"]


@dataclass(frozen=True)
class Prediction:
    """One ``(Ft(U), Lt(U))`` pair."""

    ft: object
    lt: object

    @property
    def is_default(self) -> bool:
        """True for the inactive prediction ``(0, ∞)``."""
        return self.ft == 0 and math.isinf(self.lt)

    def __repr__(self) -> str:
        return "(Ft={}, Lt={})".format(render_time(self.ft), render_time(self.lt))


#: The inactive prediction used when a condition imposes nothing.
DEFAULT_PREDICTION = Prediction(0, math.inf)


@dataclass(frozen=True)
class TimeState:
    """A state of ``time(A, U)``: ``(As, Ct, Ft(U_1), Lt(U_1), …)``.

    ``preds`` is ordered to match the owning automaton's condition
    tuple; use :meth:`repro.core.time_automaton.PredictiveTimeAutomaton.ft`
    and ``.lt`` for access by condition name.
    """

    astate: Hashable
    now: object
    preds: Tuple[Prediction, ...]

    def prediction(self, index: int) -> Prediction:
        """The prediction of the condition at ``index``."""
        return self.preds[index]

    def with_astate(self, astate: Hashable) -> "TimeState":
        """A copy with a different ``A``-state (used by trivial renaming
        mappings)."""
        return TimeState(astate, self.now, self.preds)

    def __repr__(self) -> str:
        return "TimeState(As={!r}, Ct={}, preds={})".format(
            self.astate, render_time(self.now), list(self.preds)
        )
