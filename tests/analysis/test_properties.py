"""The P and Q properties on hand-built finite prefixes.

Section 4.2's P is the resource manager's G1 and G2; the timing half of
Section 6.2's Q is the relay's U[0,n]. On a finite prefix, semi
satisfaction checks every deadline the prefix has passed; the prefix
ends at the time of its last (dummy) event.
"""

from fractions import Fraction as F

from repro.core.dummification import NULL
from repro.systems.resource_manager import (
    ELSE,
    GRANT,
    ResourceManagerParams,
    ResourceManagerSystem,
)
from repro.systems.signal_relay import SIGNAL, RelayParams, relay_condition
from repro.timed.satisfaction import find_condition_violation, semi_satisfies_all
from repro.timed.timed_sequence import TimedEvent, TimedSequence


def prefix(*pairs):
    events = [TimedEvent(a, t) for a, t in pairs]
    return TimedSequence([None] * (len(events) + 1), events)


RM = ResourceManagerSystem(
    ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
)  # first [4,7], gap [3,7]
RL = RelayParams(n=2, d1=F(1), d2=F(2))  # end-to-end [2,4]


def p_violation(*pairs):
    """The name of the first of G1, G2 the prefix violates, or None."""
    violation = semi_satisfies_all(prefix(*pairs), [RM.g1, RM.g2])
    return violation and violation.condition


def q_holds(*pairs):
    return find_condition_violation(prefix(*pairs), relay_condition(RL, 0), semi=True) is None


class TestP:
    def test_good_prefix(self):
        assert p_violation((GRANT, 5), (GRANT, 10), (ELSE, 12)) is None

    def test_first_grant_too_early(self):
        assert p_violation((GRANT, 3), (ELSE, 5)) == "G1"

    def test_first_grant_too_late(self):
        assert p_violation((GRANT, 8), (ELSE, 9)) == "G1"

    def test_bad_gap(self):
        assert p_violation((GRANT, 5), (GRANT, 13), (ELSE, 14)) == "G2"

    def test_progress_floor(self):
        # By time 20 a second GRANT was due (5 + 7 = 12).
        assert p_violation((GRANT, 5), (ELSE, 20)) == "G2"

    def test_no_grant_due_yet(self):
        assert p_violation((ELSE, 3)) is None

    def test_missing_grant_after_deadline(self):
        assert p_violation((ELSE, 8)) == "G1"


class TestQ:
    def test_good_prefix(self):
        assert q_holds((SIGNAL(0), 1), (SIGNAL(2), 4), (NULL, 5))

    def test_delay_out_of_bounds(self):
        assert not q_holds((SIGNAL(0), 1), (SIGNAL(2), 6), (NULL, 7))

    def test_delay_too_small(self):
        assert not q_holds((SIGNAL(0), 1), (SIGNAL(2), 2), (NULL, 3))

    def test_signal_n_missing_after_deadline(self):
        assert not q_holds((SIGNAL(0), 1), (NULL, 10))

    def test_signal_n_not_due_yet(self):
        assert q_holds((SIGNAL(0), 1), (NULL, 3))

    def test_no_signals_at_all(self):
        assert q_holds((NULL, 100))
