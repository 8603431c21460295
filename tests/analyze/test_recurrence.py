"""The operational recurrence baseline reproduces the paper's formulas
and agrees with the exact zone analysis (experiment E11)."""

from fractions import Fraction as F

import pytest

from repro.analyze.recurrence import (
    MilestoneChain,
    Milestone,
    chain_bound,
    relay_chain,
    rm_first_grant_chain,
    rm_grant_gap_chain,
)
from repro.systems.resource_manager import (
    GRANT,
    ResourceManagerParams,
    resource_manager,
)
from repro.systems.signal_relay import SIGNAL, RelayParams, signal_relay
from repro.timed.interval import Interval
from repro.zones.analysis import absolute_event_bounds, event_separation_bounds


RM = ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
RL = RelayParams(n=4, d1=F(1), d2=F(2))


class TestFormulas:
    def test_rm_first_grant_formula(self):
        assert rm_first_grant_chain(RM).total() == RM.first_grant_interval

    def test_rm_gap_formula(self):
        assert rm_grant_gap_chain(RM).total() == RM.grant_gap_interval

    def test_relay_formula(self):
        assert relay_chain(RL).total() == RL.end_to_end_interval

    def test_chain_lengths(self):
        assert len(rm_first_grant_chain(RM)) == RM.k + 1
        assert len(rm_grant_gap_chain(RM)) == RM.k + 1
        assert len(relay_chain(RL)) == RL.n

    def test_explain_lines(self):
        lines = rm_first_grant_chain(RM).explain()
        assert len(lines) == RM.k + 2  # milestones + total
        assert lines[-1].startswith("total")

    def test_chain_bound_helper(self):
        assert chain_bound([Interval(1, 2), Interval(3, 4)]) == Interval(4, 6)


class TestAgreementWithZones:
    """The operational argument and the exact symbolic analysis land on
    the same interval — the E11 comparison."""

    def test_rm_first_grant(self):
        exact = absolute_event_bounds(resource_manager(RM), GRANT)
        operational = rm_first_grant_chain(RM).total()
        assert exact.lo == operational.lo and exact.hi == operational.hi

    def test_rm_gap(self):
        exact = event_separation_bounds(
            resource_manager(RM), GRANT, occurrence=2, reset_on=[GRANT]
        )
        operational = rm_grant_gap_chain(RM).total()
        assert exact.lo == operational.lo and exact.hi == operational.hi

    def test_relay(self):
        exact = event_separation_bounds(
            signal_relay(RL), SIGNAL(RL.n), occurrence=1, reset_on=[SIGNAL(0)]
        )
        operational = relay_chain(RL).total()
        assert exact.lo == operational.lo and exact.hi == operational.hi
