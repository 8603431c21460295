"""E11 — assertional (mapping) vs operational (recurrence) styles.

The Section 8 discussion: the paper's mapping method and the
traditional milestone/recurrence analysis must derive the same
intervals.  The rows compare the recurrence totals against the exact
zone values; the benchmark contrasts the cost of the recurrence
computation with a zone query (the recurrence is cheap but offers no
machine-checked per-step guarantee).
"""

from fractions import Fraction as F

from repro.analyze.recurrence import (
    relay_chain,
    rm_first_grant_chain,
    rm_grant_gap_chain,
)
from repro.table import Table
from repro.systems import (
    GRANT,
    SIGNAL,
    RelayParams,
    ResourceManagerParams,
    resource_manager,
    signal_relay,
)
from repro.zones import absolute_event_bounds, event_separation_bounds

from conftest import emit


def test_e11_recurrence_vs_exact(benchmark):
    table = Table(
        "E11 — operational recurrence totals vs exact zone bounds",
        ["system", "quantity", "recurrence", "exact", "agree"],
    )
    rm = ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
    timed = resource_manager(rm)

    first_chain = rm_first_grant_chain(rm).total()
    first_exact = absolute_event_bounds(timed, GRANT)
    agree = (first_exact.lo, first_exact.hi) == (first_chain.lo, first_chain.hi)
    table.add_row("RM k=3", "first GRANT", repr(first_chain), repr(first_exact), agree)
    assert agree

    gap_chain = rm_grant_gap_chain(rm).total()
    gap_exact = event_separation_bounds(timed, GRANT, occurrence=2, reset_on=[GRANT])
    agree = (gap_exact.lo, gap_exact.hi) == (gap_chain.lo, gap_chain.hi)
    table.add_row("RM k=3", "GRANT gap", repr(gap_chain), repr(gap_exact), agree)
    assert agree

    relay = RelayParams(n=4, d1=F(1), d2=F(2))
    relay_total = relay_chain(relay).total()
    relay_exact = event_separation_bounds(
        signal_relay(relay), SIGNAL(relay.n), occurrence=1, reset_on=[SIGNAL(0)]
    )
    agree = (relay_exact.lo, relay_exact.hi) == (relay_total.lo, relay_total.hi)
    table.add_row("relay n=4", "end-to-end", repr(relay_total), repr(relay_exact), agree)
    assert agree
    emit(table)

    benchmark(lambda: rm_grant_gap_chain(rm).total())
