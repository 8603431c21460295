"""Exact timing bounds via zone reachability (substrate for E10).

For both of the paper's systems, computes the *exact* reachable
min/max event separations symbolically (DBM zone graph) and compares
them with the paper's claimed intervals — showing the theorems' bounds
are not only sound but tight, across a parameter sweep.

Run:  python examples/exact_bounds_zones.py
"""

from fractions import Fraction as F

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


def resource_manager_sweep() -> None:
    table = Table(
        "Resource manager — exact zone bounds vs Theorem 4.4",
        ["k", "c1", "c2", "l", "quantity", "paper", "exact", "tight"],
    )
    for k, c1, c2, l in [
        (1, F(2), F(3), F(1)),
        (2, F(2), F(3), F(1)),
        (3, F(2), F(3), F(1)),
        (2, F(5), F(8), F(3)),
        (4, F(3), F(3), F(1)),
    ]:
        params = ResourceManagerParams(k=k, c1=c1, c2=c2, l=l)
        timed = resource_manager(params)
        first = absolute_event_bounds(timed, GRANT)
        table.add_row(
            k, c1, c2, l,
            "first GRANT",
            repr(params.first_grant_interval),
            repr(first),
            first.tight(params.first_grant_interval),
        )
        gap = event_separation_bounds(timed, GRANT, occurrence=2, reset_on=[GRANT])
        table.add_row(
            k, c1, c2, l,
            "GRANT gap",
            repr(params.grant_gap_interval),
            repr(gap),
            gap.tight(params.grant_gap_interval),
        )
    table.print()


def relay_sweep() -> None:
    table = Table(
        "Signal relay — exact zone bounds vs Theorem 6.4",
        ["n", "d1", "d2", "paper", "exact", "tight"],
    )
    for n, d1, d2 in [
        (1, F(1), F(2)),
        (2, F(1), F(2)),
        (3, F(1), F(2)),
        (4, F(1), F(3)),
        (5, F(2), F(5)),
    ]:
        params = RelayParams(n=n, d1=d1, d2=d2)
        bounds = event_separation_bounds(
            signal_relay(params), SIGNAL(n), occurrence=1, reset_on=[SIGNAL(0)]
        )
        table.add_row(
            n, d1, d2,
            repr(params.end_to_end_interval),
            repr(bounds),
            bounds.tight(params.end_to_end_interval),
        )
    table.print()


if __name__ == "__main__":
    resource_manager_sweep()
    relay_sweep()
