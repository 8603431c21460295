"""E10 — exact bound *shape*: the paper's intervals are tight.

Zone-graph reachability computes the exact min/max of every measured
quantity; the paper's formulas must be attained at both ends.  Includes
the footnote-7 interrupt-manager ablation (its gap interval coincides
with the polling variant's).  Benchmarks one zone query.
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
from repro.systems.extensions import interrupt_resource_manager
from repro.zones import absolute_event_bounds, event_separation_bounds

from conftest import emit

RM_SWEEP = [
    ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=2, c1=F(5), c2=F(8), l=F(3)),
]

RELAY_SWEEP = [
    RelayParams(n=1, d1=F(1), d2=F(2)),
    RelayParams(n=2, d1=F(1), d2=F(2)),
    RelayParams(n=4, d1=F(1), d2=F(3)),
    RelayParams(n=6, d1=F(2), d2=F(5)),
]


def test_e10_exact_bounds(benchmark):
    table = Table(
        "E10 — exact zone bounds vs paper formulas (all tight)",
        ["system", "quantity", "paper", "exact", "tight", "zone nodes"],
    )
    for params in RM_SWEEP:
        timed = resource_manager(params)
        first = absolute_event_bounds(timed, GRANT)
        table.add_row(
            "RM k={}".format(params.k), "first GRANT",
            repr(params.first_grant_interval), repr(first),
            first.tight(params.first_grant_interval), first.nodes,
        )
        assert first.tight(params.first_grant_interval)
        gap = event_separation_bounds(timed, GRANT, occurrence=2, reset_on=[GRANT])
        table.add_row(
            "RM k={}".format(params.k), "GRANT gap",
            repr(params.grant_gap_interval), repr(gap),
            gap.tight(params.grant_gap_interval), gap.nodes,
        )
        assert gap.tight(params.grant_gap_interval)

    for params in RELAY_SWEEP:
        bounds = event_separation_bounds(
            signal_relay(params), SIGNAL(params.n), occurrence=1, reset_on=[SIGNAL(0)]
        )
        table.add_row(
            "relay n={}".format(params.n), "SIGNAL_0→SIGNAL_n",
            repr(params.end_to_end_interval), repr(bounds),
            bounds.tight(params.end_to_end_interval), bounds.nodes,
        )
        assert bounds.tight(params.end_to_end_interval)

    # Ablation: the interrupt-driven manager (footnote 7).
    params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
    interrupt = interrupt_resource_manager(params)
    gap = event_separation_bounds(interrupt, GRANT, occurrence=2, reset_on=[GRANT])
    table.add_row(
        "RM k=2 interrupt-driven", "GRANT gap",
        repr(params.grant_gap_interval), repr(gap),
        gap.tight(params.grant_gap_interval), gap.nodes,
    )
    assert gap.tight(params.grant_gap_interval)
    emit(table)

    timed = resource_manager(RM_SWEEP[1])
    benchmark(lambda: absolute_event_bounds(timed, GRANT))
