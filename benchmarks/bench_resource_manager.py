"""E1 — Theorem 4.4: resource manager GRANT bounds.

Regenerates, per parameter point, the paper's claims (first-GRANT time
in [k·c1, k·c2 + l], gaps in [k·c1 − l, k·c2 + l]) against seeded
simulation spans, and benchmarks the simulation kernel.
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator, gaps, occurrence_times
from repro.table import Table
from repro.sim import ExtremalStrategy, Simulator, UniformStrategy
from repro.sim.trace import timed_behavior_of_run
from repro.systems import GRANT, ResourceManagerParams, ResourceManagerSystem
from repro.timed import Interval

from conftest import emit

SWEEP = [
    ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=4, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=6, c1=F(2), c2=F(3), l=F(1)),
    ResourceManagerParams(k=2, c1=F(5), c2=F(8), l=F(3)),
]


def measure(params: ResourceManagerParams, seeds=range(12), steps=250):
    system = ResourceManagerSystem(params)
    first = BoundsAccumulator()
    gap = BoundsAccumulator()
    for seed in seeds:
        strategy = (
            UniformStrategy(random.Random(seed))
            if seed % 2 == 0
            else ExtremalStrategy(random.Random(seed))
        )
        run = Simulator(system.algorithm, strategy).run(max_steps=steps)
        behavior = timed_behavior_of_run(system.timed.automaton, run)
        times = occurrence_times(behavior, GRANT)
        if times:
            first.add(times[0])
            gap.add_all(gaps(times))
    return first, gap


def test_e1_grant_bounds_sweep(benchmark):
    results = []
    for params in SWEEP:
        first, gap = measure(params)
        results.append((params, first, gap))

    table = Table(
        "E1 / Theorem 4.4 — GRANT bounds, paper vs simulation (12 seeded runs each)",
        ["k", "c1", "c2", "l", "paper first", "measured first", "ok",
         "paper gap", "measured gap", "ok "],
    )
    for params, first, gap in results:
        table.add_row(
            params.k, params.c1, params.c2, params.l,
            repr(params.first_grant_interval),
            repr(first.span()),
            first.all_within(params.first_grant_interval),
            repr(params.grant_gap_interval),
            repr(gap.span()),
            gap.all_within(params.grant_gap_interval),
        )
    emit(table)
    # Theorem 4.4 on every measured point: every run grants, first
    # grants land in [k·c1, k·c2 + l], gaps in [k·c1 − l, k·c2 + l].
    for params, first, gap in results:
        k, c1, c2, l = params.k, params.c1, params.c2, params.l
        assert params.first_grant_interval == Interval(k * c1, k * c2 + l)
        assert params.grant_gap_interval == Interval(k * c1 - l, k * c2 + l)
        assert first.count == 12, params
        assert gap.count > 0, params
        assert first.all_within(params.first_grant_interval), (params, first)
        assert gap.all_within(params.grant_gap_interval), (params, gap)

    benchmark(lambda: measure(SWEEP[1], seeds=range(4), steps=150))
