"""E4 — Theorem 6.4: signal relay end-to-end delay bounds.

Per (n, d1, d2), compares the paper's [n·d1, n·d2] against simulated
delay spans; benchmarks the relay simulation.
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator, separations_after
from repro.table import Table
from repro.core import project, undum
from repro.sim import ExtremalStrategy, Simulator, UniformStrategy
from repro.systems import SIGNAL, RelayParams, RelaySystem
from repro.timed import Interval

from conftest import emit

SWEEP = [
    RelayParams(n=1, d1=F(1), d2=F(2)),
    RelayParams(n=2, d1=F(1), d2=F(2)),
    RelayParams(n=3, d1=F(1), d2=F(2)),
    RelayParams(n=5, d1=F(1), d2=F(2)),
    RelayParams(n=8, d1=F(1), d2=F(2)),
    RelayParams(n=4, d1=F(2), d2=F(7)),
]


def measure(params, seeds=range(16), steps=120):
    system = RelaySystem(params, dummy_interval=Interval(F(1, 2), F(1)))
    delays = BoundsAccumulator()
    for seed in seeds:
        strategy = (
            UniformStrategy(random.Random(seed))
            if seed % 2 == 0
            else ExtremalStrategy(random.Random(seed))
        )
        run = Simulator(system.algorithm, strategy).run(max_steps=steps)
        seq = undum(project(run))
        delays.add_all(separations_after(seq.events, SIGNAL(0), SIGNAL(params.n)))
    return delays


def test_e4_relay_bounds_sweep(benchmark):
    table = Table(
        "E4 / Theorem 6.4 — relay delay, paper vs simulation (16 seeded runs each)",
        ["n", "d1", "d2", "paper [n·d1, n·d2]", "measured span", "samples", "ok"],
    )
    for params in SWEEP:
        delays = measure(params)
        table.add_row(
            params.n, params.d1, params.d2,
            repr(params.end_to_end_interval),
            repr(delays.span()),
            delays.count,
            delays.all_within(params.end_to_end_interval),
        )
        assert delays.count > 0
        assert delays.all_within(params.end_to_end_interval)
    emit(table)

    benchmark(lambda: measure(SWEEP[2], seeds=range(4), steps=80))
