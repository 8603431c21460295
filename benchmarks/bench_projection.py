"""E7 — Lemmas 3.2/3.3: projection/lifting round trips.

Every simulated execution of time(A, b) projects to a timed
semi-execution of (A, b), and lifting the projection reconstructs the
original execution uniquely.  Benchmarks the round trip.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import lift, project, time_of_boundmap
from repro.sim import Simulator, UniformStrategy
from repro.systems import ResourceManagerParams, resource_manager
from repro.timed.satisfaction import find_boundmap_violation

from conftest import emit


def test_e7_projection_round_trip(benchmark):
    timed = resource_manager(ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1)))
    automaton = time_of_boundmap(timed)

    table = Table(
        "E7 / Lemmas 3.2–3.3 — projection and lifting",
        ["seed", "steps", "projection is semi-execution", "lift reconstructs run"],
    )
    runs = []
    for seed in range(10):
        run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
            max_steps=150
        )
        runs.append(run)
        seq = project(run)
        semi_ok = find_boundmap_violation(timed, seq, semi=True) is None
        lifted = lift(automaton, seq)
        round_trip = lifted == run
        table.add_row(seed, len(run), semi_ok, round_trip)
        assert semi_ok and round_trip
    emit(table)

    run = runs[0]
    benchmark(lambda: lift(automaton, project(run)))
