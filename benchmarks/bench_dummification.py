"""E8 — Section 5 dummification.

Shows Lemma 5.1 (dummified executions never quiesce) against the raw
relay (which stops after SIGNAL_n), and Lemmas 5.2/5.3 (undum maps
dummified executions to executions of the original system, preserving
condition satisfaction).  Benchmarks the undum transformation.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import dummify_condition, project, time_of_boundmap, undum
from repro.sim import Simulator, UniformStrategy
from repro.systems import RelayParams, RelaySystem, relay_condition
from repro.timed import Interval
from repro.timed.satisfaction import (
    find_boundmap_violation,
    find_condition_violation,
)

from conftest import emit


def test_e8_dummification(benchmark):
    params = RelayParams(n=3, d1=F(1), d2=F(2))
    system = RelaySystem(params, dummy_interval=Interval(F(1, 2), F(1)))
    raw = time_of_boundmap(system.timed)
    cond = relay_condition(params, 0)
    lifted = dummify_condition(cond)

    table = Table(
        "E8 / Section 5 — dummification (requested steps: 100)",
        ["seed", "raw run len (finite)", "dummified run len",
         "undum is (A,b) semi-exec", "U ⇔ Ũ satisfaction agrees"],
    )
    runs = []
    for seed in range(8):
        raw_run = Simulator(raw, UniformStrategy(random.Random(seed))).run(
            max_steps=100
        )
        dummified_run = Simulator(
            system.algorithm, UniformStrategy(random.Random(seed))
        ).run(max_steps=100)
        runs.append(dummified_run)
        seq = undum(project(dummified_run))
        semi_ok = find_boundmap_violation(system.timed, seq, semi=True) is None
        agree = (
            find_condition_violation(project(dummified_run), lifted, semi=True) is None
        ) == (find_condition_violation(seq, cond, semi=True) is None)
        table.add_row(seed, len(raw_run), len(dummified_run), semi_ok, agree)
        assert len(raw_run) < 100  # Lemma 4.2's converse: relay quiesces
        assert len(dummified_run) == 100  # Lemma 5.1: dummified never does
        assert semi_ok and agree
    emit(table)

    run = runs[0]
    benchmark(lambda: undum(project(run)))
