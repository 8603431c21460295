"""E13 — Fischer's mutual exclusion (the Section 8 application).

Exact safety verdicts across the (a, b) plane — safe iff b > a in the
textbook (unbounded critical section) setting — plus the bounded-e
ablation.  Benchmarks one full safety decision.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import time_of_boundmap
from repro.sim import ExtremalStrategy, Simulator, UniformStrategy
from repro.systems.extensions import (
    FischerParams,
    fischer_system,
    mutual_exclusion_violated,
)
from repro.zones.analysis import find_reachable_state

from conftest import emit


def decide(params: FischerParams):
    return find_reachable_state(
        fischer_system(params), mutual_exclusion_violated, max_nodes=400_000
    )


def test_e13_fischer_safety(benchmark):
    table = Table(
        "E13 — Fischer safety across the (a, b) plane (n=2, e=inf unless noted)",
        ["a", "b", "e", "theory (b>a)", "zone verdict", "agree"],
    )
    for a, b in [
        (F(1), F(2)),
        (F(1), F(3, 2)),
        (F(2), F(3)),
        (F(1), F(1)),
        (F(2), F(1)),
        (F(3), F(2)),
    ]:
        params = FischerParams(n=2, a=a, b=b)
        bad = decide(params)
        zone_safe = bad is None
        table.add_row(a, b, "inf", params.safe,
                      "safe" if zone_safe else "violable", zone_safe == params.safe)
        assert zone_safe == params.safe

    # Ablation: a bounded critical section rescues a=3 > b=2.
    rescued = FischerParams(n=2, a=F(3), b=F(2), e=F(1))
    bad = decide(rescued)
    table.add_row(F(3), F(2), F(1), False,
                  "safe" if bad is None else "violable", "(ablation)")
    assert bad is None

    # Contention timing (all processes start setting): first entry is
    # exactly [b, a + 2b] — the last setter wins, then waits b…2b.
    from repro.systems.extensions.fischer import ENTER
    from repro.zones.analysis import event_separation_bounds

    contending = FischerParams(n=2, a=F(1), b=F(2), contending=True)
    entry = event_separation_bounds(
        fischer_system(contending), {ENTER(1), ENTER(2)}, occurrence=1,
        max_nodes=300_000,
    )
    table.add_row(F(1), F(2), "inf", "-",
                  "first entry {!r} = [b, a+2b]".format(entry), "(timing)")
    assert entry.lo == contending.b and entry.hi == contending.a + 2 * contending.b

    # Simulation never violates in a safe configuration.
    params = FischerParams(n=2, a=F(1), b=F(2), e=F(1))
    automaton = time_of_boundmap(fischer_system(params))
    for seed in range(8):
        run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
            max_steps=150
        )
        assert all(not mutual_exclusion_violated(s.astate) for s in run.states)
    emit(table)

    target = FischerParams(n=2, a=F(1), b=F(2))
    benchmark(lambda: decide(target))
