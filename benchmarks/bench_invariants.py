"""E2 — Lemma 4.1: the resource manager's predictive-state invariant.

Checks ``TIMER ≥ 0`` and ``TIMER = 0 ⇒ Ft(TICK) ≥ Lt(LOCAL) + c1 − l``
exhaustively over the grid-reachable states of time(A, b) and along
seeded runs; benchmarks the exhaustive sweep.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core.discretize import discrete_options
from repro.sim import Simulator, UniformStrategy
from repro.systems import (
    ResourceManagerParams,
    ResourceManagerSystem,
    lemma_4_1_predicate,
)

from conftest import emit

SWEEP = [
    (ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1)), F(8)),
    (ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1)), F(10)),
    (ResourceManagerParams(k=3, c1=F(2), c2=F(2), l=F(1)), F(10)),
]


def exhaustive_states(system, grid, horizon):
    seen = set()
    frontier = list(system.algorithm.start_states())
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        for action, t in discrete_options(system.algorithm, state, grid, horizon):
            frontier.extend(system.algorithm.successors(state, action, t))
    return seen


def test_e2_lemma_4_1(benchmark):
    table = Table(
        "E2 / Lemma 4.1 — invariant over reachable predictive states",
        ["k", "c1", "c2", "l", "grid states", "invariant holds",
         "run states", "holds on runs"],
    )
    for params, horizon in SWEEP:
        system = ResourceManagerSystem(params)
        predicate = lemma_4_1_predicate(system)
        states = exhaustive_states(system, F(1, 2), horizon)
        grid_ok = all(predicate(s) for s in states)
        run_states = 0
        run_ok = True
        for seed in range(10):
            run = Simulator(
                system.algorithm, UniformStrategy(random.Random(seed))
            ).run(max_steps=200)
            run_states += len(run.states)
            run_ok = run_ok and all(predicate(s) for s in run.states)
        table.add_row(
            params.k, params.c1, params.c2, params.l,
            len(states), grid_ok, run_states, run_ok,
        )
        assert grid_ok and run_ok
    emit(table)

    system = ResourceManagerSystem(SWEEP[0][0])
    benchmark(lambda: exhaustive_states(system, F(1, 2), F(8)))
