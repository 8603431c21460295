"""E5 — Lemma 6.2 / Corollary 6.3: the relay mapping hierarchy.

Checks every level of ``time(Ã, b̃) → B_{n-1} → … → B_0 → B`` in
lockstep along seeded runs, for increasing line lengths; benchmarks the
chain checker (the cost grows with the number of levels — the price of
the recurrence-structured proof, paid once per hop).
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator
from repro.table import Table
from repro.core import check_chain_on_run
from repro.sim import Simulator, UniformStrategy
from repro.systems import SIGNAL, RelayParams, RelaySystem, relay_hierarchy
from repro.timed import Interval

from conftest import emit

LENGTHS = [1, 2, 3, 5, 8]


def check_hierarchy(system, chain, seeds=range(8), steps=100):
    """Steps checked over the seeded runs, and the SIGNAL_0 → SIGNAL_n
    delay of each run."""
    total = 0
    delays = BoundsAccumulator()
    n = system.params.n
    for seed in seeds:
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=steps
        )
        outcome = check_chain_on_run(chain, run)
        outcome.raise_if_failed()
        total += outcome.steps_checked
        times = {}
        for _pre, event, _post in run.triples():
            times.setdefault(event.action, event.time)
        delays.add(times[SIGNAL(n)] - times[SIGNAL(0)])
    return total, delays


def test_e5_hierarchy(benchmark):
    table = Table(
        "E5 / Lemma 6.2 — hierarchical mapping chain, all levels lockstep",
        ["n", "levels", "per-level obligations checked", "paper", "measured", "verdict"],
    )
    systems = {}
    for n in LENGTHS:
        params = RelayParams(n=n, d1=F(1), d2=F(2))
        system = RelaySystem(params, dummy_interval=Interval(F(1, 2), F(1)))
        systems[n] = system
        chain = relay_hierarchy(system)
        steps, delays = check_hierarchy(system, chain)
        # Theorem 6.4: every run relays the signal in [n·d1, n·d2].
        assert params.end_to_end_interval == Interval(n * params.d1, n * params.d2)
        assert delays.count == 8
        assert delays.all_within(params.end_to_end_interval), (n, delays)
        assert len(chain) == n + 1
        table.add_row(
            n, len(chain), steps * len(chain), repr(params.end_to_end_interval),
            repr(delays.span()), "holds",
        )
    emit(table)

    system = systems[3]
    chain = relay_hierarchy(system)
    run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(
        max_steps=100
    )
    benchmark(lambda: check_chain_on_run(chain, run))
