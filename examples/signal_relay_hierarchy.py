"""Hierarchical proof of the signal relay (paper Section 6).

Builds the relay line, dummifies it (its timed executions are finite),
constructs the intermediate requirements automata ``B_{n-1} … B_0`` and
checks the whole mapping hierarchy

    time(Ã, b̃) → B_{n-1} → … → B_0 → B

in lockstep along simulated executions — each ``f_k`` is the assertional
counterpart of one recurrence step ``T_k = T_{k+1} + [d1, d2]``, and the
recurrence baseline is printed alongside for comparison.

Run:  python examples/signal_relay_hierarchy.py
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator, separations_after
from repro.analyze.recurrence import relay_chain
from repro.table import Table
from repro.core import check_chain_on_run, project, undum
from repro.sim import Simulator, UniformStrategy
from repro.systems import (
    SIGNAL,
    RelayParams,
    RelaySystem,
    relay_hierarchy,
)
from repro.timed import Interval


def main() -> None:
    params = RelayParams(n=5, d1=F(1), d2=F(2))
    system = RelaySystem(params, dummy_interval=Interval(F(1, 2), F(1)))
    chain = relay_hierarchy(system)

    print("Signal relay (Section 6): n={}, hop bound [{}, {}]".format(
        params.n, params.d1, params.d2))
    print("Mapping hierarchy ({} levels):".format(len(chain)))
    for mapping in chain:
        print("  ", mapping.name)

    print()
    print("Operational (recurrence) argument for comparison:")
    for line in relay_chain(params).explain():
        print("  ", line)

    delays = BoundsAccumulator()
    steps = 0
    for seed in range(25):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=120
        )
        outcome = check_chain_on_run(chain, run)
        outcome.raise_if_failed()
        steps += outcome.steps_checked
        seq = undum(project(run))
        delays.add_all(separations_after(seq.events, SIGNAL(0), SIGNAL(params.n)))

    table = Table("Theorem 6.4 — paper bound vs 25 seeded runs", [
        "quantity", "paper bound", "measured span", "within",
    ])
    table.add_row(
        "SIGNAL_0 → SIGNAL_n",
        repr(params.end_to_end_interval),
        repr(delays.span()),
        delays.all_within(params.end_to_end_interval),
    )
    table.print()
    print()
    print("hierarchy obligations checked across all levels on {} steps".format(steps))


if __name__ == "__main__":
    main()
