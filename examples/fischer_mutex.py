"""Fischer's timed mutual exclusion — the paper's Section 8 direction.

The conclusions call for applying the method to real timing-based
algorithms.  Fischer's protocol is the canonical one: safety (mutual
exclusion) holds or fails purely by the relationship between the set
delay ``a`` and the wait-before-check ``b``.

This demo decides both directions *exactly* with the zone engine, shows
a concrete violating interleaving via adversarial simulation, and the
bounded-critical-section ablation (e < b rescues some a ≥ b configs).

Run:  python examples/fischer_mutex.py
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import time_of_boundmap
from repro.sim import ExtremalStrategy, Simulator
from repro.systems.extensions import (
    FischerParams,
    fischer_system,
    mutual_exclusion_violated,
)
from repro.zones.analysis import find_reachable_state


def verdict(params: FischerParams) -> str:
    bad = find_reachable_state(
        fischer_system(params), mutual_exclusion_violated, max_nodes=400_000
    )
    return "VIOLABLE ({!r})".format(bad) if bad is not None else "SAFE"


def main() -> None:
    table = Table(
        "Fischer mutual exclusion — exact safety verdicts (zone reachability)",
        ["n", "a (set)", "b (wait)", "e (critical)", "b > a", "verdict"],
    )
    cases = [
        FischerParams(n=2, a=F(1), b=F(2)),
        FischerParams(n=2, a=F(1), b=F(3, 2)),
        FischerParams(n=2, a=F(1), b=F(1)),
        FischerParams(n=2, a=F(2), b=F(1)),
        FischerParams(n=3, a=F(1), b=F(2)),
        FischerParams(n=2, a=F(3), b=F(2)),          # unsafe (textbook)
        FischerParams(n=2, a=F(3), b=F(2), e=F(1)),  # rescued by short CS
    ]
    for params in cases:
        table.add_row(
            params.n, params.a, params.b,
            "inf" if params.e == float("inf") else params.e,
            params.safe, verdict(params),
        )
    table.print()

    print()
    print("Adversarial simulation witness for a=2, b=1 (violable):")
    params = FischerParams(n=2, a=F(2), b=F(1), e=F(1))
    automaton = time_of_boundmap(fischer_system(params))
    for seed in range(200):
        run = Simulator(automaton, ExtremalStrategy(random.Random(seed))).run(
            max_steps=120
        )
        for state in run.states:
            if mutual_exclusion_violated(state.astate):
                print(
                    "  seed {}: reached {!r} at t = {}".format(
                        seed, state.astate, state.now
                    )
                )
                return
    print("  (no witness found in 200 seeds — the zone verdict stands regardless)")


if __name__ == "__main__":
    main()
