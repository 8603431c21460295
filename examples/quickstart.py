"""Quickstart: the paper's resource manager, end to end.

Builds the Section 4 system (clock ∥ manager), simulates the
predictive-time automaton ``time(A, b)``, measures the GRANT times
against Theorem 4.4's bounds, checks Lemma 4.1's invariant, and
machine-checks the Section 4.3 strong possibilities mapping along every
simulated run.

Run:  python examples/quickstart.py
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator, gaps, occurrence_times
from repro.table import Table
from repro.core import check_mapping_on_run, project
from repro.sim import Simulator, UniformStrategy
from repro.sim.trace import timed_behavior_of_run
from repro.systems import (
    GRANT,
    ResourceManagerParams,
    ResourceManagerSystem,
    lemma_4_1_predicate,
    resource_manager_mapping,
)


def main() -> None:
    params = ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
    system = ResourceManagerSystem(params)
    mapping = resource_manager_mapping(system)
    invariant = lemma_4_1_predicate(system)

    print("Resource manager (Section 4):", params)
    print("  paper first-GRANT bound :", params.first_grant_interval)
    print("  paper GRANT-gap bound   :", params.grant_gap_interval)

    first_times = BoundsAccumulator()
    gap_times = BoundsAccumulator()
    steps_checked = 0
    for seed in range(20):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=300
        )
        # Lemma 4.1: the invariant holds in every state visited.
        assert all(invariant(state) for state in run.states)
        # Lemma 4.3: the mapping obligations hold at every step.
        outcome = check_mapping_on_run(mapping, run)
        outcome.raise_if_failed()
        steps_checked += outcome.steps_checked
        # Theorem 4.4: measure GRANT times in the timed behavior.
        behavior = timed_behavior_of_run(system.timed.automaton, run)
        times = occurrence_times(behavior, GRANT)
        first_times.add(times[0])
        gap_times.add_all(gaps(times))

    table = Table("Theorem 4.4 — paper bound vs 20 seeded runs", [
        "quantity", "paper bound", "measured span", "within",
    ])
    table.add_row(
        "first GRANT",
        repr(params.first_grant_interval),
        repr(first_times.span()),
        first_times.all_within(params.first_grant_interval),
    )
    table.add_row(
        "GRANT gap",
        repr(params.grant_gap_interval),
        repr(gap_times.span()),
        gap_times.all_within(params.grant_gap_interval),
    )
    table.print()
    print()
    print("mapping obligations checked on {} steps: all hold".format(steps_checked))


if __name__ == "__main__":
    main()
