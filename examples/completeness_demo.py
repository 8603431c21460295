"""The completeness construction (paper Section 7, Theorem 7.1).

Given that the resource manager satisfies its requirements, the theorem
says a strong possibilities mapping must exist — and exhibits the
canonical one, whose inequalities compare the requirements automaton's
``Ft/Lt`` against the inf/sup of *first-occurrence times* over all
admissible extensions ``Ext(s)``.

This demo computes those inf/sup values exactly for the grid semantics
(exhaustive estimator), checks the canonical mapping on every grid
execution, and then repeats the check with a Monte-Carlo estimator plus
slack.

Run:  python examples/completeness_demo.py
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import (
    CanonicalMapping,
    ExhaustiveFirstEstimator,
    SamplingFirstEstimator,
    check_mapping_exhaustive,
    check_mapping_on_run,
    dummify,
    dummify_conditions,
    time_of_boundmap,
    time_of_conditions,
)
from repro.sim import Simulator, UniformStrategy
from repro.systems import ResourceManagerParams, ResourceManagerSystem
from repro.timed import Interval


def main() -> None:
    params = ResourceManagerParams(k=2, c1=F(2), c2=F(2), l=F(1))
    system = ResourceManagerSystem(params)
    # Theorem 7.1 works on the dummification.
    dummified = dummify(system.timed, Interval(1, 1))
    algorithm = time_of_boundmap(dummified)
    conditions = dummify_conditions([system.g1, system.g2])
    requirements = time_of_conditions(dummified.automaton, conditions, name="B~")

    print("Canonical mapping for the resource manager", params)

    estimator = ExhaustiveFirstEstimator(algorithm, grid=F(1, 2), window=F(12))
    (start,) = list(algorithm.start_states())
    table = Table("first-occurrence statistics over Ext(start)", [
        "condition", "inf first_Π (→ Ft bound)", "sup first (→ Lt bound)",
    ])
    for cond in requirements.conditions:
        sup_first, inf_first = estimator.first_bounds(start, cond)
        table.add_row(cond.name, inf_first, sup_first)
    table.print()

    canonical = CanonicalMapping(algorithm, requirements, estimator)
    outcome = check_mapping_exhaustive(canonical, grid=F(1, 2), horizon=F(9))
    outcome.raise_if_failed()
    print()
    print(
        "exhaustive grid check of the canonical mapping: {} steps, all "
        "obligations hold".format(outcome.steps_checked)
    )

    sampled = SamplingFirstEstimator(
        algorithm,
        strategy_factory=lambda seed: UniformStrategy(random.Random(seed)),
        runs=25,
        max_steps=60,
    )
    approx = CanonicalMapping(
        algorithm, requirements, sampled, upper_slack=F(1, 2), lower_slack=F(1, 2)
    )
    run = Simulator(algorithm, UniformStrategy(random.Random(123))).run(max_steps=60)
    check_mapping_on_run(approx, run).raise_if_failed()
    print(
        "Monte-Carlo canonical mapping (25 samples, slack 1/2) holds on a "
        "{}-step run".format(len(run))
    )


if __name__ == "__main__":
    main()
