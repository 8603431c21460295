"""E9 — Theorem 7.1 completeness: the canonical mapping.

Builds the Ext(s)-based canonical mapping with the exhaustive
first-occurrence estimator and checks it on every grid execution of the
dummified resource manager and relay; benchmarks the estimator.
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
from repro.systems import (
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
)
from repro.timed import Interval

from conftest import emit


def rm_case():
    system = ResourceManagerSystem(
        ResourceManagerParams(k=1, c1=F(2), c2=F(2), l=F(1))
    )
    dummified = dummify(system.timed, Interval(1, 1))
    algorithm = time_of_boundmap(dummified)
    target = time_of_conditions(
        dummified.automaton, dummify_conditions([system.g1, system.g2]), name="B~"
    )
    return "resource manager k=1", algorithm, target, F(8), F(6)


def relay_case():
    system = RelaySystem(RelayParams(n=2, d1=F(1), d2=F(1)), dummy_interval=Interval(1, 1))
    return "relay n=2", system.algorithm, system.requirements, F(6), F(4)


def test_e9_canonical_mapping(benchmark):
    table = Table(
        "E9 / Theorem 7.1 — canonical mapping, exhaustive grid check",
        ["system", "estimator window", "grid steps checked", "verdict"],
    )
    cases = [rm_case(), relay_case()]
    for name, algorithm, target, window, horizon in cases:
        estimator = ExhaustiveFirstEstimator(algorithm, grid=F(1, 2), window=window)
        mapping = CanonicalMapping(algorithm, target, estimator)
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=horizon)
        table.add_row(name, window, outcome.steps_checked,
                      "holds" if outcome.ok else "FAILS")
        assert outcome.ok, outcome.detail

    # Monte-Carlo estimator row.
    name, algorithm, target, _w, _h = rm_case()
    sampled = SamplingFirstEstimator(
        algorithm,
        strategy_factory=lambda seed: UniformStrategy(random.Random(seed)),
        runs=20,
        max_steps=40,
    )
    approx = CanonicalMapping(
        algorithm, target, sampled, upper_slack=F(1, 2), lower_slack=F(1, 2)
    )
    run = Simulator(algorithm, UniformStrategy(random.Random(77))).run(max_steps=40)
    outcome = check_mapping_on_run(approx, run)
    table.add_row(name + " (sampled, slack 1/2)", "-", outcome.steps_checked,
                  "holds" if outcome.ok else "FAILS")
    assert outcome.ok
    emit(table)

    estimator = ExhaustiveFirstEstimator(algorithm, grid=F(1, 2), window=F(8))
    (start,) = list(algorithm.start_states())
    g1 = target.condition("G1")
    benchmark(lambda: ExhaustiveFirstEstimator(
        algorithm, grid=F(1, 2), window=F(8)
    ).first_bounds(start, g1))
