"""E3 — Lemma 4.3: the Section 4.3 mapping is a strong possibilities
mapping.

Checks the mapping along seeded runs and exhaustively on a rational
grid; the mutation rows confirm that *tighter-than-true* requirement
bounds are refuted (the check is not vacuous).  Benchmarks the lockstep
checker.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import check_mapping_exhaustive, check_mapping_on_run
from repro.core.mappings import InequalityMapping
from repro.core.time_automaton import time_of_conditions
from repro.sim import ExtremalStrategy, Simulator, UniformStrategy
from repro.systems import (
    GRANT,
    ResourceManagerParams,
    ResourceManagerSystem,
    resource_manager_mapping,
)
from repro.systems.mappings_rm import resource_manager_mapping_over
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval

from conftest import emit


def refute_with_runs(system, mapping, seeds=range(30)):
    for seed in seeds:
        run = Simulator(system.algorithm, ExtremalStrategy(random.Random(seed))).run(
            max_steps=250
        )
        if not check_mapping_on_run(mapping, run).ok:
            return True
    return False


def permissive_mapping_against(system, g1_interval, g2_interval):
    g1 = TimingCondition.from_start("G1", g1_interval, [GRANT])
    g2 = TimingCondition.after_action("G2", g2_interval, GRANT, [GRANT])
    bad = time_of_conditions(system.timed.automaton, [g1, g2], name="mutant")
    return InequalityMapping(system.algorithm, bad, (), name="mutant")


def test_e3_mapping_rm(benchmark):
    params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
    system = ResourceManagerSystem(params)
    mapping = resource_manager_mapping(system)

    table = Table(
        "E3 / Lemma 4.3 — mapping check results",
        ["case", "method", "steps", "verdict (expected)"],
    )

    run_steps = 0
    all_ok = True
    for seed in range(15):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=200
        )
        outcome = check_mapping_on_run(mapping, run)
        run_steps += outcome.steps_checked
        all_ok = all_ok and outcome.ok
    table.add_row("paper mapping", "15 seeded runs", run_steps,
                  "holds (holds)" if all_ok else "FAILS (holds)")
    assert all_ok

    exhaustive = check_mapping_exhaustive(mapping, grid=F(1), horizon=F(10))
    table.add_row("paper mapping", "exhaustive grid=1 horizon=10",
                  exhaustive.steps_checked,
                  "holds (holds)" if exhaustive.ok else "FAILS (holds)")
    assert exhaustive.ok

    # Ground truth, mapping-free: direct semantic behavior inclusion
    # (the conclusion of Theorem 3.4) agrees with the mapping verdict.
    from repro.core import check_semantic_inclusion

    semantic = check_semantic_inclusion(
        system.algorithm, [system.g1, system.g2], grid=F(1), horizon=F(9),
        max_executions=150_000,
    )
    table.add_row("requirements G1, G2", "semantic inclusion (no mapping)",
                  semantic.executions_checked,
                  "holds (holds)" if semantic.ok else "FAILS (holds)")
    assert semantic.ok and not semantic.truncated

    # Mutation 1: claim G1's upper bound without the +l slack.  The
    # Section 4.3 inequalities cannot even be established in the start
    # state (min Lt = k·c2 < Lt(TICK) + (k−1)·c2 + l), so the check
    # refutes the mutant immediately.
    g1 = TimingCondition.from_start(
        "G1", Interval(params.k * params.c1, params.k * params.c2), [GRANT]
    )
    g2 = TimingCondition.after_action("G2", params.grant_gap_interval, GRANT, [GRANT])
    mutant_req = time_of_conditions(system.timed.automaton, [g1, g2], name="mutant")
    # The Section 4.3 declaration itself, pointed at the mutant.
    tight_upper = resource_manager_mapping_over(system.algorithm, mutant_req, params)
    run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(max_steps=50)
    refuted = not check_mapping_on_run(tight_upper, run).ok
    table.add_row("G1 upper −l (mutant)", "Section 4.3 inequalities", "-",
                  "refuted (refuted)" if refuted else "NOT refuted (refuted)")
    assert refuted

    # Mutation 2: claim a G1 lower bound above the true infimum.  Some
    # extremal run reaches a first GRANT below the claimed bound, so
    # even the fully permissive mapping fails target enabledness.
    tight_lower = permissive_mapping_against(
        system,
        Interval(params.k * params.c1 + F(1, 2), params.k * params.c2 + params.l),
        params.grant_gap_interval,
    )
    refuted = refute_with_runs(system, tight_lower)
    table.add_row("G1 lower +1/2 (mutant)", "extremal runs, permissive f", "-",
                  "refuted (refuted)" if refuted else "NOT refuted (refuted)")
    assert refuted

    emit(table)

    run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(
        max_steps=200
    )
    benchmark(lambda: check_mapping_on_run(mapping, run))
