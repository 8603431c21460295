"""E6 — Lemma 2.1 / Corollary 2.2: the direct boundmap semantics and
the cond(C) timing-condition semantics agree.

Runs both checkers over valid runs and systematically perturbed
(time-scaled) variants; every verdict pair must agree.  Benchmarks one
agreement check.
"""

import random
from fractions import Fraction as F

from repro.table import Table
from repro.core import project, time_of_boundmap
from repro.sim import Simulator, UniformStrategy
from repro.systems import (
    RelayParams,
    ResourceManagerParams,
    resource_manager,
    signal_relay,
)
from repro.core.dummification import dummify
from repro.timed.semantics import check_lemma_2_1
from repro.timed.timed_sequence import TimedSequence

from conftest import emit

SCALES = [F(1, 10), F(1, 2), F(9, 10), F(1), F(11, 10), F(2), F(10)]


def systems():
    yield "resource-manager", resource_manager(
        ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
    )
    yield "relay (dummified)", dummify(
        signal_relay(RelayParams(n=3, d1=F(1), d2=F(2)))
    )


def agreement_counts(timed, seeds=range(8)):
    automaton = time_of_boundmap(timed)
    agreements = 0
    accepted = 0
    rejected = 0
    for seed in seeds:
        run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
            max_steps=60
        )
        seq = project(run)
        for scale in SCALES:
            scaled = TimedSequence(
                seq.states, [(ev.action, ev.time * scale) for ev in seq.events]
            )
            report = check_lemma_2_1(timed, scaled, semi=True)
            assert report.agree, "Lemma 2.1 equivalence broken"
            agreements += 1
            if report.accepted:
                accepted += 1
            else:
                rejected += 1
    return agreements, accepted, rejected


def test_e6_lemma_2_1(benchmark):
    table = Table(
        "E6 / Lemma 2.1 — Definition 2.1 vs cond(C) verdicts on scaled runs",
        ["system", "verdict pairs", "agreements", "accepted", "rejected"],
    )
    first = None
    for name, timed in systems():
        total, accepted, rejected = agreement_counts(timed)
        table.add_row(name, total, total, accepted, rejected)
        if first is None:
            first = timed
    emit(table)

    automaton = time_of_boundmap(first)
    run = Simulator(automaton, UniformStrategy(random.Random(0))).run(max_steps=60)
    seq = project(run)
    benchmark(lambda: check_lemma_2_1(first, seq, semi=True))
