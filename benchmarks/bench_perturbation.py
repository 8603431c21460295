"""E17 — timing-tolerance search across every shipped system.

How much proportional drift ``ε`` can each system's bounds absorb
before its proofs (mappings, Lemma 2.1, zone bounds, safety) first
fail?  The perturbation harness binary-searches the threshold; theory
predicts it exactly from the bound ratios, so the measured bracket
must contain the predicted breaking point:

* resource manager (tighten):  (c2 - c1)/(c2 + c1) = 1/5
* signal relay     (tighten):  (d2 - d1)/(d2 + d1) = 1/3
* two-stage chain  (tighten):  1/5  (the [2, 3] stage inverts first)
* Fischer          (widen):    (b - a)/(a + b)     = 1/3
* Fischer a = b    (widen):    broken at ε = 0 (zero tolerance)
* Peterson / tournament:       untimed mutex — immune, ceiling hit
"""

from fractions import Fraction as F

from repro.table import Table
from repro.catalog import SURFACE_SYSTEMS
from repro.faults import Budget, build_perturb_target

from conftest import emit

RESOLUTION = F(1, 32)

PREDICTED = {
    "rm": F(1, 5),
    "relay": F(1, 3),
    "chain": F(1, 5),
    "fischer": F(1, 3),
    "fischer-tight": F(0),
    "peterson": None,
    "tournament": None,
}


def budget():
    return Budget(max_states=100_000, max_steps=1_000_000, wall_time=30)


def search(name, resolution=RESOLUTION):
    target = build_perturb_target(name, seeds=2, steps=60)
    return target.search(resolution=resolution, budget_factory=budget)


def verdict_of(report):
    if report.broken:
        return "BROKEN at eps=0"
    if report.ceiling_hit:
        return "immune (ceiling {} hit)".format(report.ceiling)
    return "tolerance in [{}, {})".format(report.tolerance, report.breaking_epsilon)


def test_e17_tolerance_matches_theory(benchmark):
    table = Table(
        "E17 — timing tolerance per system "
        "(binary search, resolution {})".format(RESOLUTION),
        ["system", "direction", "predicted eps*", "measured", "probes"],
    )
    reports = {}
    for name in SURFACE_SYSTEMS:
        report = search(name)
        reports[name] = report
        predicted = PREDICTED[name]
        table.add_row(
            name,
            "{} {}".format(report.direction, report.mode),
            str(predicted) if predicted is not None else "∞ (untimed)",
            verdict_of(report),
            report.probes,
        )
    emit(table)

    for name, predicted in PREDICTED.items():
        report = reports[name]
        assert not report.exhausted_budget, name
        if predicted is None:
            assert report.ceiling_hit, name
        elif predicted == 0:
            assert report.broken, name
        else:
            # The bracket [tolerance, breaking_epsilon) straddles the
            # theoretical threshold and is one resolution step wide.
            assert report.tolerance < predicted <= report.breaking_epsilon, name
            assert report.breaking_epsilon - report.tolerance <= RESOLUTION, name

    benchmark(lambda: search("fischer", resolution=F(1, 8)))
