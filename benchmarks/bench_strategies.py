"""E14 — scheduling-strategy ablation.

How well does each strategy explore the *exact* bound interval (from
E10's zone analysis)?  Coverage = observed span / exact span, per
strategy with a fixed simulation budget — quantifying the design choice
that boundary-seeking (extremal/eager/lazy) samplers find tight ends
that uniform sampling approaches only slowly.
"""

import random
from fractions import Fraction as F

import pytest

from repro.errors import ReproError
from repro.sim.bounds import gaps, occurrence_times
from repro.table import Table
from repro.sim import (
    EagerStrategy,
    ExtremalStrategy,
    LazyStrategy,
    Simulator,
    UniformStrategy,
)
from repro.sim.trace import timed_behavior_of_run
from repro.systems import GRANT, ResourceManagerParams, ResourceManagerSystem
from repro.timed import Interval
from repro.zones import event_separation_bounds

from conftest import emit

STRATEGIES = {
    "uniform": UniformStrategy,
    "eager": EagerStrategy,
    "lazy": LazyStrategy,
    "extremal": ExtremalStrategy,
}

RUNS = 12
STEPS = 200


def interval_coverage(values, interval):
    """How much of ``interval`` the sample's span covers, as a Fraction
    in ``[0, 1]``: ``(max − min) / (hi − lo)``.

    1 means both ends were attained; 0 means at most a point was seen.
    A zero-width interval counts as fully covered by any non-empty
    sample; a sample outside the interval, or an unbounded interval,
    raises.
    """
    if not values:
        return F(0)
    low, high = min(values), max(values)
    if not (interval.contains(low) and interval.contains(high)):
        raise ReproError(
            "sample span [{!r}, {!r}] escapes the interval {!r}".format(
                low, high, interval
            )
        )
    if not interval.is_upper_bounded:
        raise ReproError("coverage of an unbounded interval is undefined")
    if interval.width == 0:
        return F(1)
    return F(high - low) / F(interval.width)


@pytest.mark.parametrize(
    "values, interval, coverage",
    [
        ([2, 5], Interval(2, 5), 1),
        ([2, F(7, 2)], Interval(2, 5), F(1, 2)),
        ([], Interval(2, 5), 0),
        ([3], Interval(2, 5), 0),
        ([2], Interval(2, 2), 1),
    ],
)
def test_interval_coverage(values, interval, coverage):
    assert interval_coverage(values, interval) == coverage


@pytest.mark.parametrize(
    "values, interval", [([1, 3], Interval(2, 5)), ([3], Interval.at_least(2))]
)
def test_interval_coverage_rejects(values, interval):
    with pytest.raises(ReproError):
        interval_coverage(values, interval)


def gap_samples(system, strategy_cls, runs=RUNS, steps=STEPS):
    samples = []
    for seed in range(runs):
        run = Simulator(system.algorithm, strategy_cls(random.Random(seed))).run(
            max_steps=steps
        )
        times = occurrence_times(
            timed_behavior_of_run(system.timed.automaton, run), GRANT
        )
        samples.extend(gaps(times))
    return samples


def test_e14_strategy_coverage(benchmark):
    params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
    system = ResourceManagerSystem(params)
    exact = event_separation_bounds(
        system.timed, GRANT, occurrence=2, reset_on=[GRANT]
    )
    exact_interval = Interval(exact.lo, exact.hi)

    table = Table(
        "E14 — GRANT-gap interval coverage per strategy "
        "({} runs x {} steps; exact interval {!r})".format(
            RUNS, STEPS, exact_interval
        ),
        ["strategy", "samples", "observed min", "observed max", "coverage"],
    )
    coverages = {}
    for name, strategy_cls in sorted(STRATEGIES.items()):
        samples = gap_samples(system, strategy_cls)
        coverage = interval_coverage(samples, exact_interval)
        coverages[name] = coverage
        table.add_row(
            name, len(samples),
            min(samples) if samples else None,
            max(samples) if samples else None,
            "{:.0%}".format(float(coverage)),
        )
        assert samples, "strategy {} produced no gaps".format(name)
    emit(table)

    # The boundary-seeking sampler must dominate uniform sampling.
    assert coverages["extremal"] >= coverages["uniform"]

    benchmark(lambda: gap_samples(system, ExtremalStrategy, runs=3, steps=100))
