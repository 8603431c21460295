"""E16 — the full [PF77] tournament algorithm (the paper's named
future-work example).

Mutual exclusion is checked exhaustively (untimed reachability, which
subsumes every timed execution) for n = 2, 4 and bounded for n = 8;
the contention bound generalises Peterson's: simulated first-entry
times stay within the recurrence interval ``3·h·[s1, s2]`` (three
winner steps per tournament level), the deterministic-step case is
zone-exact at ``3·h·s``, and for n ≤ 4 the jittered case is zone-exact
at ``3·h·[s1, s2]``.
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator
from repro.table import Table
from repro.core.time_automaton import time_of_boundmap
from repro.ioa.explorer import check_invariant
from repro.sim import ExtremalStrategy, Simulator, UniformStrategy
from repro.systems.extensions.tournament import (
    ADVANCE,
    TournamentParams,
    tournament_automaton,
    tournament_mutex_violated,
    tournament_system,
)
from repro.timed import Interval
from repro.zones.analysis import event_separation_bounds

from conftest import emit


def enter_group(n: int):
    height = n.bit_length() - 1
    return {ADVANCE(i, height - 1) for i in range(n)}


def simulated_first_entries(params: TournamentParams, seeds=range(20), steps=250):
    automaton = time_of_boundmap(tournament_system(params))
    group = enter_group(params.n)
    acc = BoundsAccumulator()
    for seed in seeds:
        strategy = (
            UniformStrategy(random.Random(seed))
            if seed % 2
            else ExtremalStrategy(random.Random(seed))
        )
        run = Simulator(automaton, strategy).run(max_steps=steps)
        entries = [ev.time for ev in run.events if ev.action in group]
        if entries:
            acc.add(entries[0])
    return acc


def test_e16_tournament(benchmark):
    safety = Table(
        "E16a — tournament mutual exclusion (untimed reachability ⊇ timed)",
        ["n", "reachable states", "exhaustive", "mutex"],
    )
    for n, cap in [(2, 100_000), (4, 100_000), (8, 60_000)]:
        params = TournamentParams(n=n, s1=F(1), s2=F(2), repeat=True)
        report = check_invariant(
            tournament_automaton(params),
            lambda s: not tournament_mutex_violated(s),
            max_states=cap,
        )
        safety.add_row(
            n, report.states_checked,
            not report.truncated, "holds" if report.holds else "VIOLATED",
        )
        assert report.holds
    emit(safety)

    timing = Table(
        "E16b — first entry under full contention vs the 3·h·[s1,s2] recurrence",
        [
            "n", "h", "recurrence", "simulated span (20 runs)", "within",
            "zone-exact (s1=s2)", "zone-exact (s1<s2)",
        ],
    )
    for n in (2, 4, 8):
        params = TournamentParams(n=n, s1=F(1), s2=F(2), e=F(1), repeat=True)
        h = params.height
        recurrence = Interval(3 * h * params.s1, 3 * h * params.s2)
        acc = simulated_first_entries(params)
        det = TournamentParams(n=n, s1=F(1), s2=F(1))
        jittered = TournamentParams(n=n, s1=F(1), s2=F(2))
        if n <= 4:
            exact = event_separation_bounds(
                tournament_system(det), enter_group(n), occurrence=1,
                max_nodes=150_000,
            )
            exact_text = repr(exact)
            assert exact.lo == exact.hi == 3 * h * det.s1
            spread = event_separation_bounds(
                tournament_system(jittered), enter_group(n), occurrence=1,
                max_nodes=150_000,
            )
            spread_text = "{!r} ({} nodes)".format(spread, spread.nodes)
            assert (spread.lo, spread.hi) == (recurrence.lo, recurrence.hi)
        else:
            exact_text = spread_text = "(skipped; see EXPERIMENTS)"
        timing.add_row(
            n, h, repr(recurrence), repr(acc.span()),
            acc.all_within(recurrence), exact_text, spread_text,
        )
        assert acc.count > 0 and acc.all_within(recurrence)
    emit(timing)

    params = TournamentParams(n=4, s1=F(1), s2=F(2), e=F(1), repeat=True)
    benchmark(lambda: simulated_first_entries(params, seeds=range(4), steps=150))
