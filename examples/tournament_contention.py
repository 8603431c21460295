"""The full [PF77] tournament under contention.

"One particularly good example to try is the full tournament mutual
exclusion algorithm from [PF77]" — the paper's Section 8.  This demo
runs the whole pipeline on it:

1. exhaustive mutual-exclusion check (untimed reachability, which
   subsumes every timing);
2. contention analysis: first entry within the recurrence interval
   ``3·h·[s1, s2]``, with the deterministic case proven exactly by the
   zone engine;
3. a look at one contended execution as a timeline.

Run:  python examples/tournament_contention.py
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator
from repro.table import Table
from repro.sim.timeline import render_timeline
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


def enter_group(n: int):
    height = n.bit_length() - 1
    return {ADVANCE(i, height - 1) for i in range(n)}


def main() -> None:
    table = Table(
        "Tournament mutual exclusion — safety and contention",
        ["n", "h", "mutex (exhaustive)", "recurrence 3h·[s1,s2]",
         "simulated span", "zone-exact (s1=s2=1)"],
    )
    for n in (2, 4):
        params = TournamentParams(n=n, s1=F(1), s2=F(2), e=F(1), repeat=True)
        h = params.height
        report = check_invariant(
            tournament_automaton(params),
            lambda s: not tournament_mutex_violated(s),
        )
        assert report.holds
        recurrence = Interval(3 * h * params.s1, 3 * h * params.s2)
        automaton = time_of_boundmap(tournament_system(params))
        acc = BoundsAccumulator()
        for seed in range(15):
            strategy = (
                UniformStrategy(random.Random(seed))
                if seed % 2
                else ExtremalStrategy(random.Random(seed))
            )
            run = Simulator(automaton, strategy).run(max_steps=200)
            entries = [ev.time for ev in run.events if ev.action in enter_group(n)]
            if entries:
                acc.add(entries[0])
        exact = event_separation_bounds(
            tournament_system(TournamentParams(n=n, s1=F(1), s2=F(1))),
            enter_group(n),
            occurrence=1,
            max_nodes=150_000,
        )
        table.add_row(
            n, h, "holds ({} states)".format(report.states_checked),
            repr(recurrence), repr(acc.span()), repr(exact),
        )
    table.print()

    print()
    print("A contended n=4 execution (first 18 events):")
    params = TournamentParams(n=4, s1=F(1), s2=F(2), e=F(1), repeat=True)
    automaton = time_of_boundmap(tournament_system(params))
    run = Simulator(automaton, UniformStrategy(random.Random(3))).run(max_steps=60)
    for line in render_timeline(run, limit=18).splitlines():
        # Timelines over TimeStates are verbose; show the event column only.
        print(" ", line.split("  As=")[0])


if __name__ == "__main__":
    main()
