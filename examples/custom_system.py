"""Building and analysing your *own* timed system with the toolkit.

Walks through the Section 8 extensions:

1. a request/response service closed by an environment automaton, with
   a step-triggered timing condition checked on simulated behaviors and
   exactly via zones;
2. the conclusions' "π triggers φ triggers ψ" two-event chain, proved
   hierarchically with heterogeneous per-stage bounds.

Run:  python examples/custom_system.py
"""

import random
from fractions import Fraction as F

from repro.sim.bounds import BoundsAccumulator, separations_after
from repro.table import Table
from repro.core import check_chain_on_run, project, time_of_boundmap
from repro.sim import Simulator, UniformStrategy
from repro.systems.extensions import (
    EVENT,
    ChainSystem,
    REPLY,
    REQUEST,
    RequestGrantParams,
    request_grant_system,
    response_condition,
)
from repro.timed import Interval
from repro.timed.satisfaction import find_condition_violation
from repro.zones import event_separation_bounds


def request_grant_demo() -> None:
    params = RequestGrantParams(r1=F(3), r2=F(4), l=F(1))
    timed = request_grant_system(params)
    condition = response_condition(params)
    automaton = time_of_boundmap(timed)

    print("Request/grant service: requests every [{} , {}], service bound "
          "[0, {}]".format(params.r1, params.r2, params.l))

    measured = BoundsAccumulator()
    for seed in range(15):
        run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
            max_steps=200
        )
        seq = project(run)
        violation = find_condition_violation(seq, condition, semi=True)
        assert violation is None, violation
        measured.add_all(separations_after(seq.events, REQUEST, REPLY))

    exact = event_separation_bounds(timed, REPLY, occurrence=1, reset_on=[REQUEST])
    table = Table("REQUEST → REPLY response time", [
        "claimed", "measured span (15 runs)", "exact (zones)",
    ])
    table.add_row(repr(params.response_interval), repr(measured.span()), repr(exact))
    table.print()
    print()


def two_event_chain_demo() -> None:
    stages = [Interval(F(1), F(2)), Interval(F(3), F(4))]
    system = ChainSystem(stages, dummy_interval=Interval(F(1, 2), F(1)))
    print("Two-event chain: π→φ within {}, φ→ψ within {}".format(*map(repr, stages)))
    print("derived end-to-end requirement:", system.requirement.interval)

    chain = system.hierarchy()
    checked = 0
    for seed in range(15):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=80
        )
        outcome = check_chain_on_run(chain, run)
        outcome.raise_if_failed()
        checked += outcome.steps_checked

    exact = event_separation_bounds(
        system.timed, EVENT(2), occurrence=1, reset_on=[EVENT(0)]
    )
    table = Table("π → ψ end-to-end delay", ["derived bound", "exact (zones)", "tight"])
    table.add_row(
        repr(system.requirement.interval),
        repr(exact),
        exact.tight(system.requirement.interval),
    )
    table.print()
    print()
    print("hierarchy obligations checked on {} steps".format(checked))


if __name__ == "__main__":
    request_grant_demo()
    two_event_chain_demo()
