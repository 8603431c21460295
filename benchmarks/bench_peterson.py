"""E15 — Peterson's mutual exclusion: the paper's named future-work
example ([PF77] via the [LG89] recurrence analysis).

Asynchronous safety holds for every boundmap (exhaustive check); the
contention bound — the time until *someone* enters when both processes
compete — is exactly ``[3·s1, 3·s2]``, matching the three-milestone
recurrence argument, across a parameter sweep.
"""

import random
from fractions import Fraction as F

from repro.analyze.recurrence import peterson_first_entry_chain
from repro.table import Table
from repro.ioa.explorer import check_invariant
from repro.systems.extensions.peterson import (
    ENTER,
    PetersonParams,
    both_critical,
    peterson_automaton,
    peterson_system,
)
from repro.zones.analysis import event_separation_bounds, find_reachable_state

from conftest import emit

SWEEP = [
    (F(1), F(2)),
    (F(0), F(1)),
    (F(1), F(10)),
    (F(2), F(3)),
    (F(1, 2), F(5, 2)),
]


def first_entry(params: PetersonParams):
    return event_separation_bounds(
        peterson_system(params),
        {ENTER(1), ENTER(2)},
        occurrence=1,
        max_nodes=200_000,
    )


def test_e15_peterson(benchmark):
    table = Table(
        "E15 — Peterson 2-process: contention bound, recurrence vs exact",
        ["s1", "s2", "recurrence 3·[s1,s2]", "exact (zones)", "tight", "mutex"],
    )
    untimed = check_invariant(
        peterson_automaton(PetersonParams(s1=F(1), s2=F(2), repeat=True)),
        lambda s: not both_critical(s),
    )
    assert untimed.holds
    for s1, s2 in SWEEP:
        params = PetersonParams(s1=s1, s2=s2)
        operational = peterson_first_entry_chain(params.step_interval).total()
        exact = first_entry(params)
        tight = (exact.lo, exact.hi) == (operational.lo, operational.hi)
        timed_bad = find_reachable_state(
            peterson_system(PetersonParams(s1=s1, s2=s2, e=F(1), repeat=True)),
            both_critical,
            max_nodes=300_000,
        )
        table.add_row(
            s1, s2, repr(operational), repr(exact), tight,
            "holds" if timed_bad is None else "VIOLATED",
        )
        assert tight and timed_bad is None
    emit(table)

    params = PetersonParams(s1=F(1), s2=F(2))
    benchmark(lambda: first_entry(params))
