"""E12 — scaling of the machinery itself.

Simulator event throughput, mapping-checker throughput and zone-graph
size as the paper's systems grow (relay length n, manager count k).
"""

import random
import time
from fractions import Fraction as F

from repro.table import Table
from repro.core import check_chain_on_run
from repro.sim import Simulator, UniformStrategy
from repro.systems import (
    GRANT,
    SIGNAL,
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    relay_hierarchy,
    resource_manager,
    signal_relay,
)
from repro.timed import Interval
from repro.zones import event_separation_bounds

from conftest import emit


def test_e12_simulator_scaling(benchmark):
    table = Table(
        "E12a — simulator and chain-checker scaling with relay length",
        ["n", "events simulated", "sim time (s)", "events/s",
         "chain levels", "check time (s)"],
    )
    for n in [1, 2, 4, 8, 12]:
        system = RelaySystem(
            RelayParams(n=n, d1=F(1), d2=F(2)), dummy_interval=Interval(F(1, 2), F(1))
        )
        started = time.perf_counter()
        run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(
            max_steps=400
        )
        sim_elapsed = time.perf_counter() - started
        chain = relay_hierarchy(system)
        started = time.perf_counter()
        outcome = check_chain_on_run(chain, run)
        check_elapsed = time.perf_counter() - started
        assert outcome.ok
        table.add_row(
            n, len(run), sim_elapsed,
            int(len(run) / sim_elapsed) if sim_elapsed else "-",
            len(chain), check_elapsed,
        )
    emit(table)

    system = RelaySystem(
        RelayParams(n=4, d1=F(1), d2=F(2)), dummy_interval=Interval(F(1, 2), F(1))
    )
    benchmark(
        lambda: Simulator(system.algorithm, UniformStrategy(random.Random(1))).run(
            max_steps=200
        )
    )


def test_e12_zone_scaling(benchmark):
    table = Table(
        "E12b — zone-graph size with system scale",
        ["system", "quantity", "zone nodes", "transitions"],
    )
    for k in [1, 2, 4, 6]:
        params = ResourceManagerParams(k=k, c1=F(2), c2=F(3), l=F(1))
        bounds = event_separation_bounds(
            resource_manager(params), GRANT, occurrence=2, reset_on=[GRANT]
        )
        table.add_row("RM k={}".format(k), "GRANT gap", bounds.nodes, bounds.transitions)
    for n in [2, 4, 6, 8]:
        params = RelayParams(n=n, d1=F(1), d2=F(2))
        bounds = event_separation_bounds(
            signal_relay(params), SIGNAL(n), occurrence=1, reset_on=[SIGNAL(0)]
        )
        table.add_row(
            "relay n={}".format(n), "end-to-end", bounds.nodes, bounds.transitions
        )
    emit(table)

    params = ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
    timed = resource_manager(params)
    benchmark(
        lambda: event_separation_bounds(timed, GRANT, occurrence=2, reset_on=[GRANT])
    )
