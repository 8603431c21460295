"""Replayable event traces of checked runs (``python -m repro trace``).

A trace is the :class:`~repro.obs.instrument.TraceEvent` stream a
:class:`~repro.obs.instrument.Recorder` collects while one system is
simulated and checked: a ``trace.begin`` header, one ``sim.step`` event
per scheduled ``(action, time)`` pair (enough to re-execute the run
through the automaton), ``check.outcome`` / ``sim.deadlock`` terminal
events from the engines, and a ``trace.end`` summary.  Traces serialise
to versioned JSONL via :func:`repro.serialize.events_to_jsonl` and
round-trip exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, Tuple

from repro import catalog
from repro.errors import ReproError, SchedulingDeadlockError
from repro.obs.instrument import Recorder, recording

__all__ = ["trace_system"]

#: What each mapping system's trace checks along its run.
_MAPPING_CHECKS = {
    "rm": "Section 4.3 mapping",
    "relay": "Section 6 hierarchy",
    "chain": "Section 8 hierarchy",
}


def _trace_mappings(system, seed: int, steps: int) -> Dict[str, Any]:
    """One seeded run of the system, checked through its mappings: a
    single mapping on its own, a hierarchy level by level in lockstep."""
    from repro.core import MappingChain, check_chain_on_run, check_mapping_on_run
    from repro.sim import Simulator, UniformStrategy

    run = Simulator(system.system().algorithm, UniformStrategy(random.Random(seed))).run(
        max_steps=steps
    )
    mappings = [mapping for _label, mapping in system.mappings()]
    if len(mappings) == 1:
        outcome = check_mapping_on_run(mappings[0], run)
    else:
        outcome = check_chain_on_run(MappingChain(mappings), run)
    return {"ok": outcome.ok, "steps": len(run.events), "check": _MAPPING_CHECKS[system.name]}


def _simulated(system):
    """The timed automaton a safety trace simulates: the system's own,
    except that Fischer's textbook critical section is unbounded, so
    its run bounds it at ``e = 1``, and the broken variant is traced by
    its zone search alone."""
    if system.name == "fischer-tight":
        return None
    if system.name == "fischer":
        from dataclasses import replace

        from repro.systems.extensions import fischer_system

        return fischer_system(replace(system.system(), e=Fraction(1)))
    return system.timed()


def _trace_safety(system, rec: Recorder, seed: int, steps: int) -> Dict[str, Any]:
    from repro.core import time_of_boundmap
    from repro.sim import Simulator, UniformStrategy
    from repro.zones.analysis import search_reachable_state

    predicate_name, predicate = system.violation
    search = search_reachable_state(system.timed(), predicate, max_nodes=400_000)
    rec.event(
        "safety.verdict",
        predicate=predicate_name,
        safe=search.state is None,
        nodes=search.nodes,
        conclusive=search.conclusive,
        state=None if search.state is None else repr(search.state),
    )
    sim_steps = 0
    sim_violations = 0
    sim_timed = _simulated(system)
    if sim_timed is not None:
        try:
            run = Simulator(
                time_of_boundmap(sim_timed), UniformStrategy(random.Random(seed))
            ).run(max_steps=steps)
        except SchedulingDeadlockError:
            # The sim.deadlock terminal event is already in the trace.
            run = None
        if run is not None:
            sim_steps = len(run.events)
            sim_violations = sum(1 for s in run.states if predicate(s.astate))
    return {
        "ok": search.state is None and sim_violations == 0,
        "safe": search.state is None,
        "steps": sim_steps,
        "check": predicate_name,
    }


def trace_system(
    name: str,
    seed: int = 0,
    steps: int = 80,
    max_events: int = 100_000,
) -> Tuple[Recorder, Dict[str, Any]]:
    """Run one system's checked run under a fresh recorder.

    Returns the recorder (whose ``events`` form the replayable trace)
    and a plain summary dict.  For the deliberately broken
    ``fischer-tight`` system the trace ends with a ``safety.verdict``
    event carrying the reachable violation.
    """
    from repro.surface import bundle

    if name not in catalog.SURFACE_SYSTEMS:
        raise ReproError(
            "unknown trace target {!r}; expected one of {}".format(
                name, ", ".join(catalog.SURFACE_SYSTEMS)
            )
        )
    recorder = Recorder(name="trace." + name, max_events=max_events)
    with recording(recorder):
        recorder.event("trace.begin", system=name, seed=seed, max_steps=steps)
        system = bundle(name)
        if system.violation is None:
            summary = _trace_mappings(system, seed, steps)
        else:
            summary = _trace_safety(system, recorder, seed, steps)
        recorder.event("trace.end", system=name, **{
            k: v for k, v in summary.items() if isinstance(v, (bool, int, str))
        })
    summary["events"] = len(recorder.events)
    return recorder, summary
