"""Simulation substrate: strategies and the discrete-event scheduler
that generate executions of ``time(A, U)`` automata, plus what reads
their runs: :mod:`repro.sim.bounds` measures timing bounds over
behaviors and :mod:`repro.sim.timeline` renders a run as an event log."""

from repro.sim.scheduler import Simulator, simulate
from repro.sim.strategies import (
    BiasedActionStrategy,
    EagerStrategy,
    ExtremalStrategy,
    LazyStrategy,
    Strategy,
    UniformStrategy,
)
from repro.sim.trace import RunBatch, run_batch, timed_behavior_of_run

__all__ = [
    "Simulator",
    "simulate",
    "Strategy",
    "UniformStrategy",
    "EagerStrategy",
    "LazyStrategy",
    "ExtremalStrategy",
    "BiasedActionStrategy",
    "RunBatch",
    "run_batch",
    "timed_behavior_of_run",
]
