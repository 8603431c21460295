"""repro — a reproduction of Lynch & Attiya, *Using Mappings to Prove
Timing Properties* (PODC 1990).

The library provides:

- :mod:`repro.ioa` — the I/O automaton model (signatures, composition,
  executions, exploration);
- :mod:`repro.timed` — timed automata: boundmaps, timed sequences,
  timing conditions and their satisfaction semantics;
- :mod:`repro.core` — the paper's contribution: the ``time(A, U)``
  construction with predictive timing state, strong possibilities
  mappings with machine checkers, dummification, and the completeness
  (canonical mapping) construction;
- :mod:`repro.sim` — seeded discrete-event simulation of timed systems,
  bound measurement over its runs and execution timelines;
- :mod:`repro.zones` — exact DBM/zone reachability for event-separation
  bounds;
- :mod:`repro.systems` — the paper's resource manager and signal relay,
  their requirements and mappings, plus the Section 8 extensions;
- :mod:`repro.analyze` — static proofs: Fourier–Motzkin obligation
  discharge, interference rules, closed-form bounds and the operational
  recurrence baseline;
- :mod:`repro.table` — plain-text report tables.

Quickstart::

    from fractions import Fraction as F
    import random
    from repro.systems import ResourceManagerParams, ResourceManagerSystem
    from repro.systems import resource_manager_mapping
    from repro.sim import Simulator, UniformStrategy
    from repro.core import check_mapping_on_run

    system = ResourceManagerSystem(ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1)))
    run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(max_steps=500)
    check_mapping_on_run(resource_manager_mapping(system), run).raise_if_failed()
"""

from repro.errors import (
    AutomatonError,
    CompositionError,
    ExecutionError,
    MappingCheckError,
    MappingError,
    NotEnabledError,
    PartitionError,
    ReproError,
    SchedulingDeadlockError,
    SignatureError,
    TimedSequenceError,
    TimingConditionError,
    TimingViolationError,
    ZoneError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SignatureError",
    "PartitionError",
    "AutomatonError",
    "NotEnabledError",
    "CompositionError",
    "ExecutionError",
    "TimedSequenceError",
    "TimingConditionError",
    "TimingViolationError",
    "SchedulingDeadlockError",
    "MappingError",
    "MappingCheckError",
    "ZoneError",
]
