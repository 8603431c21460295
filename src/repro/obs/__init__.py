"""repro.obs — observability: telemetry and tracing.

- :mod:`repro.obs.instrument` — the zero-dependency telemetry core
  (:class:`Recorder`, counters/gauges/timers/trace events) every engine
  hooks into;
- :mod:`repro.obs.tracing` — builds the replayable JSONL event traces
  behind ``python -m repro trace``.

Only the instrument core is imported eagerly (it has no dependencies
and is imported *by* the engines); import :mod:`repro.obs.tracing`
explicitly — it pulls in the systems and engines.
"""

from repro.obs.instrument import (
    GaugeStat,
    Recorder,
    TimerStat,
    TraceEvent,
    active,
    emit,
    gauge,
    incr,
    install,
    jsonable,
    recording,
    span,
    uninstall,
)

__all__ = [
    "TraceEvent",
    "GaugeStat",
    "TimerStat",
    "Recorder",
    "active",
    "recording",
    "install",
    "uninstall",
    "incr",
    "gauge",
    "emit",
    "span",
    "jsonable",
]
