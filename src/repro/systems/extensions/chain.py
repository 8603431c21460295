"""Heterogeneous event chains (paper Section 8, the "π triggers φ
triggers ψ" example).

The conclusions ask whether requirements like "``π`` is followed by
``φ`` within ``[a1, a2]`` and ``φ`` by ``ψ`` within ``[b1, b2]``" fit
the framework.  They do, compositionally: model the chain as a relay
line with *per-stage* bound intervals; the end-to-end requirement is the
Minkowski sum of the stage intervals, and the Section 6 hierarchy
generalises verbatim with ``U_{k,m}`` carrying the partial sums.

This module builds that generalised chain — the signal relay is the
special case of equal stage intervals — together with its intermediate
automata and level mappings.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AutomatonError
from repro.ioa.actions import Act
from repro.ioa.composition import compose
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.interval import INFINITY, Interval
from repro.systems.signal_relay import LineSystem, line_process, partial_sum_interval

__all__ = ["EVENT", "event_class_name", "ChainSystem", "partial_sum_interval"]


def EVENT(i: int) -> Act:
    """The ``i``-th chain event (``EVENT_0`` starts the chain)."""
    return Act("EVENT", (i,))


def event_class_name(i: int) -> str:
    return "EVENT_{}".format(i)


class ChainSystem(LineSystem):
    """A line ``E_0 → E_1 → … → E_m`` with stage ``i`` (the hop from
    ``EVENT_{i-1}`` to ``EVENT_i``) bounded by ``stage_intervals[i-1]``:
    the relay's artifacts (:class:`~repro.systems.signal_relay.LineSystem`)
    for heterogeneous per-stage bounds."""

    prefix = "chain-"
    event = staticmethod(EVENT)
    class_name = staticmethod(event_class_name)

    def __init__(
        self,
        stage_intervals: Sequence[Interval],
        dummy_interval: Interval = Interval(0, 1),
    ):
        if not stage_intervals:
            raise AutomatonError("a chain needs at least one stage")
        super().__init__(_chain_timed(stage_intervals), stage_intervals, dummy_interval)

    def rebuilt(self, stages: Sequence[Interval]) -> "ChainSystem":
        """The same chain over other stages."""
        return ChainSystem(stages)


def _chain_timed(stages: Sequence[Interval]) -> TimedAutomaton:
    """``E_0 ∥ … ∥ E_m``: ``EVENT_0 ↦ [0, ∞]``, ``EVENT_i ↦ stages[i-1]``."""
    processes = [line_process(EVENT, event_class_name, "E", i) for i in range(len(stages) + 1)]
    bounds = {event_class_name(0): Interval(0, INFINITY)}
    for i, stage in enumerate(stages, start=1):
        bounds[event_class_name(i)] = stage
    return TimedAutomaton(compose(*processes, name="event-chain"), Boundmap(bounds))
