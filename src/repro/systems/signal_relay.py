"""The signal relay example (paper Section 6).

A line of processes ``P_0, …, P_n``: ``P_0`` emits ``SIGNAL_0`` once;
each ``P_i`` raises a flag on ``SIGNAL_{i-1}`` and then emits
``SIGNAL_i`` (class bound ``[d1, d2]``; ``SIGNAL_0``'s class is
unconstrained, ``[0, ∞]``).

Requirement (Section 6.2, ``U_{0,n}``): a ``SIGNAL_n`` follows each
``SIGNAL_0`` within ``[n·d1, n·d2]``.  The proof is hierarchical:
intermediate automata ``B_k`` carry ``U_{k,n}`` with bound
``[(n−k)·d1, (n−k)·d2]`` plus the boundmap conditions of
``SIGNAL_0 … SIGNAL_k`` and the dummy's ``NULL`` class; Section 6.4's
mappings ``f_k : B_k → B_{k−1}`` encode the recurrence step, and two
"trivial" projections close the chain: ``time(Ã, b̃) → B_{n−1}``
renames the boundmap condition of ``SIGNAL_n`` to ``U_{n−1,n}``, and
``B_0 → B`` forgets the boundmap conditions.  The full composition
(Corollary 6.3) witnesses Theorem 6.4.  All of it is declared once, on
:class:`LineSystem`, for relays and chains alike.

The relay has *finite* timed executions (nothing is enabled after
``SIGNAL_n``), so the system is dummified before the ``time``
construction (Section 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import AutomatonError
from repro.ioa.actions import Act, Kind
from repro.ioa.composition import compose, hide
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.ioa.partition import Partition
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition, cond_of_class
from repro.timed.interval import INFINITY, Interval
from repro.core.dummification import dummify, dummify_condition
from repro.core.mappings import (
    Ineq,
    InequalityMapping,
    MappingChain,
    ProjectionMapping,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.core.time_automaton import (
    PredictiveTimeAutomaton,
    time_of_boundmap,
    time_of_conditions,
)

__all__ = [
    "SIGNAL",
    "signal_class_name",
    "RelayParams",
    "line_process",
    "sender_automaton",
    "relay_automaton",
    "signal_relay",
    "relay_condition",
    "partial_sum_interval",
    "LineSystem",
    "RelaySystem",
    "flags_of",
    "lemma_6_1_predicate",
    "level_mapping",
    "entry_mapping",
    "exit_mapping",
    "relay_hierarchy",
]


def SIGNAL(i: int) -> Act:
    """The action ``SIGNAL_i``."""
    return Act("SIGNAL", (i,))


def signal_class_name(i: int) -> str:
    """The partition class name of ``{SIGNAL_i}``."""
    return "SIGNAL_{}".format(i)


@dataclass(frozen=True)
class RelayParams:
    """``n`` relay hops with per-hop bound ``[d1, d2]``; the paper
    assumes ``0 ≤ d1 ≤ d2 < ∞`` (we additionally need ``d2 > 0`` for a
    well-formed boundmap)."""

    n: int
    d1: object
    d2: object

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AutomatonError("the line needs n >= 1")
        if not (0 <= self.d1 <= self.d2):
            raise AutomatonError("need 0 <= d1 <= d2")
        if self.d2 <= 0:
            raise AutomatonError("need d2 > 0 (boundmap upper bounds are nonzero)")

    @property
    def end_to_end_interval(self) -> Interval:
        """The requirement bound ``[n·d1, n·d2]``."""
        return Interval(self.n * self.d1, self.n * self.d2)

    def hop_interval(self, k: int) -> Interval:
        """The ``U_{k,n}`` bound ``[(n−k)·d1, (n−k)·d2]``."""
        hops = self.n - k
        if hops < 1:
            raise AutomatonError("U_{k,n} needs 0 <= k <= n-1")
        return Interval(hops * self.d1, hops * self.d2)


def line_process(event, class_name, prefix: str, i: int) -> GuardedAutomaton:
    """Process ``i`` of a line: its flag starts up for ``i = 0``, is
    raised by event ``i−1`` otherwise, and event ``i`` (its own class)
    fires while it is up and lowers it."""
    specs = [
        ActionSpec(event(i), Kind.OUTPUT, precondition=lambda flag: flag, effect=lambda _flag: False)
    ]
    if i > 0:
        specs.insert(0, ActionSpec(event(i - 1), Kind.INPUT, effect=lambda _flag: True))
    return GuardedAutomaton(
        name="{}{}".format(prefix, i),
        start=[i == 0],
        specs=specs,
        partition=Partition.from_pairs([(class_name(i), [event(i)])]),
    )


def sender_automaton() -> GuardedAutomaton:
    """``P_0``: FLAG initially true; ``SIGNAL_0`` clears it."""
    return line_process(SIGNAL, signal_class_name, "P", 0)


def relay_automaton(i: int) -> GuardedAutomaton:
    """``P_i`` (``1 ≤ i``): raises FLAG on ``SIGNAL_{i-1}``, emits
    ``SIGNAL_i`` while the flag is up."""
    if i < 1:
        raise AutomatonError("relay processes are P_1 … P_n")
    return line_process(SIGNAL, signal_class_name, "P", i)


def signal_relay(params: RelayParams) -> TimedAutomaton:
    """The timed automaton ``(A, b)``: ``P_0 ∥ … ∥ P_n`` with the
    intermediate signals hidden; ``SIGNAL_0 ↦ [0, ∞]``, others
    ``[d1, d2]``."""
    processes = [sender_automaton()] + [relay_automaton(i) for i in range(1, params.n + 1)]
    composed = compose(*processes, name="signal-relay")
    hidden_actions = [SIGNAL(i) for i in range(1, params.n)]
    automaton = hide(composed, hidden_actions) if hidden_actions else composed
    bounds = {signal_class_name(0): Interval(0, INFINITY)}
    for i in range(1, params.n + 1):
        bounds[signal_class_name(i)] = Interval(params.d1, params.d2)
    return TimedAutomaton(automaton, Boundmap(bounds))


def relay_condition(params: RelayParams, k: int) -> TimingCondition:
    """``U_{k,n}``: from every ``SIGNAL_k`` step to the next
    ``SIGNAL_n``, within ``[(n−k)·d1, (n−k)·d2]``.

    Triggers and targets are pure action predicates, so the same
    condition applies verbatim to the dummified automaton.
    """
    return TimingCondition.after_action(
        "U[{},{}]".format(k, params.n),
        params.hop_interval(k),
        SIGNAL(k),
        [SIGNAL(params.n)],
    )


def flags_of(dummified_astate) -> Tuple[bool, ...]:
    """The relay FLAG tuple inside a dummified ``Ã``-state."""
    return dummified_astate[0]


def partial_sum_interval(stage_intervals: Sequence[Interval], k: int) -> Interval:
    """``U_{k,n}``'s bound: the Minkowski sum of stages ``k+1 … n``."""
    remaining = stage_intervals[k:]
    if not remaining:
        raise AutomatonError("no stages after k = {}".format(k))
    total = remaining[0]
    for interval in remaining[1:]:
        total = total + interval
    return total


class LineSystem:
    """A line of events ``0 … n`` whose hop ``i`` is bounded by
    ``stages[i-1]``, with everything Section 6 builds on it: its
    ``(A, b)``, the dummification ``(Ã, b̃)`` (Section 5),
    ``time(Ã, b̃)``, the requirements automaton ``B = time(Ã,
    {Ũ_{0,n}})``, the intermediate automata ``B_k`` and the mapping
    hierarchy.  ``U_{k,n}`` is bounded by the Minkowski sum of the
    stages after ``k``.  The relay (equal stages) and the chain
    (:class:`~repro.systems.extensions.chain.ChainSystem`) build
    ``(A, b)`` and name the events: ``event(i)``, ``class_name(i)``;
    ``prefix`` starts their automata's names.

    ``B_k`` instances are cached so hierarchy levels share identity
    (:class:`~repro.core.mappings.MappingChain` requires it).
    """

    prefix = ""

    def __init__(self, timed: TimedAutomaton, stages: Sequence[Interval], dummy_interval: Interval):
        self.stages: Tuple[Interval, ...] = tuple(stages)
        self.n = len(self.stages)
        self.timed = timed
        self.dummified = dummify(timed, dummy_interval)
        self.algorithm: PredictiveTimeAutomaton = time_of_boundmap(self.dummified)
        self.requirement = dummify_condition(self.condition(0))
        self.requirements: PredictiveTimeAutomaton = time_of_conditions(
            self.dummified.automaton, [self.requirement], name=self.prefix + "B"
        )
        self._intermediates: Dict[int, PredictiveTimeAutomaton] = {}

    def condition_name(self, k: int) -> str:
        """The name of ``U_{k,n}`` inside ``B_k``."""
        return "U[{},{}]".format(k, self.n)

    def condition(self, k: int) -> TimingCondition:
        """``U_{k,n}``: from every event ``k`` to the next event ``n``."""
        return TimingCondition.after_action(
            self.condition_name(k),
            partial_sum_interval(self.stages, k),
            self.event(k),
            [self.event(self.n)],
        )

    def intermediate(self, k: int) -> PredictiveTimeAutomaton:
        """``B_k = time(Ã, U_k)`` where ``U_k`` holds ``Ũ_{k,n}``, the
        boundmap conditions of events ``0 … k`` and ``NULL`` (Section 6.3)."""
        if not (0 <= k <= self.n - 1):
            raise AutomatonError("B_k is defined for 0 <= k <= n-1")
        if k not in self._intermediates:
            partition = self.dummified.automaton.partition
            classes = [self.class_name(j) for j in range(k + 1)] + ["NULL"]
            self._intermediates[k] = time_of_conditions(
                self.dummified.automaton,
                [dummify_condition(self.condition(k))]
                + [cond_of_class(self.dummified, partition[name]) for name in classes],
                name="{}B_{}".format(self.prefix, k),
            )
        return self._intermediates[k]

    def level_mapping(self, k: int) -> InequalityMapping:
        """``f_k : B_k → B_{k−1}`` (Section 6.4), for ``1 ≤ k ≤ n−1``.

        The case of an ``A``-state is its phase: an event past ``k`` is
        pending (``A``: ``U_{k−1,n}`` covers ``U_{k,n}``), event ``k`` is
        (``B``: it covers event ``k``'s own window plus the stages after
        it), or neither (``C``: inactive).  Every shared class
        condition's prediction is equal on both sides."""
        after, hop = partial_sum_interval(self.stages, k), self.class_name(k)
        u_name, s_name = self.condition_name(k - 1), self.condition_name(k)
        shared = [
            Ineq(field(name), "==", mirror(name))
            for name in [self.class_name(j) for j in range(k)] + ["NULL"]
            for field, mirror in ((target_ft, source_ft), (target_lt, source_lt))
        ]
        bounds = {
            "A": (source_lt(s_name), source_ft(s_name)),
            "B": (source_lt(hop) + after.hi, source_ft(hop) + after.lo),
            "C": (math.inf, 0),
        }
        cases = {
            phase: shared
            + [Ineq(target_lt(u_name), ">=", lt), Ineq(target_ft(u_name), "<=", ft)]
            for phase, (lt, ft) in bounds.items()
        }
        n = self.n

        def phase(astate) -> str:
            flags = astate[0]
            if any(flags[k + 1 : n + 1]):
                return "A"
            return "B" if flags[k] else "C"

        return InequalityMapping(
            self.intermediate(k),
            self.intermediate(k - 1),
            cases,
            case_of=phase,
            name="f_{}: {p}B_{} -> {p}B_{}".format(k, k, k - 1, p=self.prefix),
        )

    def entry_mapping(self) -> ProjectionMapping:
        """``time(Ã, b̃) → B_{n−1}``: event ``n``'s class condition *is*
        ``U_{n−1,n}`` (same triggers, same interval), so it is renamed."""
        return ProjectionMapping(
            self.algorithm,
            self.intermediate(self.n - 1),
            name_map={self.condition_name(self.n - 1): self.class_name(self.n)},
            name="trivial: time(A~,b~) -> {}B_{}".format(self.prefix, self.n - 1),
        )

    def exit_mapping(self) -> ProjectionMapping:
        """The trivial mapping ``B_0 → B``: forget the boundmap
        conditions, keep ``U_{0,n}``."""
        return ProjectionMapping(
            self.intermediate(0),
            self.requirements,
            name="trivial: {p}B_0 -> {p}B".format(p=self.prefix),
        )

    def hierarchy(self) -> MappingChain:
        """``time(Ã, b̃) → B_{n−1} → … → B_0 → B``, whose composition is
        the Corollary 6.3 mapping."""
        levels = [self.level_mapping(k) for k in range(self.n - 1, 0, -1)]
        return MappingChain([self.entry_mapping()] + levels + [self.exit_mapping()])


class RelaySystem(LineSystem):
    """The Section 6 relay: ``n`` hops of ``[d1, d2]`` each."""

    def __init__(self, params: RelayParams, dummy_interval: Interval = Interval(0, 1)):
        self.params = params
        stage = Interval(params.d1, params.d2)
        super().__init__(signal_relay(params), [stage] * params.n, dummy_interval)

    event = staticmethod(SIGNAL)
    class_name = staticmethod(signal_class_name)

    def rebuilt(self, stages: Sequence[Interval]) -> "RelaySystem":
        """The same relay over other (equal) stages."""
        return RelaySystem(RelayParams(n=self.params.n, d1=stages[0].lo, d2=stages[0].hi))


#: The Section 6.4 mappings by their paper names, for a relay or a chain.
level_mapping = LineSystem.level_mapping
entry_mapping = LineSystem.entry_mapping
exit_mapping = LineSystem.exit_mapping
relay_hierarchy = LineSystem.hierarchy


def lemma_6_1_predicate(params: RelayParams):
    """Lemma 6.1 as a predicate on (undummified) relay states: at most
    one ``SIGNAL_i`` is enabled, i.e. at most one flag is raised."""

    def predicate(astate) -> bool:
        return sum(1 for flag in astate if flag) <= 1

    return predicate
