"""Timed automaton substrate (paper Sections 2.2–2.3).

Intervals, boundmaps, timed automata, timed sequences, timing
conditions, and the satisfaction checkers for Definitions 2.1, 2.2
and 3.1.
"""

from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition, boundmap_conditions, cond_of_class
from repro.timed.interval import INFINITY, Interval, as_exact, render_time
from repro.timed.satisfaction import (
    SemiSatisfactionMonitor,
    Violation,
    find_boundmap_violation,
    find_condition_violation,
    is_timed_execution,
    is_timed_semi_execution,
    satisfies,
    satisfies_all,
    semi_satisfies,
    semi_satisfies_all,
)
from repro.timed.semantics import (
    EquivalenceReport,
    check_lemma_2_1,
    timed_execution_violation,
)
from repro.timed.timed_sequence import TimedEvent, TimedSequence, timed_word

__all__ = [
    "Interval",
    "INFINITY",
    "as_exact",
    "render_time",
    "Boundmap",
    "TimedAutomaton",
    "TimedEvent",
    "TimedSequence",
    "timed_word",
    "TimingCondition",
    "cond_of_class",
    "boundmap_conditions",
    "Violation",
    "satisfies",
    "semi_satisfies",
    "satisfies_all",
    "semi_satisfies_all",
    "find_condition_violation",
    "SemiSatisfactionMonitor",
    "find_boundmap_violation",
    "is_timed_execution",
    "is_timed_semi_execution",
    "EquivalenceReport",
    "check_lemma_2_1",
    "timed_execution_violation",
]
