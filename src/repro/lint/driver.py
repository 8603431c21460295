"""Lint drivers: build a context, run every registered rule for its
target kind, collect a :class:`~repro.lint.diagnostics.LintReport`.

The drivers are layered the way the paper's artifacts are:

- :func:`lint_boundmap` — a raw bound spec (possibly not even
  constructible as :class:`~repro.timed.interval.Interval` objects);
- :func:`lint_timed_automaton` — a ``(A, b)`` pair, including its
  boundmap and the derived ``cond(C)`` conditions;
- :func:`lint_conditions` — a requirement condition set against its
  automaton;
- :func:`lint_mapping` / :func:`lint_chain` — strong possibilities
  mappings and hierarchies;
- :func:`lint_system` — a whole shipped system bundle
  (:class:`~repro.lint.targets.SystemTarget`).

Exploration-backed rules share one bounded breadth-first exploration
per automaton (``max_states`` caps the work, so linting stays
pre-flight fast even for systems with unbounded state spaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.catalog import LINT_MAX_STATES as DEFAULT_MAX_STATES
from repro.ioa.automaton import IOAutomaton
from repro.ioa.explorer import ExplorationResult, explore, iter_steps
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import rules_for
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import TimingCondition, boundmap_conditions

# Importing the rules module registers every rule.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "DEFAULT_MAX_STATES",
    "BoundmapContext",
    "TimedContext",
    "ConditionsContext",
    "MappingContext",
    "ChainContext",
    "SystemContext",
    "lint_boundmap",
    "lint_timed_automaton",
    "lint_conditions",
    "lint_mapping",
    "lint_chain",
    "lint_system",
]


class _Context:
    """Shared context machinery: the driver stamps the active rule id so
    ``ctx.diagnostic(...)`` needs no boilerplate inside rules."""

    location: str = "?"
    _active_rule: str = "R000"

    def diagnostic(
        self,
        severity: Severity,
        message: str,
        hint: str = "",
        location: Optional[str] = None,
    ) -> Diagnostic:
        return Diagnostic(
            rule=self._active_rule,
            severity=severity,
            location=location or self.location,
            message=message,
            hint=hint,
        )


class _ExploringContext(_Context):
    """Context with a lazily computed, cached bounded exploration."""

    automaton: IOAutomaton
    max_states: int = DEFAULT_MAX_STATES
    _exploration: Optional[ExplorationResult] = None
    _steps: Optional[Tuple[Tuple, ...]] = None

    def exploration(self) -> ExplorationResult:
        if self._exploration is None:
            self._exploration = explore(self.automaton, max_states=self.max_states)
        return self._exploration

    def steps(self) -> Tuple[Tuple, ...]:
        if self._steps is None:
            self._steps = tuple(iter_steps(self.automaton, self.exploration().reachable))
        return self._steps


@dataclass
class BoundmapContext(_Context):
    """A bound spec: class name → :class:`Interval` or raw ``(lo, hi)``
    pair; optionally the partition class names to check coverage
    against."""

    bounds: Mapping[str, object]
    partition_names: Optional[Tuple[str, ...]] = None
    location: str = "boundmap"

    def entries(self) -> Iterable[Tuple[str, object]]:
        return sorted(self.bounds.items(), key=lambda item: item[0])

    def bound_names(self) -> Tuple[str, ...]:
        return tuple(self.bounds)


@dataclass
class TimedContext(_ExploringContext):
    """A timed automaton ``(A, b)``."""

    timed: TimedAutomaton
    location: str = "timed"
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self) -> None:
        self.automaton = self.timed.automaton


@dataclass
class ConditionsContext(_ExploringContext):
    """A set of timing conditions against their automaton ``A``."""

    automaton: IOAutomaton
    conditions: Tuple[TimingCondition, ...]
    location: str = "conditions"
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self) -> None:
        self.conditions = tuple(self.conditions)


@dataclass
class MappingContext(_Context):
    """A single strong possibilities mapping."""

    mapping: object
    location: str = "mapping"


@dataclass
class ChainContext(_Context):
    """An ordered sequence of mappings forming a hierarchy."""

    mappings: Tuple[object, ...]
    location: str = "chain"

    def __post_init__(self) -> None:
        self.mappings = tuple(self.mappings)


@dataclass
class SystemContext(_Context):
    """A whole shipped-system bundle, for rules that need more than one
    artifact at a time (e.g. R014's tolerance probe)."""

    target: object
    location: str = "system"
    #: Drift probed by R014: failing here means ~zero measured tolerance.
    probe_epsilon: Fraction = Fraction(1, 32)


def _run(target: str, ctx: _Context) -> LintReport:
    report = LintReport()
    for lint_rule in rules_for(target):
        ctx._active_rule = lint_rule.id
        report.extend(lint_rule.run(ctx))
    return report


# ----------------------------------------------------------------------
# Public drivers
# ----------------------------------------------------------------------


def lint_boundmap(
    bounds: Mapping[str, object],
    partition_names: Optional[Iterable[str]] = None,
    location: str = "boundmap",
) -> LintReport:
    """Lint a raw bound spec (it need not be constructible as a
    :class:`Boundmap`: inverted or negative intervals are precisely what
    R003 reports instead of raising)."""
    if isinstance(bounds, Boundmap):
        bounds = dict(bounds.items())
    names = tuple(partition_names) if partition_names is not None else None
    return _run("boundmap", BoundmapContext(bounds, names, location))


def lint_timed_automaton(
    timed: TimedAutomaton,
    max_states: int = DEFAULT_MAX_STATES,
    location: Optional[str] = None,
) -> LintReport:
    """Lint a timed automaton ``(A, b)``: its boundmap (coverage,
    interval hygiene), the automaton-level rules (dead classes, input
    enabledness, dummy timing) and the derived ``cond(C)`` conditions
    (the paper's two technical requirements, pre-flight)."""
    where = location or timed.automaton.name
    report = lint_boundmap(
        timed.boundmap,
        timed.automaton.partition.names,
        location="{}/boundmap".format(where),
    )
    ctx = TimedContext(timed, location=where, max_states=max_states)
    report.extend(_run("timed", ctx))
    conditions_ctx = ConditionsContext(
        timed.automaton,
        boundmap_conditions(timed),
        location="{}/cond(C)".format(where),
        max_states=max_states,
    )
    # Reuse the exploration already done for the timed rules.
    conditions_ctx._exploration = ctx._exploration
    report.extend(_run("conditions", conditions_ctx))
    return report


def lint_conditions(
    automaton: IOAutomaton,
    conditions: Sequence[TimingCondition],
    max_states: int = DEFAULT_MAX_STATES,
    location: Optional[str] = None,
) -> LintReport:
    """Lint requirement conditions against the automaton they time."""
    where = location or "{}/conditions".format(automaton.name)
    ctx = ConditionsContext(
        automaton, tuple(conditions), location=where, max_states=max_states
    )
    return _run("conditions", ctx)


def lint_mapping(mapping, location: Optional[str] = None) -> LintReport:
    """Lint one strong possibilities mapping."""
    where = location or "mapping:{}".format(getattr(mapping, "name", "?"))
    return _run("mapping", MappingContext(mapping, location=where))


def lint_chain(mappings: Sequence, location: str = "chain") -> LintReport:
    """Lint a mapping hierarchy: per-level mapping rules plus the
    cross-level link rule.  Accepts a
    :class:`~repro.core.mappings.MappingChain` or any sequence."""
    levels = tuple(mappings)
    report = _run("chain", ChainContext(levels, location=location))
    for index, mapping in enumerate(levels):
        report.extend(
            lint_mapping(
                mapping,
                location="{}[{}]:{}".format(
                    location, index, getattr(mapping, "name", "?")
                ),
            )
        )
    return report


def _apply_waivers(report: LintReport, waivers) -> LintReport:
    """Downgrade waived warnings to INFO.

    A waiver is a ``(rule_id, substring)`` pair: diagnostics of that
    rule whose location or message contains the substring are known,
    deliberate modelling choices (e.g. the relay's untimed ``SIGNAL_0``
    environment class) and must not fail a strict gate.  Errors are
    never waived."""
    if not waivers:
        return report
    adjusted = LintReport()
    for diagnostic in report:
        waived = diagnostic.severity is Severity.WARNING and any(
            diagnostic.rule == rule_id
            and (needle in diagnostic.location or needle in diagnostic.message)
            for rule_id, needle in waivers
        )
        if waived:
            diagnostic = replace(
                diagnostic,
                severity=Severity.INFO,
                hint=(diagnostic.hint + " " if diagnostic.hint else "")
                + "[waived: deliberate modelling choice]",
            )
        adjusted.add(diagnostic)
    return adjusted


def lint_system(target, max_states: int = DEFAULT_MAX_STATES) -> LintReport:
    """Lint a whole shipped-system bundle
    (:class:`~repro.lint.targets.SystemTarget`), apply its waivers, and
    finish with the system-level rules (R014's tolerance probe)."""
    report = LintReport()
    for location, timed in target.timed_automata:
        report.extend(lint_timed_automaton(timed, max_states=max_states, location=location))
    for location, automaton, conditions in target.condition_sets:
        report.extend(
            lint_conditions(automaton, conditions, max_states=max_states, location=location)
        )
    for mapping in target.mappings:
        report.extend(lint_mapping(mapping, location="{}/mapping:{}".format(
            target.name, getattr(mapping, "name", "?"))))
    for location, chain in target.chains:
        report.extend(lint_chain(chain, location=location))
    report = _apply_waivers(report, getattr(target, "waivers", ()))
    ctx = SystemContext(target, location="{}/system".format(target.name))
    report.extend(_run("system", ctx))
    return report
