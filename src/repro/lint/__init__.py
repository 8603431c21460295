"""Static diagnostics for timed-automaton specifications.

The paper's method rests on well-formed inputs: a boundmap assigning a
valid interval to *every* partition class (Definition 2.1), timing
conditions whose trigger/disabling sets satisfy the Section 2.3
technical requirements, and mappings whose endpoints share the
underlying ``A`` (Definition 3.2).  This package validates all of that
*before* execution, so a misspelt class name or an inverted interval is
a pre-flight ``ERROR`` with a rule id and a fix hint instead of a
mid-simulation :class:`~repro.errors.TimingConditionError`.

Quickstart::

    from repro.lint import lint_timed_automaton
    report = lint_timed_automaton(timed)
    if report.has_errors:
        print(report.render())

CLI: ``python -m repro lint {rm,relay,...,all} [--json] [--strict]``.
Rule ids and paper citations are documented in ``docs/linting.md``.
"""

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import Rule, all_rules, get_rule, rule, rules_for
from repro.lint.driver import (
    DEFAULT_MAX_STATES,
    lint_boundmap,
    lint_chain,
    lint_conditions,
    lint_mapping,
    lint_system,
    lint_timed_automaton,
)
from repro.lint.targets import SystemTarget, build_all_targets, build_target

__all__ = [
    "Severity",
    "Diagnostic",
    "LintReport",
    "Rule",
    "rule",
    "all_rules",
    "rules_for",
    "get_rule",
    "DEFAULT_MAX_STATES",
    "lint_boundmap",
    "lint_timed_automaton",
    "lint_conditions",
    "lint_mapping",
    "lint_chain",
    "lint_system",
    "SystemTarget",
    "build_target",
    "build_all_targets",
]
