"""The lint rule registry.

Rules are plain generator functions registered with the
:func:`rule` decorator::

    @rule("R001", targets=("timed", "boundmap"),
          title="boundmap misses partition classes",
          paper="Definition 2.1")
    def missing_classes(ctx):
        ...
        yield ctx.diagnostic(Severity.ERROR, "…", hint="…")

Each rule declares which lint *targets* it applies to; the drivers in
:mod:`repro.lint.driver` run every registered rule for their target
kind.  Rule ids are unique and stable — they key the documentation in
``docs/linting.md`` and the ``--json`` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Tuple

from repro.errors import LintError

__all__ = [
    "LINT_TARGETS",
    "Rule",
    "rule",
    "all_rules",
    "rules_for",
    "get_rule",
]

#: The kinds of object a rule can lint.  ``interference`` rules are run
#: by the static analyzer (:mod:`repro.analyze`), not the lint driver.
LINT_TARGETS = (
    "boundmap",
    "timed",
    "conditions",
    "mapping",
    "chain",
    "system",
    "interference",
)


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    id: str
    targets: FrozenSet[str]
    title: str
    paper: str
    func: Callable

    def run(self, ctx) -> Iterable:
        return self.func(ctx)


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, *, targets, title: str, paper: str = ""):
    """Register a rule function under ``rule_id`` for the given targets."""
    target_set = frozenset([targets] if isinstance(targets, str) else targets)
    unknown = target_set - set(LINT_TARGETS)
    if unknown:
        raise LintError(
            "rule {!r} names unknown lint targets {!r}".format(rule_id, sorted(unknown))
        )

    def decorate(func: Callable) -> Callable:
        if rule_id in _REGISTRY:
            raise LintError("duplicate lint rule id {!r}".format(rule_id))
        _REGISTRY[rule_id] = Rule(
            id=rule_id,
            targets=target_set,
            title=title,
            paper=paper,
            func=func,
        )
        return func

    return decorate


def all_rules() -> Tuple[Rule, ...]:
    """All registered rules, sorted by id."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def rules_for(target: str) -> Tuple[Rule, ...]:
    """The rules applying to one lint target kind, sorted by id."""
    if target not in LINT_TARGETS:
        raise LintError("unknown lint target {!r}".format(target))
    return tuple(r for r in all_rules() if target in r.targets)


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise LintError("no lint rule with id {!r}".format(rule_id)) from None
