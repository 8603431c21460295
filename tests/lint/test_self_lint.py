"""Self-lint: every shipped system must lint clean of ERRORs.

This is the tier-1 gate promised in ``docs/linting.md``: the linter is
run over every system bundle the repo ships, and any ERROR diagnostic
fails the suite.  WARNINGs are allowed (e.g. R005 on deliberately
untimed environment classes) but are pinned below so new ones are
noticed.
"""

import pytest

from repro.catalog import LINT_SYSTEMS
from repro.lint import build_target, lint_system


@pytest.mark.parametrize("name", LINT_SYSTEMS)
def test_system_lints_clean_of_errors(name):
    report = lint_system(build_target(name))
    assert not report.errors, "\n" + report.render()


@pytest.mark.parametrize("name", LINT_SYSTEMS)
def test_system_warnings_are_only_trivial_bounds(name):
    """The only expected warnings are R005 on deliberately untimed
    environment/progress classes; anything else is a regression."""
    report = lint_system(build_target(name))
    unexpected = [d for d in report.warnings if d.rule != "R005"]
    assert not unexpected, "\n".join(d.render() for d in unexpected)


def test_all_systems_are_covered():
    names = LINT_SYSTEMS
    assert {"rm", "relay", "fischer", "peterson", "tournament"} <= set(names)
    assert len(names) == len(set(names))
