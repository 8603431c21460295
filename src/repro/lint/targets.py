"""Lintable bundles for every system.

A :class:`SystemTarget` collects the artifacts a system exposes — timed
automata, requirement condition sets, mappings and hierarchies — under
stable location labels, so ``python -m repro lint <name>`` and the
self-check test can lint each system the same way.  Each system's
target is built by its :class:`repro.surface.Bundle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro import catalog

__all__ = ["SystemTarget", "build_target", "build_all_targets"]


@dataclass
class SystemTarget:
    """Everything the linter inspects for one system."""

    name: str
    #: ``(location, TimedAutomaton)`` pairs.
    timed_automata: Tuple = ()
    #: ``(location, IOAutomaton, conditions)`` triples.
    condition_sets: Tuple = ()
    #: Standalone strong possibilities mappings.
    mappings: Tuple = ()
    #: ``(location, sequence-of-mappings)`` pairs.
    chains: Tuple = ()
    #: ``(rule_id, substring)`` pairs: warnings of that rule whose
    #: location or message contains the substring are deliberate
    #: modelling choices — the driver downgrades them to INFO so a
    #: strict gate stays meaningful (errors are never waived).
    waivers: Tuple[Tuple[str, str], ...] = ()


def build_target(name: str) -> SystemTarget:
    """The lint target of one shipped or generated system."""
    from repro.surface import bundle

    return bundle(name).lint_target()


def build_all_targets() -> Tuple[SystemTarget, ...]:
    return tuple(build_target(name) for name in catalog.LINT_SYSTEMS)
