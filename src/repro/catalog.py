"""The names and defaults the command line offers, declared once.

``repro --help`` and a warm verdict-cache hit must not import the
engines, yet the argument parser needs every subcommand's choices and
defaults.  This stdlib-only module is their single declaration; the
modules that own each name (the builder registries, ``faults.perturb``,
``runner.jobs``, ``lint.driver``) import it from here,
and ``tests/test_catalog.py`` pins every registry's keys to its entry
below, in order.
"""

from __future__ import annotations

__all__ = [
    "DIRECTIONS",
    "GEN_PREFIX",
    "JOB_KINDS",
    "LINT_MAX_STATES",
    "LINT_SYSTEMS",
    "MODES",
    "SURFACE_SYSTEMS",
]

#: Shipped systems with a lint target (``repro.lint.targets``), in CLI
#: order.
LINT_SYSTEMS = (
    "rm",
    "relay",
    "fischer",
    "peterson",
    "tournament",
    "chain",
    "request-grant",
    "interrupt",
)

#: The verification surface: the shipped systems ``check``, ``analyze``,
#: ``perturb`` and ``trace`` accept (``repro.par.surface``,
#: ``repro.analyze.obligations``, ``repro.faults.targets``,
#: ``repro.obs.tracing``), in registry order.
SURFACE_SYSTEMS = (
    "rm",
    "relay",
    "chain",
    "fischer",
    "fischer-tight",
    "peterson",
    "tournament",
)

#: Perturbation drift modes and directions (``repro.faults.perturb``).
MODES = ("scale", "shift")
DIRECTIONS = ("widen", "tighten")

#: Campaign job kinds (``repro.runner.jobs``) in scheduling order: cheap
#: static checks first, fuzz campaigns (the most expensive unit) last.
JOB_KINDS = ("lint", "analyze", "check", "perturb", "fuzz")

#: The namespace prefix that marks a generated-system name
#: (``repro.gen.names``).
GEN_PREFIX = "gen:"

#: Default cap on bounded exploration per linted automaton.
LINT_MAX_STATES = 2000
