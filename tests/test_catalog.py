"""The name table of :mod:`repro.catalog` against the registries that
own each name: every registry's keys equal its catalog entry, in
order, and every owner re-exports the catalog's constant."""

from repro import catalog


def test_lint_targets():
    from repro.lint import system_names
    from repro.lint.targets import _BUILDERS

    assert tuple(_BUILDERS) == catalog.LINT_SYSTEMS
    assert system_names() == catalog.LINT_SYSTEMS


def test_verification_surface():
    from repro.par.surface import _SURFACE, surface_names

    assert tuple(_SURFACE) == catalog.SURFACE_SYSTEMS
    assert surface_names() == catalog.SURFACE_SYSTEMS


def test_surface_has_seven_systems():
    from repro.par.surface import surface_names

    assert len(surface_names()) == 7


def test_analyze_systems():
    from repro.analyze import analyze_names

    assert analyze_names() == catalog.SURFACE_SYSTEMS


def test_perturb_targets():
    from repro.faults.targets import _BUILDERS, perturb_names

    assert tuple(_BUILDERS) == catalog.SURFACE_SYSTEMS
    assert perturb_names() == catalog.SURFACE_SYSTEMS


def test_tracers():
    from repro.obs.tracing import _TRACERS, trace_names

    assert tuple(_TRACERS) == catalog.SURFACE_SYSTEMS
    assert trace_names() == catalog.SURFACE_SYSTEMS


def test_owned_constants_come_from_the_catalog():
    from repro.faults.perturb import DIRECTIONS, MODES
    from repro.gen.names import GEN_PREFIX
    from repro.lint import DEFAULT_MAX_STATES
    from repro.runner.jobs import JOB_KINDS

    assert MODES is catalog.MODES
    assert DIRECTIONS is catalog.DIRECTIONS
    assert JOB_KINDS is catalog.JOB_KINDS
    assert GEN_PREFIX == catalog.GEN_PREFIX
    assert DEFAULT_MAX_STATES == catalog.LINT_MAX_STATES
