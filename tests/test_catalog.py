"""The name table of :mod:`repro.catalog` against the registries that
own each name: every registry's keys equal its catalog entry, in
order, and every owner re-exports the catalog's constant."""

from fractions import Fraction

import pytest

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


def test_kind_specs_cover_every_job_kind_in_order():
    assert tuple(catalog.KIND_SPECS) == catalog.JOB_KINDS


def test_kind_systems_match_the_registries():
    from repro.analyze import analyze_names
    from repro.faults.targets import perturb_names
    from repro.lint import system_names
    from repro.runner.jobs import FUZZ_SYSTEM

    systems = {kind: spec.systems for kind, spec in catalog.KIND_SPECS.items()}
    assert systems == {
        "lint": system_names(),
        "analyze": analyze_names(),
        "check": perturb_names(),
        "perturb": perturb_names(),
        "fuzz": (FUZZ_SYSTEM,),
    }
    assert [k for k, spec in catalog.KIND_SPECS.items() if not spec.gen] == ["fuzz"]


def test_expected_broken_is_what_the_engines_report():
    from repro.analyze import analyze_system
    from repro.faults.targets import build_perturb_target

    assert catalog.EXPECTED_BROKEN == ("fischer-tight",)
    for name in catalog.SURFACE_SYSTEMS:
        expected = name in catalog.EXPECTED_BROKEN
        assert build_perturb_target(name).expected_broken is expected, name
    for name in ("fischer", "fischer-tight"):
        expected = name in catalog.EXPECTED_BROKEN
        assert analyze_system(name).expected_broken is expected, name


def test_validators_return_one_spelling():
    for spelling in (0, "0", "0/1", 0.0, "0.0"):
        assert catalog.nonneg_fraction(spelling) == "0"
    for spelling in (Fraction(1, 32), "1/32", "2/64", 0.03125, "0.03125"):
        assert catalog.nonneg_fraction(spelling) == "1/32"
    for spelling in (60, 60.0, "60", "120/2", Fraction(60)):
        assert catalog.positive_fraction(spelling) == "60"
    for spelling in ("1e-3", "0.001", 0.001, "1/1000"):
        assert catalog.nonneg_fraction(spelling) == "1/1000"
    for spelling in (3, 3.0, "3", "6/2", "3e0"):
        value = catalog.positive_int(spelling)
        assert value == 3 and type(value) is int
    assert catalog.integer("-4") == -4
    assert catalog.nonneg_int(0) == 0
    assert catalog.boolean(True) is True


def test_validators_reject_nonsense():
    rejected = [
        (catalog.positive_int, [0, -3, 1.5, "x", True, None, [], "inf"]),
        (catalog.nonneg_int, [-1, "1/2", False]),
        (catalog.integer, ["abc", 2.5, float("nan")]),
        (catalog.nonneg_fraction, [-1, "-1/8", "banana", "1/0", True]),
        (catalog.positive_fraction, [0, "0/1", "soon"]),
        (catalog.boolean, [1, 0, "true", None]),
        # Outside the accepted spellings or magnitudes: refused before
        # any big-number arithmetic happens.
        (catalog.exact, ["1e999999999", "1e-999999999", "1e5000", "1e", "1" * 65,
                         10**18, "1/1" + "0" * 18, 1e300]),
    ]
    for validate, values in rejected:
        for value in values:
            with pytest.raises(ValueError):
                validate(value)


def test_admit_fills_defaults_and_checks_names_and_the_count_cap():
    fuzz = catalog.KIND_SPECS["fuzz"]
    assert fuzz.admit({}) == {"count": 100, "seed": 0, "start": 0}
    assert fuzz.admit({"count": "500", "seed": -2.0})["count"] == 500
    with pytest.raises(ValueError, match="cap of 500"):
        fuzz.admit({"count": 501})
    with pytest.raises(ValueError, match="unknown param"):
        fuzz.admit({"artifacts": "/tmp"})
    with pytest.raises(ValueError, match="param start"):
        fuzz.admit({"start": -5})
    assert catalog.KIND_SPECS["perturb"].admit({"epsilon": 0})["epsilon"] == "0"


def test_admit_system_takes_the_kinds_systems_in_canonical_spelling():
    from repro.errors import ReproError

    lint, fuzz = catalog.KIND_SPECS["lint"], catalog.KIND_SPECS["fuzz"]
    assert lint.admit_system("rm") == "rm"
    assert lint.admit_system("gen:relay_line-01") == "gen:relay_line-1"
    assert fuzz.admit_system("gen") == "gen"
    for spec, name in ((lint, "nope"), (lint, "fischer-tight"), (lint, None),
                       (fuzz, "gen:fischer-3")):
        with pytest.raises(ValueError, match="unknown system"):
            spec.admit_system(name)
    with pytest.raises(ReproError, match="outside the feasible range"):
        lint.admit_system("gen:fischer-99")
