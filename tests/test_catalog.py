"""The name table of :mod:`repro.catalog` against the modules that own
each name: the system table (:mod:`repro.surface`) holds every shipped
system, and every owner re-exports the catalog's constant."""

from fractions import Fraction

import pytest

from repro import catalog


def test_lint_targets():
    """Lint walks the catalog's lint systems and reads each one's bundle."""
    from repro.lint import build_all_targets, build_target
    from repro.surface import bundle

    assert tuple(t.name for t in build_all_targets()) == catalog.LINT_SYSTEMS
    for name in catalog.LINT_SYSTEMS:
        assert build_target(name) is bundle(name).lint_target(), name
    for name in catalog.SURFACE_SYSTEMS:
        assert build_target(name).timed_automata[0][1] is bundle(name).timed(), name


def test_verification_surface():
    """One table declares every shipped system, the surface first and in
    catalog order; each name resolves to one memoised bundle."""
    from repro.surface import _SYSTEMS, bundle, explore_automaton, mapping_specs

    assert tuple(_SYSTEMS)[: len(catalog.SURFACE_SYSTEMS)] == catalog.SURFACE_SYSTEMS
    assert set(_SYSTEMS) == set(catalog.LINT_SYSTEMS) | set(catalog.SURFACE_SYSTEMS)
    for name in _SYSTEMS:
        assert bundle(name) is bundle(name), name
    for name in catalog.SURFACE_SYSTEMS:
        system = bundle(name)
        assert explore_automaton(name) == (system.timed().automaton, system.max_states)
        labels = [label for label, *_ in mapping_specs(name)]
        assert labels == [label for label, _ in system.mappings() or ()], name


def test_analyze_systems(monkeypatch):
    """Analyze covers the surface in catalog order and hands each pass
    the bundle's timed automaton."""
    import repro.analyze.driver as driver
    from repro.analyze import analyze_all
    from repro.surface import bundle

    contexts, context = [], driver.InterferenceContext
    monkeypatch.setattr(
        driver, "InterferenceContext", lambda **f: contexts.append(f) or context(**f)
    )
    reports = analyze_all()
    assert tuple(report.system for report in reports) == catalog.SURFACE_SYSTEMS
    for name, ctx in zip(catalog.SURFACE_SYSTEMS, contexts, strict=True):
        assert ctx["name"] == name
        assert ctx["timed"] is bundle(name).timed(), name


def test_perturb_targets():
    """Every surface system has a perturb battery; lint-only ones do not."""
    from repro.errors import ReproError
    from repro.faults.targets import build_perturb_target
    from repro.surface import bundle

    for name in catalog.SURFACE_SYSTEMS:
        target = build_perturb_target(name)
        assert target.name == name
        assert target.direction == bundle(name).perturb_direction, name
    for name in set(catalog.LINT_SYSTEMS) - set(catalog.SURFACE_SYSTEMS):
        with pytest.raises(ReproError, match="unknown perturbation target"):
            build_perturb_target(name)


def test_tracers():
    """Every surface system declares what its trace checks: its mappings
    or the states it must never reach."""
    from repro.errors import ReproError
    from repro.obs.tracing import _MAPPING_CHECKS, trace_system
    from repro.surface import bundle

    mapping_systems = tuple(
        name for name in catalog.SURFACE_SYSTEMS if bundle(name).violation is None
    )
    assert mapping_systems == tuple(_MAPPING_CHECKS)
    for name in mapping_systems:
        assert bundle(name).mappings(), name
    for name in set(catalog.LINT_SYSTEMS) - set(catalog.SURFACE_SYSTEMS):
        with pytest.raises(ReproError, match="unknown trace target"):
            trace_system(name)


def test_surface_has_seven_systems():
    assert len(catalog.SURFACE_SYSTEMS) == 7


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
    """Every system a kind accepts declares the facts that kind reads."""
    from repro.runner.jobs import FUZZ_SYSTEM
    from repro.surface import bundle

    facts = {
        "lint": "lint_target_factory",
        "analyze": "obligations_factory",
        "check": "perturb_builder",
        "perturb": "perturb_builder",
    }
    for kind, fact in facts.items():
        for name in catalog.KIND_SPECS[kind].systems:
            assert getattr(bundle(name), fact) is not None, (kind, name)
    assert catalog.KIND_SPECS["fuzz"].systems == (FUZZ_SYSTEM,)
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


def test_key_parts_by_system_name():
    from repro.gen.names import GEN_VERSION

    assert catalog.key_parts("rm") == {}
    assert catalog.key_parts(catalog.FUZZ_SYSTEM) == {"gen_version": GEN_VERSION}
    assert catalog.key_parts("gen:fischer-3") == {
        "gen_family": "fischer", "gen_params": [3], "gen_version": GEN_VERSION,
    }
