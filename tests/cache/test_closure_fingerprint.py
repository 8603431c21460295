"""Dependency-closure fingerprints (:mod:`repro.cache.fingerprint`).

The invariant under test: a ``(kind, system)`` verdict key moves iff a
module *inside* that pair's dependency closure changes.  Editing
``repro.serve`` must leave ``check rm`` warm; editing the system's own
module — or the zone engine everything rides on — must invalidate it.
"""

import os
import re
import shutil

from repro.cache.fingerprint import (
    FAMILY_SEEDS,
    KIND_ROOTS,
    SYSTEM_SEEDS,
    closure_current,
    closure_fingerprint,
    dependency_closure,
    source_fingerprint,
)


def _package_root():
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def _edited_copy(tmp_path, relpath, name="edited"):
    """A copy of the installed package with one module touched."""
    root = tmp_path / name / "repro"
    shutil.copytree(
        _package_root(), root, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = root / relpath
    target.write_text(target.read_text() + "\n# touched\n")
    return str(root)


def _pristine_copy(tmp_path):
    root = tmp_path / "pristine" / "repro"
    shutil.copytree(
        _package_root(), root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return str(root)


class TestClosureContents:
    def test_engine_kinds_exclude_orchestration(self):
        for kind in ("check", "lint", "analyze", "perturb"):
            mods = dependency_closure(kind, "rm")
            assert not any(m.startswith("repro.serve") for m in mods), kind
            assert not any(m.startswith("repro.dist") for m in mods), kind
            assert "repro.cli" not in mods, kind

    def test_system_partition(self):
        rm = dependency_closure("check", "rm")
        relay = dependency_closure("check", "relay")
        assert "repro.systems.resource_manager" in rm
        assert "repro.systems.mappings_rm" in rm
        assert "repro.systems.signal_relay" not in rm
        assert "repro.systems.signal_relay" in relay
        assert "repro.systems.resource_manager" not in relay

    def test_intra_system_dependencies_followed(self):
        # interrupt builds on the resource manager — a genuine
        # cross-system dependency the closure must keep.
        mods = dependency_closure("lint", "interrupt")
        assert "repro.systems.extensions.interrupt_manager" in mods
        assert "repro.systems.resource_manager" in mods

    def test_zone_engine_always_in_engine_closures(self):
        for kind in ("check", "lint", "analyze", "perturb"):
            mods = dependency_closure(kind, "rm")
            assert "repro.zones.dbm" in mods, kind

    def test_unknown_kind_falls_back_to_whole_package(self):
        everything = dependency_closure("nonsense", "rm")
        assert any(m.startswith("repro.serve") for m in everything)
        assert any(m.startswith("repro.dist") for m in everything)
        assert set(dependency_closure("check", "rm")) < set(everything)

    def test_unknown_system_falls_back_to_whole_package(self):
        everything = dependency_closure("check", "mystery-box")
        assert any(m.startswith("repro.serve") for m in everything)

    def test_gen_systems_close_over_their_family(self):
        mods = dependency_closure("check", "gen:fischer-3")
        assert any(m.startswith("repro.gen") for m in mods)
        assert "repro.systems.extensions.fischer" in mods
        # repro.surface builds every shipped system, but a family is
        # keyed on its own systems modules only.
        systems = [m for m in mods if m.startswith("repro.systems.")]
        assert systems == ["repro.systems.extensions", "repro.systems.extensions.fischer"]
        assert mods == dependency_closure("check", "gen:fischer-5")
        relay = dependency_closure("check", "gen:relay_line-4")
        assert "repro.systems.signal_relay" in relay
        assert "repro.systems.extensions.fischer" not in relay

    def test_every_gen_family_has_seeds(self):
        from repro.gen.names import family_names

        assert set(FAMILY_SEEDS) == set(family_names())

    def test_kind_and_seed_maps_name_real_modules(self):
        mods = set(dependency_closure("nonsense", "rm"))  # the full roster
        for kind, roots in KIND_ROOTS.items():
            for root in roots:
                absolute = "repro." + root
                assert any(
                    m == absolute or m.startswith(absolute + ".") for m in mods
                ), (kind, root)
        for system, seeds in list(SYSTEM_SEEDS.items()) + list(FAMILY_SEEDS.items()):
            for seed in seeds:
                assert "repro." + seed in mods, (system, seed)


class TestInvalidation:
    def test_edit_outside_closure_preserves_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "rm", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check", "rm", _edited_copy(tmp_path, "serve/app.py")
        )
        assert before == after

    def test_edit_system_module_moves_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "rm", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check", "rm", _edited_copy(tmp_path, "systems/resource_manager.py")
        )
        assert before != after

    def test_edit_family_system_module_moves_gen_fingerprint(self, tmp_path):
        before = closure_fingerprint(
            "check", "gen:tournament-2", _pristine_copy(tmp_path)
        )
        after = closure_fingerprint(
            "check",
            "gen:tournament-2",
            _edited_copy(tmp_path, "systems/extensions/tournament.py"),
        )
        assert before != after

    def test_edit_other_system_preserves_gen_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "gen:fischer-3", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check", "gen:fischer-3", _edited_copy(tmp_path, "systems/resource_manager.py")
        )
        assert before == after

    def test_edit_own_family_module_moves_gen_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "gen:fischer-3", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check",
            "gen:fischer-3",
            _edited_copy(tmp_path, "systems/extensions/fischer.py"),
        )
        assert before != after

    def test_edit_zone_engine_moves_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "rm", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check", "rm", _edited_copy(tmp_path, "zones/dbm.py", name="edited-zones")
        )
        assert before != after

    def test_edit_other_system_preserves_fingerprint(self, tmp_path):
        before = closure_fingerprint("check", "rm", _pristine_copy(tmp_path))
        after = closure_fingerprint(
            "check", "rm", _edited_copy(tmp_path, "systems/signal_relay.py")
        )
        assert before == after

    def test_whole_package_fingerprint_still_total(self, tmp_path):
        # The legacy whole-package hash moves on *any* edit — CI's
        # actions/cache restore key relies on that.
        before = source_fingerprint(_pristine_copy(tmp_path))
        after = source_fingerprint(_edited_copy(tmp_path, "serve/app.py"))
        assert before != after

    def test_closure_fingerprints_memoised(self):
        assert closure_fingerprint("check", "rm") == closure_fingerprint(
            "check", "rm"
        )
        assert closure_fingerprint("check", "rm") != closure_fingerprint(
            "check", "relay"
        )


#: Kinds whose verdicts depend on the registered lint rules.
RULE_BACKED_KINDS = ("lint", "analyze", "analyze-mapping", "check")

_RULE_DECORATOR = re.compile(rb"^@rule\(", re.MULTILINE)


def _rule_modules():
    """Every module that registers a lint rule: the defining modules of
    the registered rules, plus any package module with a module-level
    ``@rule(`` decorator (registered or not yet imported)."""
    import repro.analyze.interference  # noqa: F401  registers R015+
    import repro.lint.rules  # noqa: F401  registers R001+
    from repro.lint.registry import all_rules

    found = {r.func.__module__ for r in all_rules()}
    root = _package_root()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "rb") as fh:
                if not _RULE_DECORATOR.search(fh.read()):
                    continue
            parts = os.path.relpath(path, root)[: -len(".py")].split(os.sep)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            found.add(".".join(["repro"] + parts))
    return found


class TestRuleSetInKey:
    """The rule set keys lint/analyze verdicts through the closure
    fingerprint alone: no key part of its own."""

    def test_rule_modules_in_every_rule_backed_closure(self):
        modules = _rule_modules()
        assert {"repro.lint.rules", "repro.analyze.interference"} <= modules
        for kind in RULE_BACKED_KINDS:
            for system in list(SYSTEM_SEEDS) + ["gen:fischer-3", "gen:relay_line-2"]:
                closure = set(dependency_closure(kind, system))
                assert modules <= closure, (kind, system, modules - closure)

    def test_rule_edit_moves_lint_and_analyze_fingerprints(self, tmp_path):
        pristine = _pristine_copy(tmp_path)
        edited = _edited_copy(tmp_path, "lint/rules.py")
        for kind in ("lint", "analyze"):
            assert closure_fingerprint(kind, "rm", pristine) != closure_fingerprint(
                kind, "rm", edited
            ), kind


class TestFrozenClosureGuard:
    """A process whose code was imported right after its scan
    (:func:`~repro.cache.fingerprint.freeze`, the attempt forkserver)
    learns when a file of a closure changed on disk since: by stat, or
    by content for a file modified too close to the scan to tell.  A
    process that imports as it goes keeps its one scan and is never
    told."""

    def test_edit_inside_closure_makes_it_stale(self, tmp_path):
        from repro.cache import fingerprint

        root = _pristine_copy(tmp_path)
        fingerprint.freeze(root)
        assert closure_current("check", "rm", root)
        target = os.path.join(root, "serve", "app.py")
        with open(target, "a") as fh:
            fh.write("\n# touched\n")
        assert closure_current("check", "rm", root)  # outside the closure
        target = os.path.join(root, "systems", "resource_manager.py")
        with open(target, "a") as fh:
            fh.write("\n# touched\n")
        assert not closure_current("check", "rm", root)
        assert closure_current("check", "relay", root)

    def test_racy_file_is_told_by_its_content(self, tmp_path):
        from repro.cache import fingerprint

        root = _pristine_copy(tmp_path)
        fingerprint.freeze(root)
        scan = fingerprint._SCANS[root]
        module = "repro.systems.mappings_rm"
        path, size, _ = scan.files[module]
        # The mtime the scan recorded is the scan's own start: a
        # same-size edit right after could carry it too.
        os.utime(path, ns=(scan.started_ns, scan.started_ns))
        scan.files[module] = (path, size, scan.started_ns)
        assert closure_current("check", "rm", root)  # same bytes
        with open(path, "rb") as fh:
            source = fh.read()
        with open(path, "wb") as fh:
            fh.write(source[:-1] + b"#")  # same size, other bytes
        os.utime(path, ns=(scan.started_ns, scan.started_ns))
        assert os.path.getsize(path) == size
        assert not closure_current("check", "rm", root)

    def test_unhashed_process_has_nothing_stale(self, tmp_path):
        assert closure_current("check", "rm", _pristine_copy(tmp_path))

    def test_unfrozen_process_is_never_stale(self, tmp_path):
        root = _pristine_copy(tmp_path)
        closure_fingerprint("check", "rm", root)  # scans, does not freeze
        target = os.path.join(root, "systems", "resource_manager.py")
        with open(target, "a") as fh:
            fh.write("\n# touched\n")
        assert closure_current("check", "rm", root)
