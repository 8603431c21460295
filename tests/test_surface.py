"""The system table (:mod:`repro.surface`): one memoised bundle per name,
shared by every consumer in the process, so no consumer may change it;
and one builder per system shape, so a shipped system and its ``gen:``
twin give the same verdicts."""

import copy
import json
import re
from dataclasses import fields
from fractions import Fraction

import pytest

from repro import catalog
from repro.errors import ReproError
from repro.surface import _SYSTEMS, bundle


def _force(system):
    """Build every fact the bundle declares, so the memo is complete."""
    system.timed()
    system.lint_target()
    system.requirements()
    system.mappings()
    if system.system_factory is not None:
        system.system()
    if system.obligations_factory is not None:
        system.obligations()
        system.bounds()


def _snapshot(system):
    """Everything a consumer could reach and change: the declared
    fields, the memo's entries, the contents of each memoised list and
    tuple, the lint target's fields and the (A, b) boundmap."""
    memo = system._memo
    target = memo["lint target"]
    timed = memo["timed"]
    return {
        "fields": {
            f.name: copy.copy(getattr(system, f.name))
            for f in fields(system)
            if f.name != "_memo"
        },
        "memo": {key: id(value) for key, value in memo.items()},
        "lists": {
            key: [id(item) for item in value]
            for key, value in memo.items()
            if isinstance(value, (list, tuple))
        },
        "reports": [o.to_dict() for o in memo.get("obligations", ())]
        + [b.to_dict() for b in memo.get("bounds", ())],
        "target": dict(vars(target)),
        "boundmap": sorted(timed.boundmap.items()),
        "automaton": id(timed.automaton),
        "system": copy.copy(getattr(memo.get("system"), "__dict__", None)),
    }


def _consume(name):
    """Run every consumer of one system's bundle, small-sized."""
    from repro.analyze import analyze_system
    from repro.core.checker import check_mapping_exhaustive
    from repro.faults import Budget, build_perturb_target
    from repro.ioa.explorer import explore
    from repro.lint import build_target, lint_system
    from repro.obs.tracing import trace_system
    from repro.surface import explore_automaton, mapping_specs

    lint_system(build_target(name), max_states=500)
    if name not in catalog.SURFACE_SYSTEMS and not name.startswith(catalog.GEN_PREFIX):
        return
    analyze_system(name)
    automaton, cap = explore_automaton(name)
    explore(automaton, max_states=min(cap, 500))
    for _label, mapping, grid, horizon in mapping_specs(name):
        check_mapping_exhaustive(mapping, grid=grid, horizon=horizon, max_pairs=2_000)
    target = build_perturb_target(name, seeds=1, steps=20)
    for eps in (Fraction(0), Fraction(1, 8)):
        target.evaluate(eps, Budget(max_states=20_000, max_steps=200_000, wall_time=30))
    if name in catalog.SURFACE_SYSTEMS:
        trace_system(name, steps=20)


@pytest.mark.parametrize(
    "name", list(_SYSTEMS) + ["gen:relay_line-3", "gen:fischer-4", "gen:tournament-2"]
)
def test_consumers_leave_the_shared_bundle_unchanged(name):
    system = bundle(name)
    _force(system)
    before = _snapshot(system)
    _consume(name)
    assert bundle(name) is system
    assert _snapshot(system) == before


def test_unknown_and_lint_only_names_are_refused():
    with pytest.raises(ReproError, match="unknown system"):
        bundle("nope")
    with pytest.raises(ReproError, match="declares no obligations"):
        bundle("interrupt").obligations()
    assert bundle("request-grant").perturb_builder is None


def test_interrupt_reuses_the_resource_managers_parameters():
    assert bundle("interrupt").system() is bundle("rm").system().params



#: Shipped systems and the family member of the same shape and size.
TWINS = [
    ("relay", "gen:relay_line-3"),
    ("fischer", "gen:fischer-2"),
    ("tournament", "gen:tournament-2"),
]


def _masked(name, text):
    """``text`` with the system's own name (a JSON value, a location
    prefix, a report heading) replaced by a placeholder."""
    return re.sub(r'(?<=["\[ ]){}(?=["/:])'.format(re.escape(name)), "<system>", text)


def _report(kind, name, capsys):
    from repro.cli import main

    assert main([kind, name, "--json", "--no-cache"]) == 0
    entry = json.loads(capsys.readouterr().out)
    entry.pop("wall", None)
    return _masked(name, json.dumps(entry, sort_keys=True))


def _battery(name):
    from repro.faults import build_perturb_target

    target = build_perturb_target(name, seeds=1, steps=30)
    outcomes = [target.evaluate(eps) for eps in (Fraction(0), Fraction(1, 2))]
    search = vars(target.search(resolution=Fraction(1, 8))).copy()
    search.pop("system")
    return _masked(
        name,
        repr(
            [(o.ok, o.conclusive, o.steps_checked, o.detail) for o in outcomes]
            + [sorted(search.items())]
        ),
    )


@pytest.mark.parametrize("shipped, generated", TWINS)
def test_shipped_system_and_its_family_twin_agree(shipped, generated, capsys):
    for kind in ("lint", "analyze", "check"):
        assert _report(kind, shipped, capsys) == _report(kind, generated, capsys), kind
    assert _battery(shipped) == _battery(generated)


def test_relay_line_facts_share_one_system(monkeypatch):
    from repro.gen.families import _BUILDERS
    from repro.gen.names import parse
    from repro.systems import RelaySystem

    built = []
    init = RelaySystem.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RelaySystem, "__init__", counting)
    relay = _BUILDERS["relay_line"](parse("gen:relay_line-3"))
    system = relay.system()
    assert relay.timed() is system.timed
    target = relay.lint_target()
    assert [automaton for _, automaton in target.timed_automata] == [
        system.timed,
        system.dummified,
    ]
    assert relay.mappings()[0][1].source is system.algorithm
    evaluate = relay.perturb_builder("tighten", "scale", 1, 20, 0)
    assert evaluate(Fraction(0), None).ok
    assert built == [system]
