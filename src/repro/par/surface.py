"""The per-system verification surface.

One registry, several consumers: ``python -m repro check``
(reachability sweep + mapping obligations per system), the static
analyzer (:mod:`repro.analyze`) and the ``bench/`` deep-verify
workload.  Parameters mirror the canonical builds used by
:mod:`repro.faults.targets`, so a cache key derived from this surface
describes the same work that path does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError

__all__ = [
    "surface_names",
    "explore_automaton",
    "mapping_specs",
    "build_system",
    "build_timed",
    "exhaustive_spec",
]


def _rm_system():
    from repro.systems import ResourceManagerParams, ResourceManagerSystem

    return ResourceManagerSystem(
        ResourceManagerParams(k=3, c1=Fraction(2), c2=Fraction(3), l=Fraction(1))
    )


def _relay_system():
    from repro.systems import RelayParams, RelaySystem

    return RelaySystem(RelayParams(n=3, d1=Fraction(1), d2=Fraction(2)))


def _chain_system():
    from repro.systems.extensions import ChainSystem
    from repro.timed.interval import Interval

    return ChainSystem([Interval(1, 2), Interval(2, 3)])


def _automaton_rm():
    return _rm_system().timed.automaton


def _automaton_relay():
    return _relay_system().timed.automaton


def _automaton_chain():
    return _chain_system().timed.automaton


def _fischer_params():
    from repro.systems.extensions import FischerParams

    return FischerParams(n=2, a=Fraction(1), b=Fraction(2))


def _fischer_tight_params():
    from repro.systems.extensions import FischerParams

    return FischerParams(n=2, a=Fraction(1), b=Fraction(1))


def _peterson_params():
    from repro.systems.extensions import PetersonParams

    return PetersonParams(s1=Fraction(1), s2=Fraction(2))


def _tournament_params():
    from repro.systems.extensions import TournamentParams

    return TournamentParams(n=2, s1=Fraction(1), s2=Fraction(2))


def _timed_fischer():
    from repro.systems.extensions import fischer_system

    return fischer_system(_fischer_params())


def _timed_fischer_tight():
    from repro.systems.extensions import fischer_system

    return fischer_system(_fischer_tight_params())


def _timed_peterson():
    from repro.systems.extensions import peterson_system

    return peterson_system(_peterson_params())


def _timed_tournament():
    from repro.systems.extensions import tournament_system

    return tournament_system(_tournament_params())


def _automaton_fischer():
    return _timed_fischer().automaton


def _automaton_fischer_tight():
    return _timed_fischer_tight().automaton


def _automaton_peterson():
    return _timed_peterson().automaton


def _automaton_tournament():
    return _timed_tournament().automaton


def _mappings_rm() -> List[Tuple[str, Any]]:
    from repro.systems import resource_manager_mapping

    return [("rm", resource_manager_mapping(_rm_system()))]


def _mappings_relay() -> List[Tuple[str, Any]]:
    from repro.systems import relay_hierarchy

    chain = relay_hierarchy(_relay_system())
    return [
        ("relay[{}]".format(level), mapping) for level, mapping in enumerate(chain)
    ]


def _mappings_chain() -> List[Tuple[str, Any]]:
    chain = _chain_system().hierarchy()
    return [
        ("chain[{}]".format(level), mapping) for level, mapping in enumerate(chain)
    ]


#: name -> (automaton builder, mapping-spec builder, explore cap,
#: exhaustive grid, exhaustive horizon).  Zone-only systems have no
#: mappings; their surface is the reachability sweep alone.
_SURFACE: Dict[str, Dict[str, Any]] = {
    "rm": {
        "automaton": _automaton_rm,
        "system": _rm_system,
        "timed": lambda: _rm_system().timed,
        "mappings": _mappings_rm,
        "max_states": 4_000,
        "grid": Fraction(1, 2),
        "horizon": Fraction(8),
    },
    "relay": {
        "automaton": _automaton_relay,
        "system": _relay_system,
        "timed": lambda: _relay_system().timed,
        "mappings": _mappings_relay,
        "max_states": 4_000,
        "grid": Fraction(1, 2),
        "horizon": Fraction(5),
    },
    "chain": {
        "automaton": _automaton_chain,
        "system": _chain_system,
        "timed": lambda: _chain_system().timed,
        "mappings": _mappings_chain,
        "max_states": 4_000,
        "grid": Fraction(1, 2),
        "horizon": Fraction(6),
    },
    "fischer": {
        "automaton": _automaton_fischer,
        "system": _fischer_params,
        "timed": _timed_fischer,
        "mappings": None,
        "max_states": 4_000,
        "grid": None,
        "horizon": None,
    },
    "fischer-tight": {
        "automaton": _automaton_fischer_tight,
        "system": _fischer_tight_params,
        "timed": _timed_fischer_tight,
        "mappings": None,
        "max_states": 4_000,
        "grid": None,
        "horizon": None,
    },
    "peterson": {
        "automaton": _automaton_peterson,
        "system": _peterson_params,
        "timed": _timed_peterson,
        "mappings": None,
        "max_states": 4_000,
        "grid": None,
        "horizon": None,
    },
    "tournament": {
        "automaton": _automaton_tournament,
        "system": _tournament_params,
        "timed": _timed_tournament,
        "mappings": None,
        "max_states": 4_000,
        "grid": None,
        "horizon": None,
    },
}


def surface_names() -> Tuple[str, ...]:
    """The seven shipped systems, in registry order."""
    return tuple(_SURFACE)


def _gen_entry(name: str) -> Dict[str, Any]:
    """A surface entry synthesised from a generated-system bundle, so
    ``gen:`` names flow through every accessor unchanged."""
    from repro.gen.families import build_bundle

    bundle = build_bundle(name)
    mappings = None
    if bundle.mappings_factory is not None:
        mappings = bundle.mappings
    return {
        "automaton": lambda: bundle.timed().automaton,
        "system": bundle.system,
        "timed": bundle.timed,
        "mappings": mappings,
        "max_states": bundle.max_states,
        "grid": bundle.grid,
        "horizon": bundle.horizon,
    }


def _entry(name: str) -> Dict[str, Any]:
    from repro.gen.names import is_gen_name

    if is_gen_name(name):
        return _gen_entry(name)
    if name not in _SURFACE:
        raise ReproError(
            "unknown system {!r}; expected one of {}".format(
                name, ", ".join(_SURFACE)
            )
        )
    return _SURFACE[name]


def explore_automaton(name: str) -> Tuple[Any, int]:
    """The system's base automaton and its canonical exploration cap."""
    entry = _entry(name)
    return entry["automaton"](), entry["max_states"]


def mapping_specs(name: str) -> List[Tuple[str, Any, Fraction, Fraction]]:
    """The system's exhaustive mapping obligations as
    ``(label, mapping, grid, horizon)`` tuples (empty for zone-only
    systems)."""
    entry = _entry(name)
    if entry["mappings"] is None:
        return []
    return [
        (label, mapping, entry["grid"], entry["horizon"])
        for label, mapping in entry["mappings"]()
    ]


def build_system(name: str) -> Any:
    """The system's canonical bundle: the full system object for the
    mapping-bearing systems (rm/relay/chain), the parameter record for
    the zone-only ones.  This is what the static analyzer compiles
    obligations from, so its params are — by construction — the same
    ones the exploratory surface checks."""
    return _entry(name)["system"]()


def build_timed(name: str) -> Any:
    """The system's canonical ``(A, b)`` timed automaton — the object
    the timing-interference lint rules inspect."""
    return _entry(name)["timed"]()


def exhaustive_spec(name: str) -> Tuple[Fraction, Fraction]:
    """The canonical (grid, horizon) used for exhaustive mapping checks
    (None for zone-only systems)."""
    entry = _entry(name)
    return entry["grid"], entry["horizon"]
