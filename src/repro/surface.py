"""Every system the toolchain checks, declared once.

Each theorem the toolkit checks is a claim about one concrete system:
the Section 4 resource manager, the Section 6 relay, the chain, the
Fischer, Peterson and tournament mutexes, and the two lint-only
systems.  :data:`_SYSTEMS` builds each of them from its canonical
parameters, stated once, into a :class:`Bundle`: the one record every
consumer reads — ``lint`` its lint target, ``analyze`` its obligations,
bounds, requirements and waivers, ``check`` its automaton, exploration
cap and mapping specs, ``perturb`` its battery, ``trace`` its runs.
Generated ``gen:`` systems (:func:`repro.gen.families.build_bundle`)
are bundles too, so :func:`bundle` serves both kinds of name and no
consumer forks on which kind it holds.  The relay, Fischer and
tournament builders take the system's size, and the ``gen:`` families
of the same shape call them at the parsed size: each shape is built
in one place.

Like :mod:`repro.catalog`, this module imports only the standard
library and the catalog at module level, so naming a system loads no
engine; every builder imports what it uses when it runs.  The module
lives outside ``repro.systems`` so that the verdict cache's closure
fingerprint sees its imports and keys each system on its own modules.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import catalog

__all__ = ["Bundle", "bundle", "explore_automaton", "mapping_specs"]


@dataclass
class Bundle:
    """Everything the toolchain knows about one system.

    Factories are thunks, so a consumer builds only the facts it reads;
    each result is memoised on first use.  A bundle is shared by every consumer in the process, so what
    an accessor returns is read-only: a consumer that needs to change a
    list copies it first.
    """

    name: str
    timed_factory: Callable[[], Any]
    lint_target_factory: Callable[[], Any]
    #: The system object for mapping systems, the params record for the
    #: others.
    system_factory: Optional[Callable[[], Any]] = None
    description: str = ""
    max_states: int = 4_000
    grid: Optional[Fraction] = None
    horizon: Optional[Fraction] = None
    #: ``() -> [(label, mapping)]``, or None for zone-only systems.
    mappings_factory: Optional[Callable[[], List[Tuple[str, Any]]]] = None
    obligations_factory: Optional[Callable[[], List[Any]]] = None
    bounds_factory: Optional[Callable[[], List[Any]]] = None
    tolerance: Optional[Fraction] = None
    #: Conditions handed to the interference pass and linted as the
    #: system's requirements.
    requirements_factory: Callable[[], Tuple[Any, ...]] = tuple
    analyze_waivers: Tuple[Tuple[str, str], ...] = ()
    perturb_direction: str = "tighten"
    #: ``(direction, mode, seeds, steps, seed) -> evaluate``: the
    #: perturb battery, ``check``'s at ``ε = 0``.
    perturb_builder: Optional[Callable] = None
    #: ``(description, predicate)`` of the states a safety system must
    #: never reach.
    violation: Optional[Tuple[str, Callable[[Any], bool]]] = None
    #: Safety systems too big for a full zone sweep: the node cap of the
    #: bounded sweep their battery runs instead, reported inconclusive
    #: and backed by a screen of adversarial runs.
    bounded_sweep: Optional[int] = None
    #: Generated systems: the family and its params.
    family: str = ""
    params: Dict[str, int] = field(default_factory=dict)
    _memo: Dict[str, Any] = field(default_factory=dict, repr=False)

    def _cached(self, key: str, thunk: Optional[Callable[[], Any]]) -> Any:
        if key not in self._memo:
            if thunk is None:
                from repro.errors import ReproError

                raise ReproError("system {!r} declares no {}".format(self.name, key))
            self._memo[key] = thunk()
        return self._memo[key]

    def timed(self) -> Any:
        return self._cached("timed", self.timed_factory)

    def system(self) -> Any:
        return self._cached("system", self.system_factory)

    def mappings(self) -> Optional[List[Tuple[str, Any]]]:
        if self.mappings_factory is None:
            return None
        return self._cached("mappings", self.mappings_factory)

    def lint_target(self) -> Any:
        return self._cached("lint target", self.lint_target_factory)

    def obligations(self) -> List[Any]:
        return self._cached("obligations", self.obligations_factory)

    def bounds(self) -> List[Any]:
        return self._cached("bounds", self.bounds_factory)

    def requirements(self) -> Tuple[Any, ...]:
        return self._cached("requirements", self.requirements_factory)

    def describe_dict(self) -> Dict[str, Any]:
        """A stable, JSON-serialisable description of the instance —
        the payload ``gen emit`` prints.  Deterministic by construction
        (sorted keys, exact fractions as strings), so equal seeds and
        params yield byte-identical serialisations across processes."""
        from repro.gen.names import GEN_VERSION

        timed = self.timed()
        classes = sorted(name for name, _ in timed.boundmap.items())
        boundmap = {
            name: [_frac(timed.boundmap[name].lo), _frac(timed.boundmap[name].hi)]
            for name in classes
        }
        bounds = [
            {
                "label": bound.label,
                "derived": [_frac(bound.derived.lo), _frac(bound.derived.hi)],
                "declared": [_frac(bound.declared.lo), _frac(bound.declared.hi)],
            }
            for bound in sorted(self.bounds(), key=lambda b: b.label)
        ]
        return {
            "gen_version": GEN_VERSION,
            "name": self.name,
            "family": self.family,
            "params": dict(sorted(self.params.items())),
            "description": self.description,
            "classes": classes,
            "boundmap": boundmap,
            "max_states": self.max_states,
            "grid": None if self.grid is None else _frac(self.grid),
            "horizon": None if self.horizon is None else _frac(self.horizon),
            "mappings": [label for label, _ in (self.mappings() or [])],
            "declared_bounds": bounds,
            "tolerance": None if self.tolerance is None else _frac(self.tolerance),
        }


def _frac(value) -> str:
    from repro.timed.interval import INFINITY

    if value == INFINITY:
        return "inf"
    return str(Fraction(value))


def _ratio(lo, hi) -> Fraction:
    """The closed-form tolerance ``(hi − lo)/(hi + lo)`` of an interval."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo + hi == 0:
        return Fraction(0)
    return (hi - lo) / (hi + lo)


def _lint_target(system: Bundle, dummified=None, waivers=()):
    """A shipped system's lint target: its ``(A, b)``, its dummified
    automaton if any, its requirements over the automaton they
    constrain, and its mappings — one standalone, or a hierarchy —
    each under a ``<name>/…`` location."""
    from repro.lint.targets import SystemTarget

    name, timed = system.name, system.timed()
    mappings = [mapping for _label, mapping in system.mappings() or ()]
    automata = (("{}/(A,b)".format(name), timed),)
    if dummified is not None:
        automata += (("{}/(A~,b~)".format(name), dummified),)
    constrained = (timed if dummified is None else dummified).automaton
    requirements = system.requirements()
    return SystemTarget(
        name=name,
        timed_automata=automata,
        condition_sets=(
            (("{}/requirements".format(name), constrained, requirements),)
            if requirements
            else ()
        ),
        mappings=tuple(mappings) if len(mappings) == 1 else (),
        chains=(("{}/hierarchy".format(name), mappings),) if len(mappings) > 1 else (),
        waivers=waivers,
    )


#: What a chain's projection steps rest on for trigger agreement.
CHAIN_LEMMA = "the chain analogue of Lemma 6.1 (one event in flight at a time)"


def _mapping_obligations(system: Bundle, lemma: str = "") -> List[Any]:
    """Definition 3.2's obligations of every mapping the bundle declares,
    compiled from the declarations (:mod:`repro.analyze.compiler`)."""
    from repro.analyze.compiler import mapping_obligations

    return mapping_obligations(system.name, system.mappings(), lemma, system.max_states)


def _levels(prefix: str, hierarchy) -> List[Tuple[str, Any]]:
    return [("{}[{}]".format(prefix, level), mapping) for level, mapping in enumerate(hierarchy)]


# ----------------------------------------------------------------------
# The shipped systems
# ----------------------------------------------------------------------


def _rm() -> Bundle:
    from repro.systems import (
        ResourceManagerParams,
        ResourceManagerSystem,
        resource_manager_mapping,
    )

    system = ResourceManagerSystem(
        ResourceManagerParams(k=3, c1=Fraction(2), c2=Fraction(3), l=Fraction(1))
    )

    def bounds():
        from repro.analyze.composition import _rm_bounds

        return _rm_bounds("rm", system)

    def perturb(*battery):
        from repro.faults.targets import _rm_builder

        return _rm_builder(system, *battery)

    rm = Bundle(
        name="rm",
        timed_factory=lambda: system.timed,
        system_factory=lambda: system,
        grid=Fraction(1, 2),
        horizon=Fraction(8),
        mappings_factory=lambda: [("rm", resource_manager_mapping(system))],
        lint_target_factory=lambda: _lint_target(rm),
        obligations_factory=lambda: _mapping_obligations(rm),
        bounds_factory=bounds,
        tolerance=_ratio(system.params.c1, system.params.c2),
        requirements_factory=lambda: (system.g1, system.g2),
        perturb_builder=perturb,
    )
    return rm


def _line(name: str, system, label: str, section: str, lemma: str, **fields) -> Bundle:
    """A relay or a chain: its hierarchy as the mappings ``label[level]``,
    linted with its dummified automaton, its bounds the partial sums of
    its stages, stressed by the line battery."""

    def bounds():
        from repro.analyze.composition import _line_bounds

        return _line_bounds(name, system)

    def perturb(*battery):
        from repro.faults.targets import _line_builder

        return _line_builder(system, label, section, *battery)

    line = Bundle(
        name=name,
        timed_factory=lambda: system.timed,
        system_factory=lambda: system,
        grid=Fraction(1, 2),
        mappings_factory=lambda: _levels(label, system.hierarchy()),
        lint_target_factory=lambda: _lint_target(
            line, dummified=system.dummified, waivers=(("R005", repr(system.class_name(0))),)
        ),
        obligations_factory=lambda: _mapping_obligations(line, lemma),
        bounds_factory=bounds,
        tolerance=min(_ratio(s.lo, s.hi) for s in system.stages),
        requirements_factory=lambda: (system.requirement,),
        perturb_builder=perturb,
        **fields
    )
    return line


def _relay(name: str, n: int, **fields) -> Bundle:
    """The Section 6 relay with ``n`` stages of hop window [1, 2]."""
    from repro.systems import RelayParams, RelaySystem

    system = RelaySystem(RelayParams(n=n, d1=Fraction(1), d2=Fraction(2)))
    lemma = "Lemma 6.1 (at most one flag is up)"
    return _line(name, system, "relay", "Section 6", lemma, horizon=Fraction(n + 2), **fields)


def _chain() -> Bundle:
    from repro.systems.extensions import ChainSystem
    from repro.timed.interval import Interval

    system = ChainSystem([Interval(1, 2), Interval(2, 3)])
    return _line(
        "chain",
        system,
        "chain",
        "Section 8",
        CHAIN_LEMMA,
        horizon=Fraction(6),
        # Sequential stages meet at their boundary (stage k's latest
        # completion equals stage k+1's earliest): not a race, the
        # stages are never co-enabled.
        analyze_waivers=(("R018", "'EVENT_1'"),),
    )


def _mutex(name, record, timed, violation, obligations, bounds, waivers, **fields) -> Bundle:
    """A mutual-exclusion system: zone-only (no mappings), its params
    ``record`` as its system, stressed by widening its clocks."""

    def perturb(*battery):
        from repro.faults.targets import _safety_builder

        return _safety_builder(mutex, *battery)

    mutex = Bundle(
        name=name,
        timed_factory=timed,
        system_factory=lambda: record,
        lint_target_factory=lambda: _lint_target(mutex, waivers=waivers),
        obligations_factory=obligations,
        bounds_factory=bounds,
        perturb_direction="widen",
        perturb_builder=perturb,
        violation=violation,
        **fields
    )
    return mutex


def _fischer(name: str, n: int, b: Fraction, **fields) -> Bundle:
    """Fischer's mutex over ``n`` processes, set within [0, 1] and
    check after ``b``."""
    from repro.systems.extensions import FischerParams, fischer_system, mutual_exclusion_violated

    params = FischerParams(n=n, a=Fraction(1), b=b)

    def obligations():
        from repro.analyze.obligations import _fischer_obligation

        return [_fischer_obligation(name, params)]

    def bounds():
        from repro.analyze.composition import _fischer_bounds

        return _fischer_bounds(name, params)

    return _mutex(
        name,
        params,
        lambda: fischer_system(params),
        ("mutual exclusion violated", mutual_exclusion_violated),
        obligations,
        bounds,
        waivers=(("R005", "'TRY_"), ("R005", "'EXIT_")),
        tolerance=_ratio(params.a, params.b),
        max_states=max(4_000, 200 * 4 ** (n - 2)),
        # Above n = 3 a full zone sweep is out of reach (~78 ms/node,
        # 5^n growth).
        bounded_sweep=None if n <= 3 else 120,
        **fields
    )


def _peterson() -> Bundle:
    from repro.systems.extensions import PetersonParams, both_critical, peterson_system

    params = PetersonParams(s1=Fraction(1), s2=Fraction(2))

    def obligations():
        from repro.analyze.obligations import _peterson_obligation

        return [_peterson_obligation("peterson", params)]

    def bounds():
        from repro.analyze.composition import _peterson_bounds

        return _peterson_bounds("peterson", params)

    return _mutex(
        "peterson",
        params,
        lambda: peterson_system(params),
        ("both processes critical", both_critical),
        obligations,
        bounds,
        waivers=(("R005", "'CS_"),),
    )


def _tournament(name: str, width: int, **fields) -> Bundle:
    """The tournament mutex bracket over ``width`` processes."""
    from repro.systems.extensions import (
        TournamentParams,
        tournament_mutex_violated,
        tournament_system,
    )

    params = TournamentParams(n=width, s1=Fraction(1), s2=Fraction(2))

    def obligations():
        from repro.analyze.obligations import _tournament_obligations

        return _tournament_obligations(name, params)

    def bounds():
        from repro.analyze.composition import _tournament_bounds

        return _tournament_bounds(name, params)

    return _mutex(
        name,
        params,
        lambda: tournament_system(params),
        ("two processes critical", tournament_mutex_violated),
        obligations,
        bounds,
        waivers=(("R005", "'CS_"), ("R005", "'STEP_")),
        max_states=max(4_000, 2_000 * width),
        bounded_sweep=None if width <= 2 else 400,
        **fields
    )


def _request_grant() -> Bundle:
    from repro.systems.extensions.request_grant import (
        RequestGrantParams,
        request_grant_system,
        response_condition,
    )

    params = RequestGrantParams(r1=Fraction(3), r2=Fraction(4), l=Fraction(1))
    request_grant = Bundle(
        name="request-grant",
        timed_factory=lambda: request_grant_system(params),
        system_factory=lambda: params,
        lint_target_factory=lambda: _lint_target(request_grant),
        requirements_factory=lambda: (response_condition(params),),
    )
    return request_grant


def _interrupt() -> Bundle:
    from repro.systems.extensions.interrupt_manager import interrupt_resource_manager

    params = bundle("rm").system().params
    interrupt = Bundle(
        name="interrupt",
        timed_factory=lambda: interrupt_resource_manager(params),
        system_factory=lambda: params,
        lint_target_factory=lambda: _lint_target(interrupt),
    )
    return interrupt


#: ``name -> builder`` of every shipped system: the verification
#: surface (:data:`repro.catalog.SURFACE_SYSTEMS`) in catalog order,
#: then the lint-only systems.
_SYSTEMS: Dict[str, Callable[[], Bundle]] = {
    "rm": _rm,
    "relay": lambda: _relay("relay", 3),
    "chain": _chain,
    "fischer": lambda: _fischer("fischer", 2, Fraction(2)),
    "fischer-tight": lambda: _fischer("fischer-tight", 2, Fraction(1)),
    "peterson": _peterson,
    "tournament": lambda: _tournament("tournament", 2),
    "request-grant": _request_grant,
    "interrupt": _interrupt,
}


def bundle(name: str) -> Bundle:
    """The bundle of a shipped or ``gen:`` system, built once per
    process (the most recent generated ones, see
    :func:`repro.gen.families.build_bundle`).  An unknown name raises
    :class:`~repro.errors.ReproError`."""
    if isinstance(name, str) and name.startswith(catalog.GEN_PREFIX):
        from repro.gen.families import build_bundle

        return build_bundle(name)
    return _shipped(name)


@functools.lru_cache(maxsize=None)
def _shipped(name: str) -> Bundle:
    build = _SYSTEMS.get(name)
    if build is None:
        from repro.errors import ReproError

        raise ReproError(
            "unknown system {!r}; expected one of {} or a gen: name".format(
                name, ", ".join(_SYSTEMS)
            )
        )
    return build()


def explore_automaton(name: str) -> Tuple[Any, int]:
    """The system's base automaton and its canonical exploration cap."""
    system = bundle(name)
    return system.timed().automaton, system.max_states


def mapping_specs(name: str) -> List[Tuple[str, Any, Fraction, Fraction]]:
    """The system's exhaustive mapping obligations as
    ``(label, mapping, grid, horizon)`` tuples (empty for zone-only
    systems)."""
    system = bundle(name)
    return [
        (label, mapping, system.grid, system.horizon)
        for label, mapping in system.mappings() or ()
    ]
