"""Parametric system families.

Each family is the paper's construction at an arbitrary size: Fischer
mutual exclusion with ``n`` processes, the Section 6 signal relay as a
``k``-stage line, the same hop discipline closed into a token ring or
fanned out into a tree (the B_k hierarchy applied per root-leaf path),
and the tournament mutex bracket.  :func:`build_bundle` turns a parsed
``gen:`` name into a :class:`~repro.surface.Bundle`, the record a
shipped system has too — everything the rest of the toolchain needs to
treat the instance exactly like a shipped system: the ``(A, b)`` timed
automaton and exploration cap, exhaustive mapping obligations, the
lint target, the statically dischargeable obligations with their
declared closed-form bounds, and the perturb battery ``check``
evaluates at ``ε = 0``.

Cost model (the :mod:`repro.gen.names` caps exist to keep these true):

==============  =======================  ================================
family          untimed states           battery
==============  =======================  ================================
fischer(n)      ~5^n (16,320 at n=6)     full zone sweep for n <= 3;
                                         bounded sweep + seeded runs above
relay_line(k)   k + 4                    full hierarchy sweep + zones
relay_ring(k)   k                        exact zone lap/arrival bounds
relay_tree(d,f) order ideals of the      spine hierarchy sweep + zone
                node poset (677 at 3x2)  root-to-leaf bounds
tournament(w)   ~26 (w=2), 3,764 (w=4)   full sweep at w=2; bounded above
==============  =======================  ================================
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Callable, Dict, List

from repro.errors import ReproError
from repro.gen.names import GenName, parse
from repro.ioa.actions import Act, Kind
from repro.ioa.composition import Composition
from repro.ioa.guarded import ActionSpec, GuardedAutomaton
from repro.ioa.partition import Partition
from repro.surface import Bundle
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.interval import Interval

__all__ = [
    "FIRE",
    "PASS",
    "build_bundle",
    "tree_node_count",
    "tree_state_count",
]

#: The canonical hop window every generated relay-style family uses —
#: matches the shipped relay (d1=1, d2=2) so bound tables line up.
_HOP = Interval(Fraction(1), Fraction(2))


def PASS(i: int) -> Act:
    """Station ``i`` hands the token on (relay_ring)."""
    return Act("PASS", (i,))


def FIRE(i: int) -> Act:
    """Node ``i`` propagates the signal to its children (relay_tree)."""
    return Act("FIRE", (i,))


# ----------------------------------------------------------------------
# fischer(n)
# ----------------------------------------------------------------------


def _fischer_bundle(parsed: GenName) -> Bundle:
    from repro.systems.extensions import FischerParams

    n = parsed.params[0]
    params = FischerParams(n=n, a=Fraction(1), b=Fraction(2))

    def timed():
        from repro.systems.extensions import fischer_system

        return fischer_system(params)

    def lint_target():
        from repro.lint.targets import SystemTarget

        return SystemTarget(
            name=parsed.name,
            timed_automata=(("{}/(A,b)".format(parsed.name), timed()),),
            waivers=(("R005", "'TRY_"), ("R005", "'EXIT_")),
        )

    def obligations():
        from repro.analyze.obligations import _fischer_obligation

        return [_fischer_obligation(parsed.name, params)]

    def bounds():
        from repro.analyze.composition import _fischer_bounds

        return _fischer_bounds(parsed.name, params)

    def perturb(direction, mode, seeds, steps, seed):
        from repro.systems.extensions import fischer_system, mutual_exclusion_violated

        # Above n = 3 the full sweep is out of reach (~78 ms/node, 5^n
        # growth); the battery degrades to a *bounded* sweep — reported
        # inconclusive so nothing partial is ever cached as settled —
        # plus the seeded adversarial runs.
        full = n <= 3
        return _safety_battery(
            timed=timed(),
            predicate=mutual_exclusion_violated,
            describe="mutual exclusion violated",
            description="generated Fischer mutex (n={}, a=1, b=2): {}".format(
                n,
                "full zone safety sweep"
                if full
                else "bounded zone sweep + adversarial runs",
            ),
            max_nodes=200_000 if full else 120,
            conclusive=full,
            direction=direction,
            mode=mode,
            seeds=seeds,
            steps=steps,
            seed=seed,
        )

    return Bundle(
        name=parsed.name,
        family="fischer",
        params=parsed.params_dict(),
        description="Fischer mutual exclusion with {} processes "
        "(set within [0, 1], check within [2, 4])".format(n),
        timed_factory=timed,
        system_factory=lambda: params,
        max_states=max(4_000, 200 * 4 ** (n - 2)),
        grid=None,
        horizon=None,
        mappings_factory=None,
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=Fraction(params.b - params.a, params.a + params.b),
        perturb_direction="widen",
        perturb_builder=perturb,
    )


# ----------------------------------------------------------------------
# relay_line(k) — the paper's Section 6 relay at arbitrary length
# ----------------------------------------------------------------------


def _relay_line_bundle(parsed: GenName) -> Bundle:
    k = parsed.params[0]

    def system():
        from repro.systems import RelayParams, RelaySystem

        return RelaySystem(RelayParams(n=k, d1=_HOP.lo, d2=_HOP.hi))

    def mappings():
        from repro.systems import relay_hierarchy

        chain = relay_hierarchy(system())
        return [
            ("relay[{}]".format(level), mapping)
            for level, mapping in enumerate(chain)
        ]

    def lint_target():
        from repro.lint.targets import SystemTarget
        from repro.systems import relay_hierarchy

        sys = system()
        return SystemTarget(
            name=parsed.name,
            timed_automata=(
                ("{}/(A,b)".format(parsed.name), sys.timed),
                ("{}/(A~,b~)".format(parsed.name), sys.dummified),
            ),
            condition_sets=(
                (
                    "{}/requirements".format(parsed.name),
                    sys.dummified.automaton,
                    (sys.requirement,),
                ),
            ),
            chains=(("{}/hierarchy".format(parsed.name), relay_hierarchy(sys)),),
            waivers=(("R005", "'SIGNAL_0'"),),
        )

    def obligations():
        from repro.analyze.obligations import _relay_obligations

        return _relay_obligations(parsed.name, system())

    def bounds():
        from repro.analyze.composition import _relay_bounds

        return _relay_bounds(parsed.name, system())

    def perturb(*battery):
        from repro.faults.targets import _relay_builder

        return _relay_builder(system(), *battery)

    return Bundle(
        name=parsed.name,
        family="relay_line",
        params=parsed.params_dict(),
        description="Section 6 signal relay as a {}-stage line "
        "(hop bound [1, 2], end-to-end [{}, {}])".format(k, k, 2 * k),
        timed_factory=lambda: system().timed,
        system_factory=system,
        max_states=4_000,
        grid=Fraction(1, 2),
        horizon=Fraction(k + 2),
        mappings_factory=mappings,
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=Fraction(_HOP.hi - _HOP.lo, _HOP.lo + _HOP.hi),
        requirements_factory=lambda: (system().requirement,),
        perturb_direction="tighten",
        perturb_builder=perturb,
    )


# ----------------------------------------------------------------------
# relay_ring(k) — the hop discipline closed into a token ring
# ----------------------------------------------------------------------


def _ring_timed(k: int) -> TimedAutomaton:
    """``k`` stations pass one token around; station ``i`` may pass
    within [d1, d2] of receiving.  State is the token's position."""
    specs = [
        ActionSpec(
            PASS(i),
            Kind.OUTPUT,
            precondition=lambda p, i=i: p == i,
            effect=lambda p: (p + 1) % k,
        )
        for i in range(k)
    ]
    automaton = GuardedAutomaton(
        name="ring{}".format(k),
        start=[0],
        specs=specs,
        partition=Partition.from_pairs(
            [("PASS_{}".format(i), [PASS(i)]) for i in range(k)]
        ),
    )
    return TimedAutomaton(
        automaton, Boundmap({"PASS_{}".format(i): _HOP for i in range(k)})
    )


def _relay_ring_bundle(parsed: GenName) -> Bundle:
    k = parsed.params[0]
    lap = _HOP.scale(k)

    def lint_target():
        from repro.lint.targets import SystemTarget

        return SystemTarget(
            name=parsed.name,
            timed_automata=(("{}/(A,b)".format(parsed.name), _ring_timed(k)),),
            waivers=(("R005", "'PASS_"),),
        )

    def obligations():
        return _ring_obligations(parsed.name, k)

    def bounds():
        from repro.analyze.composition import DerivedBound, _fold

        return [
            DerivedBound(
                system=parsed.name,
                label="lap",
                derived=_fold([_HOP] * k),
                declared=lap,
                detail="Minkowski sum of {} hop windows".format(k),
            ),
            DerivedBound(
                system=parsed.name,
                label="first-arrival",
                derived=_fold([_HOP] * k),
                declared=lap,
                detail="the token reaches station {} after {} hops".format(
                    k - 1, k
                ),
            ),
        ]

    def perturb(direction, mode, seeds, steps, seed):
        return _ring_battery(k, direction, mode, seeds, steps, seed)

    return Bundle(
        name=parsed.name,
        family="relay_ring",
        params=parsed.params_dict(),
        description="token ring of {} stations (hop bound [1, 2], "
        "lap time [{}, {}])".format(k, k, 2 * k),
        timed_factory=lambda: _ring_timed(k),
        system_factory=lambda: parsed.params_dict(),
        max_states=4_000,
        grid=None,
        horizon=None,
        mappings_factory=None,
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=Fraction(_HOP.hi - _HOP.lo, _HOP.lo + _HOP.hi),
        perturb_direction="tighten",
        perturb_builder=perturb,
    )


def _ring_obligations(name: str, k: int) -> List[Any]:
    from repro.analyze.constraints import ge, le, var
    from repro.analyze.obligations import _Case, _discharge_cases

    d1, d2 = _HOP.lo, _HOP.hi
    hops = [var("g_{}".format(i)) for i in range(k)]
    window = []
    for hop in hops:
        window.append(ge(hop, d1))
        window.append(le(hop, d2))
    total = hops[0]
    for hop in hops[1:]:
        total = total + hop
    case = _Case(
        name="lap-window",
        hypotheses=tuple(window),
        goals=(ge(total, k * d1), le(total, k * d2)),
    )
    return [
        _discharge_cases(
            name,
            "lap-bound",
            [case],
            mapping_label=None,
            detail="{} hops of [{}, {}] each land the lap in [{}, {}]".format(
                k, d1, d2, k * d1, k * d2
            ),
        )
    ]


def _ring_battery(k: int, direction, mode, seeds, steps, seed):
    from repro.core.projection import project
    from repro.core.time_automaton import time_of_boundmap
    from repro.faults.checks import (
        absolute_bounds_check,
        lemma_2_1_check,
        zone_condition_check,
    )
    from repro.faults.perturb import Drift, perturb_boundmap
    from repro.faults.targets import _adversarial_runs, _run_checks

    nominal = _ring_timed(k)
    lap = _HOP.scale(k)

    def evaluate(eps, budget):
        perturbed = (
            nominal
            if eps == 0
            else perturb_boundmap(nominal, Drift(eps, mode=mode, direction=direction))
        )
        runs = _adversarial_runs(
            time_of_boundmap(perturbed), budget, seeds, steps, base=seed
        )
        checks = [
            (
                "Lemma 2.1 vs nominal (A, b)",
                lambda: lemma_2_1_check(
                    nominal, [project(run) for run in runs], budget
                ),
            ),
            (
                "zone lap bound",
                lambda: zone_condition_check(
                    perturbed, PASS(0), PASS(0), lap, occurrences=2, budget=budget
                ),
            ),
            (
                "zone first-arrival bound",
                lambda: absolute_bounds_check(
                    perturbed, PASS(k - 1), lap, budget=budget
                ),
            ),
        ]
        return _run_checks(checks, budget)

    description = (
        "generated token ring (k={}, hop [1, 2]): exact zone lap/arrival "
        "bounds plus Lemma 2.1 acceptance".format(k)
    )
    return description, Fraction(1), evaluate


# ----------------------------------------------------------------------
# relay_tree(depth, fanout) — one B_k hierarchy per root-leaf path
# ----------------------------------------------------------------------


def tree_node_count(depth: int, fanout: int) -> int:
    """Nodes of the complete tree with ``depth`` edge levels."""
    if fanout == 1:
        return depth + 1
    return (fanout ** (depth + 1) - 1) // (fanout - 1)


def tree_state_count(depth: int, fanout: int) -> int:
    """Reachable untimed states: ancestor-closed "fired" sets, i.e.
    order ideals of the node poset — ``a(0) = 2, a(l) = 1 + a(l-1)^f``."""
    count = 2
    for _ in range(depth):
        count = 1 + count ** fanout
    return count


def _tree_timed(depth: int, fanout: int) -> TimedAutomaton:
    """Per-node automata composed chain-style: a node arms when its
    parent fires (``Kind.INPUT``) and fires its own signal within
    [d1, d2]; the root starts armed."""
    total = tree_node_count(depth, fanout)

    def node(i: int) -> GuardedAutomaton:
        specs = [
            ActionSpec(
                FIRE(i),
                Kind.OUTPUT,
                precondition=lambda armed: armed,
                effect=lambda _armed: False,
            )
        ]
        if i > 0:
            parent = (i - 1) // fanout
            specs.append(
                ActionSpec(FIRE(parent), Kind.INPUT, effect=lambda _armed: True)
            )
        return GuardedAutomaton(
            name="node{}".format(i),
            start=[i == 0],
            specs=specs,
            partition=Partition.from_pairs([("FIRE_{}".format(i), [FIRE(i)])]),
        )

    composed = Composition(
        [node(i) for i in range(total)], name="tree{}x{}".format(depth, fanout)
    )
    return TimedAutomaton(
        composed, Boundmap({"FIRE_{}".format(i): _HOP for i in range(total)})
    )


def _tree_leaves(depth: int, fanout: int) -> List[int]:
    total = tree_node_count(depth, fanout)
    if fanout == 1:
        return [total - 1]
    first_leaf = (fanout ** depth - 1) // (fanout - 1)
    return list(range(first_leaf, total))


def _tree_spine(depth: int):
    """The chain every root-leaf path is isomorphic to: ``depth`` hops
    of the uniform window.  The spine carries the tree's Theorem 6.4
    mapping hierarchy — each path discharges by the same argument."""
    from repro.systems.extensions.chain import ChainSystem

    return ChainSystem([_HOP] * depth)


def _relay_tree_bundle(parsed: GenName) -> Bundle:
    depth, fanout = parsed.params
    spine_memo: Dict[str, Any] = {}

    def spine():
        if "spine" not in spine_memo:
            spine_memo["spine"] = _tree_spine(depth)
        return spine_memo["spine"]

    def mappings():
        chain = spine().hierarchy()
        return [
            ("chain[{}]".format(level), mapping)
            for level, mapping in enumerate(chain)
        ]

    def lint_target():
        from repro.lint.targets import SystemTarget

        sys = spine()
        return SystemTarget(
            name=parsed.name,
            timed_automata=(
                ("{}/(A,b)".format(parsed.name), _tree_timed(depth, fanout)),
                ("{}/spine/(A~,b~)".format(parsed.name), sys.dummified),
            ),
            condition_sets=(
                (
                    "{}/spine/requirements".format(parsed.name),
                    sys.dummified.automaton,
                    (sys.requirement,),
                ),
            ),
            chains=(("{}/spine/hierarchy".format(parsed.name), sys.hierarchy()),),
            waivers=(("R005", "'FIRE_"), ("R005", "'EVENT_0'")),
        )

    def obligations():
        from repro.analyze.obligations import (
            ObligationResult,
            Verdict,
            _chain_obligations,
        )

        results = _chain_obligations(parsed.name, spine())
        leaves = len(_tree_leaves(depth, fanout))
        results.append(
            ObligationResult(
                system=parsed.name,
                obligation="path-uniformity",
                verdict=Verdict.PROVED,
                method="structural",
                detail="all {} root-leaf paths have exactly {} hops of the "
                "same window, so the spine hierarchy discharges every "
                "path".format(leaves, depth),
            )
        )
        return results

    def bounds():
        from repro.analyze.composition import DerivedBound, _chain_bounds, _fold

        results = _chain_bounds(parsed.name, spine())
        results.append(
            DerivedBound(
                system=parsed.name,
                label="leaf-arrival",
                derived=_fold([_HOP] * (depth + 1)),
                declared=_HOP.scale(depth + 1),
                detail="root arming hop plus {} tree levels".format(depth),
            )
        )
        return results

    def perturb(direction, mode, seeds, steps, seed):
        return _tree_battery(depth, fanout, direction, mode, seeds, steps, seed)

    states = tree_state_count(depth, fanout)
    return Bundle(
        name=parsed.name,
        family="relay_tree",
        params=parsed.params_dict(),
        description="signal broadcast tree (depth {}, fanout {}, {} nodes): "
        "every root-leaf path is a {}-hop B_k relay".format(
            depth, fanout, tree_node_count(depth, fanout), depth
        ),
        timed_factory=lambda: _tree_timed(depth, fanout),
        system_factory=spine,
        max_states=max(4_000, 2 * states),
        grid=Fraction(1, 2),
        horizon=Fraction(2 * depth + 1),
        mappings_factory=mappings,
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=Fraction(_HOP.hi - _HOP.lo, _HOP.lo + _HOP.hi),
        requirements_factory=lambda: (),
        perturb_direction="tighten",
        perturb_builder=perturb,
    )


def _tree_battery(depth: int, fanout: int, direction, mode, seeds, steps, seed):
    """Zone sweeps over the full tree's zone graph are out of reach
    even at depth 3 x fanout 2 (tens of ms per node, and a truncated
    event-condition query degenerates to a vacuous HOLDS), so the timed
    evidence rides on the *spine*: every root-leaf path is isomorphic
    to the same ``depth``-hop chain (the PROVED path-uniformity
    obligation), whose hierarchy, slack refinement, and end-to-end zone
    bound are all cheap.  The tree automaton itself is still exercised
    exactly — untimed exploration by the check layer, and Lemma 2.1
    acceptance of adversarially scheduled timed runs here."""
    from repro.core.mappings import MappingChain
    from repro.core.projection import project
    from repro.core.dummification import undum
    from repro.core.time_automaton import time_of_boundmap
    from repro.faults.checks import (
        lemma_2_1_check,
        mapping_run_check,
        slack_refinement_mapping,
        zone_condition_check,
    )
    from repro.faults.perturb import Drift, perturb_boundmap, perturb_interval
    from repro.faults.targets import _adversarial_runs, _run_checks
    from repro.systems.extensions import EVENT
    from repro.systems.extensions.chain import ChainSystem

    nominal = _tree_timed(depth, fanout)
    nominal_spine = _tree_spine(depth)
    claimed = nominal_spine.requirement.interval

    def evaluate(eps, budget):
        if eps == 0:
            perturbed, spine = nominal, nominal_spine
        else:
            drift = Drift(eps, mode=mode, direction=direction)
            perturbed = perturb_boundmap(nominal, drift)
            stage = perturb_interval(_HOP, drift)
            spine = ChainSystem([stage] * depth)
        chain = MappingChain(
            list(spine.hierarchy().mappings)
            + [
                slack_refinement_mapping(
                    spine.requirements,
                    nominal_spine.requirements,
                    name="tree spine slack refinement",
                )
            ]
        )
        tree_runs = _adversarial_runs(
            time_of_boundmap(perturbed), budget, seeds, steps, base=seed
        )
        spine_runs = _adversarial_runs(spine.algorithm, budget, seeds, steps, base=seed)
        checks = [
            (
                "Lemma 2.1 vs nominal tree (A, b)",
                lambda: lemma_2_1_check(
                    nominal, [project(run) for run in tree_runs], budget
                ),
            ),
            (
                "spine hierarchy + slack refinement",
                lambda: mapping_run_check(chain, spine_runs, budget),
            ),
            (
                "zone spine end-to-end bound",
                lambda: zone_condition_check(
                    spine.timed, EVENT(0), EVENT(depth), claimed, budget=budget
                ),
            ),
        ]
        return _run_checks(checks, budget)

    description = (
        "generated broadcast tree (depth {}, fanout {}): Lemma 2.1 on the "
        "tree plus the full chain battery on its path spine".format(depth, fanout)
    )
    return description, Fraction(1), evaluate


# ----------------------------------------------------------------------
# tournament(width)
# ----------------------------------------------------------------------


def _tournament_bundle(parsed: GenName) -> Bundle:
    from repro.systems.extensions import TournamentParams

    width = parsed.params[0]
    params = TournamentParams(n=width, s1=Fraction(1), s2=Fraction(2))

    def timed():
        from repro.systems.extensions import tournament_system

        return tournament_system(params)

    def lint_target():
        from repro.lint.targets import SystemTarget

        return SystemTarget(
            name=parsed.name,
            timed_automata=(("{}/(A,b)".format(parsed.name), timed()),),
            waivers=(("R005", "'CS_"), ("R005", "'STEP_")),
        )

    def obligations():
        from repro.analyze.obligations import _tournament_obligations

        return _tournament_obligations(parsed.name, params)

    def bounds():
        from repro.analyze.composition import _tournament_bounds

        return _tournament_bounds(parsed.name, params)

    def perturb(direction, mode, seeds, steps, seed):
        from repro.systems.extensions import (
            tournament_mutex_violated,
            tournament_system,
        )

        full = width <= 2
        return _safety_battery(
            timed=timed(),
            predicate=tournament_mutex_violated,
            describe="two processes critical",
            description="generated tournament mutex (width {}): {}".format(
                width,
                "full zone safety sweep"
                if full
                else "bounded zone sweep + adversarial runs",
            ),
            max_nodes=200_000 if full else 400,
            conclusive=full,
            direction=direction,
            mode=mode,
            seeds=seeds,
            steps=steps,
            seed=seed,
        )

    return Bundle(
        name=parsed.name,
        family="tournament",
        params=parsed.params_dict(),
        description="tournament mutual exclusion bracket of width {} "
        "({} levels, step bound [1, 2])".format(width, params.height),
        timed_factory=timed,
        system_factory=lambda: params,
        max_states=max(4_000, 2_000 * width),
        grid=None,
        horizon=None,
        mappings_factory=None,
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=None,
        perturb_direction="widen",
        perturb_builder=perturb,
    )


# ----------------------------------------------------------------------
# Shared safety battery (fischer / tournament)
# ----------------------------------------------------------------------


def _safety_battery(
    timed,
    predicate,
    describe,
    description,
    max_nodes,
    conclusive,
    direction,
    mode,
    seeds,
    steps,
    seed,
):
    """The widening battery: a zone safety sweep (full or deliberately
    bounded) plus adversarial simulation runs whose visited states are
    screened against the predicate.

    A bounded sweep that runs out of nodes is reported ``ok`` but with
    ``exhausted_budget`` set, so callers (and the verdict cache) treat
    it as inconclusive rather than settled — ``search_reachable_state``
    alone would report a truncated sweep as merely non-conclusive,
    which the check layer would cache as a clean pass.
    """
    from repro.core.checker import CheckOutcome
    from repro.core.time_automaton import time_of_boundmap
    from repro.faults.perturb import Drift, perturb_boundmap
    from repro.faults.targets import _adversarial_runs, _run_checks
    from repro.zones.analysis import search_reachable_state

    def evaluate(eps, budget):
        perturbed = (
            timed
            if eps == 0
            else perturb_boundmap(timed, Drift(eps, mode=mode, direction=direction))
        )

        def sweep():
            result = search_reachable_state(
                perturbed, predicate, max_nodes=max_nodes, budget=budget
            )
            if result.state is not None:
                return CheckOutcome(
                    False,
                    result.nodes,
                    "{}: state {!r} reachable".format(describe, result.state),
                )
            detail = (
                "zone sweep clean over {} nodes".format(result.nodes)
                if result.conclusive
                else "bounded zone sweep inconclusive after {} nodes".format(
                    result.nodes
                )
            )
            return CheckOutcome(
                True,
                result.nodes,
                detail,
                exhausted_budget=not result.conclusive,
            )

        def run_screen():
            runs = _adversarial_runs(
                time_of_boundmap(perturbed), budget, seeds, steps, base=seed
            )
            scanned = 0
            for run in runs:
                for state in _run_states(run):
                    scanned += 1
                    if predicate(state):
                        return CheckOutcome(
                            False,
                            scanned,
                            "{}: reached in a simulated run".format(describe),
                        )
            return CheckOutcome(
                True, scanned, "no violation in {} visited states".format(scanned)
            )

        checks = [("zone safety sweep", sweep)]
        if not conclusive:
            checks.append(("adversarial run screen", run_screen))
        return _run_checks(checks, budget)

    return description, Fraction(1), evaluate


def _run_states(run) -> List[Any]:
    """The untimed states a simulated run visited (each
    :class:`~repro.core.time_state.TimeState` wraps the base state as
    ``astate``)."""
    states = run.states() if callable(run.states) else run.states
    return [getattr(tstate, "astate", tstate) for tstate in states]


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[GenName], Bundle]] = {
    "fischer": _fischer_bundle,
    "relay_line": _relay_line_bundle,
    "relay_ring": _relay_ring_bundle,
    "relay_tree": _relay_tree_bundle,
    "tournament": _tournament_bundle,
}

@functools.lru_cache(maxsize=64)
def build_bundle(name: str) -> Bundle:
    """The :class:`~repro.surface.Bundle` for a ``gen:`` name.

    Bundles are immutable once built, so the most recent 64 are memoised:
    a long-lived process that checks many names keeps a bounded set of
    automata (and their per-state enabledness memos) alive."""
    parsed = parse(name)
    builder = _BUILDERS.get(parsed.family)
    if builder is None:
        raise ReproError(
            "no bundle builder for family {!r}".format(parsed.family)
        )
    return builder(parsed)
