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

Three families share their shape with a shipped system, and are built
by that system's builder in :mod:`repro.surface` at the parsed size:
``fischer``, ``relay_line`` and ``tournament`` (the shipped ``fischer``,
``relay`` and ``tournament`` are ``gen:fischer-2``,
``gen:relay_line-3`` and ``gen:tournament-2`` under another name).
Their safety batteries are the one in :mod:`repro.faults.targets`.
Only the ring and the tree, which have no shipped twin, are built here.

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
from repro.surface import Bundle, _fischer, _levels, _relay, _tournament
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

    return evaluate


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


#: Past this many untimed states a tree's zone graph is out of reach, so
#: ``check`` keeps the untimed exploration as its required sweep:
#: relay_tree-3x2 (677 states) closes in 4 430 zone nodes, about 1 s,
#: while relay_tree-4x2 (458 330) passes 19 000 nodes in 15 s unclosed
#: (2 vCPU).  Every other admissible size closes in under a second.
_TREE_ZONE_STATES = 1_000


def _relay_tree_bundle(parsed: GenName) -> Bundle:
    depth, fanout = parsed.params

    def lint_target():
        from repro.lint.targets import SystemTarget

        sys = tree.system()
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
        from repro.analyze.obligations import ObligationResult, Verdict
        from repro.surface import CHAIN_LEMMA, _mapping_obligations

        results = _mapping_obligations(tree, lemma=CHAIN_LEMMA)
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
        from repro.analyze.composition import DerivedBound, _fold, _line_bounds

        results = _line_bounds(parsed.name, tree.system())
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
    tree = Bundle(
        name=parsed.name,
        family="relay_tree",
        params=parsed.params_dict(),
        description="signal broadcast tree (depth {}, fanout {}, {} nodes): "
        "every root-leaf path is a {}-hop B_k relay".format(
            depth, fanout, tree_node_count(depth, fanout), depth
        ),
        timed_factory=lambda: _tree_timed(depth, fanout),
        system_factory=lambda: _tree_spine(depth),
        max_states=max(4_000, 2 * states),
        grid=Fraction(1, 2),
        horizon=Fraction(2 * depth + 1),
        mappings_factory=lambda: _levels("chain", tree.system().hierarchy()),
        lint_target_factory=lint_target,
        obligations_factory=obligations,
        bounds_factory=bounds,
        tolerance=Fraction(_HOP.hi - _HOP.lo, _HOP.lo + _HOP.hi),
        requirements_factory=lambda: (),
        perturb_direction="tighten",
        perturb_builder=perturb,
        # The battery rides on the spine and never reads the cap.
        bounded_sweep=None if states <= _TREE_ZONE_STATES else 20_000,
    )
    return tree


def _tree_battery(depth: int, fanout: int, direction, mode, seeds, steps, seed):
    """Zone sweeps over the full tree's zone graph are out of reach
    even at depth 3 x fanout 2 (tens of ms per node, and a truncated
    event-condition query degenerates to a vacuous HOLDS), so the timed
    evidence rides on the *spine*: every root-leaf path is isomorphic
    to the same ``depth``-hop chain (the PROVED path-uniformity
    obligation), which runs the line battery
    (:func:`repro.faults.targets._line_builder`).  The tree automaton
    itself is still exercised exactly — untimed exploration by the
    check layer, and Lemma 2.1 acceptance of adversarially scheduled
    timed runs here."""
    from repro.core.projection import project
    from repro.core.time_automaton import time_of_boundmap
    from repro.faults.checks import lemma_2_1_check
    from repro.faults.perturb import Drift, perturb_boundmap
    from repro.faults.targets import _adversarial_runs, _line_builder, _run_checks

    nominal = _tree_timed(depth, fanout)
    spine = _line_builder(
        _tree_spine(depth), "tree spine", "Section 6", direction, mode, seeds, steps, seed
    )

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
                "Lemma 2.1 vs nominal tree (A, b)",
                lambda: lemma_2_1_check(nominal, [project(run) for run in runs], budget),
            ),
            ("root-leaf spine", lambda: spine(eps, budget)),
        ]
        return _run_checks(checks, budget)

    return evaluate


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def _shipped_shape(build, describe: Callable[[Any], str]) -> Callable[[GenName], Bundle]:
    """A family whose shape also ships: the shipped system's builder
    (:mod:`repro.surface`) at the parsed size, labelled with the
    family, its params and a description of its system."""

    def builder(parsed: GenName) -> Bundle:
        made = build(
            parsed.name, *parsed.params, family=parsed.family, params=parsed.params_dict()
        )
        made.description = describe(made.system())
        return made

    return builder


_BUILDERS: Dict[str, Callable[[GenName], Bundle]] = {
    "fischer": _shipped_shape(
        functools.partial(_fischer, b=Fraction(2)),
        lambda params: "Fischer mutual exclusion with {} processes "
        "(set within [0, 1], check within [2, 4])".format(params.n),
    ),
    "relay_line": _shipped_shape(
        _relay,
        lambda system: "Section 6 signal relay as a {0}-stage line "
        "(hop bound [1, 2], end-to-end [{0}, {1}])".format(
            system.params.n, 2 * system.params.n
        ),
    ),
    "relay_ring": _relay_ring_bundle,
    "relay_tree": _relay_tree_bundle,
    "tournament": _shipped_shape(
        _tournament,
        lambda params: "tournament mutual exclusion bracket of width {} "
        "({} levels, step bound [1, 2])".format(params.n, params.height),
    ),
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
