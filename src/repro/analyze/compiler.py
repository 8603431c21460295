"""Definition 3.2's step obligations, compiled from a mapping declaration.

:func:`compile_steps` turns an
:class:`~repro.core.mappings.InequalityMapping`'s per-case linear
inequalities into Fourier–Motzkin entailments, one per discrete step of
the source, with nothing written per system.

- **Configurations.**  Each prediction is DEFAULT ``(0, ∞)``, FINITE,
  or INF (triggered, ``Lt = ∞``), and the update rules of ``time(A, U)``
  fix it after a step from the step and its status before.  A walk over
  ``(A-state, source statuses, target statuses)`` moves source and
  target on one ``A``-step, as the matching target step does.
- **Hypotheses**: what every reachable state of any ``time(A, U)``
  satisfies (``b_l ≤ Ft ≤ Ct + b_l``, ``Ct ≤ Lt ≤ Ft + b_u − b_l``), the
  mapping's case, the source step's legality.  A source built by
  :func:`~repro.core.time_automaton.time_of_boundmap` is exactly
  ``time(A, b)``: its zone graph gives its ``A``-states and, per node,
  the zone read through ``Ft(C) − Ct = b_l(C) − x_C``.  Any other source
  (``B_k`` drops class bounds, so a zone graph of the algorithm
  under-approximates it) gets untimed reachability only.
- **Goals**: the target step's legality and the mapping's case over the
  post-states, whose predictions are linear in the step time ``t``.

An inequality meeting ``∞`` is decided as Python compares numbers, as
the grid checker's predicate decides it.  Hypotheses over-approximate
the reachable set, so PROVED is sound; a goal that does not follow is
UNKNOWN, never REFUTED.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalyzeError, ZoneError
from repro.core.mappings import ProjectionMapping
from repro.analyze.constraints import EQ, LE, LT, Constraint, LinExpr, const, eq, ge, le, lt, var
from repro.analyze.fourier_motzkin import decide, entails
from repro.analyze.obligations import (
    ObligationResult,
    Verdict,
    _base_identity,
    _initial,
    _projection_steps,
)

__all__ = ["compile_steps", "mapping_obligations"]

DEFAULT, FINITE, INF = 0, 1, 2

#: A value is ``(expression, sign)``: sign 0 for the finite expression,
#: ±1 for ±∞, None for ``∞ − ∞``.
_ZERO = (const(0), 0)
_INFINITE = (const(0), 1)
_NOW, _T = var("now"), var("t")
_CLOCKS = frozenset(("now", "t"))
_COMPARE = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}
_BUILD = {"<=": le, ">=": ge, "==": eq}


def mapping_obligations(
    system: str, mappings: Sequence[Tuple[str, Any]], lemma: str, max_states: int
) -> List[ObligationResult]:
    """``base-identity``, ``initial`` and ``steps`` of every labelled
    mapping; a projection's steps cite ``lemma`` for trigger agreement."""
    results: List[ObligationResult] = []
    for label, mapping in mappings:
        results.append(_base_identity(system, label, mapping))
        results.append(_initial(system, label, mapping))
        if isinstance(mapping, ProjectionMapping):
            results.append(_projection_steps(system, label, mapping, lemma))
        else:
            results.append(compile_steps(system, label, mapping, max_states))
    return results


def compile_steps(system: str, label: str, mapping, max_states: int) -> ObligationResult:
    """Definition 3.2 condition 2 of an inequality mapping, over every
    step of every reachable configuration of its source."""

    def result(verdict: Verdict, detail: str, cases=()) -> ObligationResult:
        return ObligationResult(
            system=system,
            obligation="{}/steps".format(label),
            verdict=verdict,
            method="fourier-motzkin",
            detail=detail,
            mapping_label=label,
            cases=cases,
        )

    zones = None
    if mapping.source.timed is not None:
        try:
            zones = _zone_hypotheses(mapping.source.timed, max_states)
        except ZoneError:
            pass  # not a closed system: untimed reachability still holds
        else:
            if zones is None:
                return result(Verdict.UNKNOWN, "zone graph past {} nodes".format(max_states))
    edges = _walk(mapping, zones, max_states)
    if edges is None:
        return result(Verdict.UNKNOWN, "past {} configurations".format(max_states))
    shared: Dict[Tuple, Any] = {}
    names, entailments = set(), 0
    for pre, action, post in edges:
        name = "{!r} -{!r}-> {!r}".format(
            mapping.case_key(pre[0]), action, mapping.case_key(post[0])
        )
        names.add(name)
        for zone in zones[pre[0]] if zones else [()]:
            entailments += 1
            try:
                failing = _failing_goal(*_problem(mapping, pre, action, post, zone, shared))
            except AnalyzeError as exc:
                return result(Verdict.UNKNOWN, "case {!r}: {}".format(name, exc))
            if failing is not None:
                goal = "a goal false outright" if failing is False else repr(failing)
                return result(Verdict.UNKNOWN, "case {!r}: could not entail {}".format(name, goal))
    return result(
        Verdict.PROVED,
        "{} preserved across every step of {} configurations ({} entailments{})".format(
            mapping.name,
            len({pre for pre, _, _ in edges}),
            entailments,
            "" if zones is None else ", hypotheses from the source's zone graph",
        ),
        tuple(sorted(names)),
    )


# ----------------------------------------------------------------------
# Configurations and the zone hypotheses of a time(A, b) source
# ----------------------------------------------------------------------


def _status(cond, action, pre, post, status: int) -> int:
    """A prediction's status after ``(pre, action, post)``."""
    if cond.triggers(pre, action, post):
        # Outside Π a trigger keeps a finite Lt: min(Lt, t + b_u).
        if not math.isinf(cond.upper) or (status == FINITE and not cond.in_pi(action)):
            return FINITE
        return INF
    if cond.in_pi(action) or cond.disables(post):
        return DEFAULT
    return status


def _walk(mapping, zones, max_states: int) -> Optional[List[Tuple]]:
    """Every edge ``(config, action, config')`` between reachable
    configurations (A-states the zone graph, if any, never reaches are
    unreachable); None past ``max_states`` configurations."""
    base = mapping.source.base
    sides = (mapping.source.conditions, mapping.target.conditions)

    def start(a, conds):
        return tuple(
            (INF if math.isinf(c.upper) else FINITE) if c.starts(a) else DEFAULT
            for c in conds
        )

    starts = [(a, start(a, sides[0]), start(a, sides[1])) for a in base.start_states()]
    seen, frontier, edges = set(starts), deque(starts), []
    while frontier:
        config = frontier.popleft()
        a = config[0]
        for action in base.enabled_actions(a):
            for b in set(base.transitions(a, action)):
                if zones is not None and b not in zones:
                    continue
                succ = (b,) + tuple(
                    tuple(_status(c, action, a, b, st) for c, st in zip(conds, statuses))
                    for conds, statuses in zip(sides, config[1:])
                )
                edges.append((config, action, succ))
                if succ not in seen:
                    if len(seen) >= max_states:
                        return None
                    seen.add(succ)
                    frontier.append(succ)
    return edges


def _zone_hypotheses(timed, max_nodes: int) -> Optional[Dict[Any, List[Tuple]]]:
    """Per reachable A-state, one constraint tuple per kept zone node:
    each cell ``x_i − x_j ≤ c`` with ``x_C = Ct + b_l(C) − Ft(C)`` for an
    enabled class, and ``Lt(C) = Ft(C) + b_u − b_l``.  None when the
    graph is cut at ``max_nodes``."""
    from repro.zones.zone_graph import explore_zone_graph

    graph = explore_zone_graph(timed, max_nodes=max_nodes)
    if graph.truncated:
        return None
    automaton = timed.automaton
    hypotheses: Dict[Any, List[Tuple]] = {}
    for (astate, _counts), kept in graph.kept.items():
        clocks, bridge = [(0, const(0))], []
        for name, index in graph.clocks.items():
            cls = automaton.partition[name]
            if automaton.class_enabled(astate, cls):
                interval = timed.class_interval(cls)
                ft = _var("s", "Ft", name)
                clocks.append((index, _NOW + interval.lo - ft))
                if not math.isinf(interval.hi):
                    bridge.append(eq(_var("s", "Lt", name), ft + (interval.hi - interval.lo)))
        for zone in kept:
            cells = zone.m
            hypotheses.setdefault(astate, []).append(
                tuple(bridge)
                + tuple(
                    (lt if cells[i][j][1] else le)(x_i - x_j, cells[i][j][0])
                    for (i, x_i), (j, x_j) in itertools.permutations(clocks, 2)
                    if not math.isinf(cells[i][j][0])
                )
            )
    return hypotheses


# ----------------------------------------------------------------------
# One step's entailment
# ----------------------------------------------------------------------


def _var(side: str, field: str, name: str) -> LinExpr:
    return var("{}.{}({})".format(side, field, name))


def _values(side: str, conds, statuses) -> Dict[str, Tuple]:
    """Each condition's ``(Ft, Lt)`` as values, by status."""
    return {
        c.name: (_ZERO, _INFINITE)
        if status == DEFAULT
        else (
            (_var(side, "Ft", c.name), 0),
            (_var(side, "Lt", c.name), 0) if status == FINITE else _INFINITE,
        )
        for c, status in zip(conds, statuses)
    }


def _invariants(conds, values) -> List[Constraint]:
    """What every reachable state of any ``time(A, U)`` satisfies."""
    facts = []
    for cond in conds:
        (ft, _), (lt_expr, lt_sign) = values[cond.name]
        if not ft.is_constant:  # else DEFAULT: (0, ∞)
            facts += [ge(ft, cond.lower), le(ft, _NOW + cond.lower)]
            if lt_sign == 0:
                facts.append(le(_NOW, lt_expr))
                if not math.isinf(cond.upper):
                    facts.append(le(lt_expr, ft + (cond.upper - cond.lower)))
    return facts


def _legal(conds, values, action) -> List[Any]:
    """``(action, t)`` is time-legal: ``Ft ≤ t`` for ``π ∈ Π``, ``t ≤ Lt``."""
    facts = []
    for cond in conds:
        (ft, _), (lt_expr, lt_sign) = values[cond.name]
        if cond.in_pi(action):
            facts.append(_truth(le(ft, _T)))
        if lt_sign == 0:
            facts.append(_truth(le(_T, lt_expr)))
    return facts


def _post(conds, values, action, pre, post, facts: List) -> Dict:
    """The predictions after ``(action, t)`` by the update rules.  A
    trigger outside ``Π`` that meets a finite ``Lt`` leaves
    ``min(Lt, t + b_u)``: a fresh variable at most both, added to
    ``facts`` — weaker than the minimum, so still sound."""
    after = {}
    for cond in conds:
        ft, lt_value = values[cond.name]
        hi = _INFINITE if math.isinf(cond.upper) else (_T + cond.upper, 0)
        if cond.triggers(pre, action, post):
            if not cond.in_pi(action) and lt_value[1] == 0 and hi[1] == 0:
                fresh = var("min{}".format(len(facts)))
                facts += [le(fresh, lt_value[0]), le(fresh, hi[0])]
                hi = (fresh, 0)
            elif not cond.in_pi(action) and lt_value[1] == 0:
                hi = lt_value
            after[cond.name] = ((_T + cond.lower, 0), hi)
        elif cond.in_pi(action) or cond.disables(post):
            after[cond.name] = (_ZERO, _INFINITE)
        else:
            after[cond.name] = (ft, lt_value)
    return after


def _side(linear, u, s, now: LinExpr) -> Tuple:
    """A :class:`~repro.core.mappings.Linear` side as a value."""
    constant = linear.constant
    sign = (1 if constant > 0 else -1) if math.isinf(constant) else 0
    total = None
    for (side, field, name), coeff in linear.terms:
        if field == "Ct":
            expr, term_sign = now, 0
        else:
            ft, lt_value = (u if side == "u" else s)[name]
            expr, term_sign = ft if field == "Ft" else lt_value
        if term_sign is None or sign is None:
            return const(0), None
        if term_sign:
            term_sign = term_sign if coeff > 0 else -term_sign
            sign = term_sign if sign in (0, term_sign) else None
        else:
            expr = expr if coeff == 1 else expr * coeff
            total = expr if total is None else total + expr
    if total is None:
        return const(0 if sign else constant), sign
    return (total + constant if constant and not sign else total), sign


def _truth(constraint: Constraint) -> Any:
    """A constraint, or its truth value when it has no variable."""
    return constraint.satisfied_by({}) if constraint.expr.is_constant else constraint


def _atoms(conjunction, u, s, now: LinExpr) -> List[Any]:
    """Each inequality as a constraint, or True/False when ``∞`` or
    equal sides decide it."""
    atoms = []
    for ineq in conjunction:
        (lhs, lhs_sign), (rhs, rhs_sign) = _side(ineq.lhs, u, s, now), _side(ineq.rhs, u, s, now)
        if lhs_sign is None or rhs_sign is None:
            atoms.append(False)
        elif lhs_sign or rhs_sign:
            atoms.append(_COMPARE[ineq.rel](lhs_sign, rhs_sign))
        else:
            atoms.append(lhs == rhs or _truth(_BUILD[ineq.rel](lhs, rhs)))
    return atoms


def _problem(mapping, pre, action, post, zone, shared: Dict) -> Tuple[List, List]:
    """``(hypotheses, goals)`` of one step from one zone node; ``shared``
    keeps what the steps from one configuration have in common."""
    a, b = pre[0], post[0]
    source, target = mapping.source.conditions, mapping.target.conditions
    key = (pre[1:], mapping.case_key(a), bool(zone))
    if key not in shared:
        s, u = _values("s", source, pre[1]), _values("u", target, pre[2])
        facts = [ge(_NOW, 0), ge(_T, _NOW)] + _invariants(target, u)
        if not zone:  # a zone node states the source's predictions exactly
            facts += _invariants(source, s)
        shared[key] = (s, u, facts + _atoms(mapping.case(a), u, s, _NOW))
    s, u, facts = shared[key]
    hypotheses = facts + list(zone) + _legal(source, s, action)
    s_post = _post(source, s, action, a, b, hypotheses)
    u_post = _post(target, u, action, a, b, hypotheses)
    goals = _legal(target, u, action) + _atoms(mapping.case(b), u_post, s_post, _T)
    return [h for h in hypotheses if h is not True], [g for g in goals if g is not True]


def _failing_goal(hypotheses: List, goals: List) -> Optional[Any]:
    """The first goal the hypotheses do not entail, or None.

    Equalities are substituted away first.  A goal one hypothesis
    already states needs no elimination; any other is tried against the
    hypotheses that share a variable with it (``now`` and ``t`` aside),
    transitively, and only then against all of them."""
    if False in hypotheses:
        return None  # the configuration cannot arise
    hypotheses, goals = _substitute_equalities(hypotheses, goals)
    if False in hypotheses:
        return None
    for goal in goals:
        if goal is True:
            continue
        if goal is False:
            return None if not decide(hypotheses).feasible else goal
        if _implied_by_one(hypotheses, goal) or entails(_slice(hypotheses, goal), [goal]).holds:
            continue
        if not entails(hypotheses, [goal]).holds:
            return goal
    return None


def _substitute_equalities(hypotheses: List, goals: List) -> Tuple[List, List]:
    """Solve each equality hypothesis for a variable and substitute it."""
    while True:
        equality = next((h for h in hypotheses if h is not False and h.rel == EQ), None)
        if equality is None:
            return hypotheses, goals
        name, coeff = equality.expr.coeffs[-1]
        value = (equality.expr - var(name) * coeff) * (-1 / coeff)
        hypotheses = [
            h for h in (_replace(c, name, value) for c in hypotheses if c is not equality)
            if h is not True
        ]
        goals = [_replace(c, name, value) for c in goals]


def _replace(constraint: Any, name: str, value: LinExpr) -> Any:
    if isinstance(constraint, bool):
        return constraint
    coeffs = constraint.expr.as_dict()
    coeff = coeffs.pop(name, None)
    if coeff is None:
        return constraint
    expr = LinExpr.build(coeffs, constraint.expr.constant) + value * coeff
    return _truth(Constraint(expr, constraint.rel))


def _implied_by_one(hypotheses: List[Constraint], goal: Constraint) -> bool:
    """One hypothesis ``e + c ≤ 0`` implies the goal ``e + c' ≤ 0`` when
    ``c ≥ c'`` (strictly, or with the goal not strict)."""
    if goal.rel == EQ:
        return False
    return any(
        h.rel != EQ
        and h.expr.coeffs == goal.expr.coeffs
        and (
            h.expr.constant > goal.expr.constant
            or (h.expr.constant == goal.expr.constant and (h.rel == LT or goal.rel == LE))
        )
        for h in hypotheses
    )


def _slice(hypotheses: List[Constraint], goal: Constraint) -> List[Constraint]:
    """The hypotheses linked to the goal through shared variables."""
    wanted = set(goal.variables()) - _CLOCKS
    chosen, rest = [], []
    for h in hypotheses:
        names = frozenset(h.variables()) - _CLOCKS
        (rest.append((h, names)) if names else chosen.append(h))
    grown = True
    while grown:
        grown, left = False, []
        for h, names in rest:
            if names & wanted:
                chosen.append(h)
                wanted |= names
                grown = True
            else:
                left.append((h, names))
        rest = left
    return chosen
