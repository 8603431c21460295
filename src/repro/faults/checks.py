"""Budget-guarded check adapters: every verdict as a `CheckOutcome`.

The tolerance analyzer composes three kinds of evidence — mapping/chain
checks on simulated runs, Lemma 2.1 acceptance of perturbed behaviors
against the *nominal* ``(A, b)``, and exact zone verification of the
nominal claims on the perturbed system.  Each adapter here normalises
one of those into a :class:`~repro.core.checker.CheckOutcome`,
converting budget exhaustion and engine errors into partial or failing
outcomes instead of exceptions, so a tolerance search never hangs and
never dies mid-probe.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.checker import CheckOutcome, check_chain_on_run, check_mapping_on_run
from repro.core.mappings import (
    Ineq,
    InequalityMapping,
    MappingChain,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.errors import ReproError, ZoneError
from repro.faults.budget import Budget
from repro.timed.boundmap import TimedAutomaton
from repro.timed.interval import Interval
from repro.timed.semantics import check_lemma_2_1
from repro.zones.analysis import absolute_event_bounds, search_reachable_state
from repro.zones.verify import verify_event_condition

__all__ = [
    "slack_refinement_mapping",
    "mapping_run_check",
    "lemma_2_1_check",
    "zone_condition_check",
    "absolute_bounds_check",
    "safety_check",
]


def slack_refinement_mapping(
    source,
    target,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    name: Optional[str] = None,
) -> InequalityMapping:
    """A containment mapping between two requirement-style automata:
    every paired target condition's window must *contain* the source's
    (``Ft`` no later, ``Lt`` no earlier).

    This is the robust-refinement link of Chilton et al.'s timed
    specification theories, phrased as a strong possibilities mapping:
    a tightened system's own requirements automaton refines the nominal
    one as long as its predictions stay inside the nominal windows.
    ``pairs`` maps source condition names to target condition names
    (default: identical names on both sides).
    """
    if pairs is None:
        source_names = {c.name for c in source.conditions}
        pairs = tuple(
            (c.name, c.name) for c in target.conditions if c.name in source_names
        )
    return InequalityMapping(
        source=source,
        target=target,
        cases=[
            ineq
            for source_name, target_name in pairs
            for ineq in (
                Ineq(target_lt(target_name), ">=", source_lt(source_name)),
                Ineq(target_ft(target_name), "<=", source_ft(source_name)),
            )
        ],
        name=name or "slack refinement {} -> {}".format(source.name, target.name),
    )


def mapping_run_check(mapping, runs: Iterable, budget: Optional[Budget] = None) -> CheckOutcome:
    """Check a mapping (or :class:`MappingChain`) over several runs,
    folding the per-run outcomes: the first failure wins, steps
    accumulate, and budget exhaustion in any run marks the total."""
    check = check_chain_on_run if isinstance(mapping, MappingChain) else check_mapping_on_run
    total = 0
    exhausted = False
    for run in runs:
        outcome = check(mapping, run, budget=budget)
        total += outcome.steps_checked
        exhausted = exhausted or outcome.exhausted_budget
        if not outcome.ok:
            return CheckOutcome(
                False,
                total,
                outcome.detail,
                failing_source_state=outcome.failing_source_state,
                failing_target_state=outcome.failing_target_state,
                exhausted_budget=exhausted,
            )
        if budget is not None and budget.exhausted:
            exhausted = True
            break
    detail = "budget exhausted after {} steps".format(total) if exhausted else ""
    return CheckOutcome(True, total, detail, exhausted_budget=exhausted)


def lemma_2_1_check(
    nominal: TimedAutomaton,
    behaviors: Iterable,
    budget: Optional[Budget] = None,
) -> CheckOutcome:
    """Accept each timed behavior against the *nominal* ``(A, b)`` via
    both Definition 2.1 and Definition 2.2 (:func:`check_lemma_2_1`,
    semi-execution variant for finite prefixes).  A perturbed system
    whose behaviors stray outside the nominal bounds fails here."""
    total = 0
    exhausted = False
    for seq in behaviors:
        steps = len(seq.events)
        if budget is not None and not budget.charge_step(max(steps, 1)):
            exhausted = True
            break
        report = check_lemma_2_1(nominal, seq, semi=True)
        total += steps
        if not report.accepted:
            violation = report.definition_2_1 or report.definition_2_2
            return CheckOutcome(
                False,
                total,
                "behavior rejected by nominal (A, b): {}".format(violation),
                exhausted_budget=exhausted,
            )
        if not report.agree:
            return CheckOutcome(
                False,
                total,
                "Lemma 2.1 checkers disagree on a perturbed behavior",
                exhausted_budget=exhausted,
            )
    detail = "budget exhausted after {} steps".format(total) if exhausted else ""
    return CheckOutcome(True, total, detail, exhausted_budget=exhausted)


def zone_condition_check(
    timed: TimedAutomaton,
    trigger: Hashable,
    target: Hashable,
    claimed: Interval,
    occurrences: int = 1,
    budget: Optional[Budget] = None,
    max_nodes: int = 200_000,
) -> CheckOutcome:
    """Exact check that the perturbed system still meets a *nominal*
    event-to-event claim, degraded gracefully under budget pressure."""
    try:
        report = verify_event_condition(
            timed,
            trigger,
            target,
            claimed,
            occurrences=occurrences,
            max_nodes=max_nodes,
            budget=budget,
        )
    except ZoneError as exc:
        if budget is not None and budget.exhausted:
            return CheckOutcome(
                True, 0, "budget exhausted before any zone measurement", exhausted_budget=True
            )
        return CheckOutcome(False, 0, "zone check failed: {}".format(exc))
    nodes = report.exact.nodes if report.exact is not None else 0
    return CheckOutcome(
        report.verdict.holds,
        nodes,
        "zone verdict: {} (claimed {!r}, exact {})".format(
            report.verdict.value, claimed, report.exact
        ),
        exhausted_budget=report.exhausted_budget,
    )


def absolute_bounds_check(
    timed: TimedAutomaton,
    measure: Hashable,
    claimed: Interval,
    occurrence: int = 1,
    budget: Optional[Budget] = None,
    max_nodes: int = 200_000,
) -> CheckOutcome:
    """Exact check that an event's absolute firing bounds stay inside a
    nominal claim (e.g. the resource manager's first-GRANT window)."""
    try:
        bounds = absolute_event_bounds(
            timed, measure, occurrence=occurrence, max_nodes=max_nodes, budget=budget
        )
    except ZoneError as exc:
        if budget is not None and budget.exhausted:
            return CheckOutcome(
                True, 0, "budget exhausted before any zone measurement", exhausted_budget=True
            )
        return CheckOutcome(False, 0, "zone check failed: {}".format(exc))
    return CheckOutcome(
        bounds.within(claimed),
        bounds.nodes,
        "absolute bounds {} vs claimed {!r}".format(bounds, claimed),
        exhausted_budget=bounds.exhausted_budget,
    )


def safety_check(
    timed: TimedAutomaton,
    predicate,
    describe: str = "bad state",
    budget: Optional[Budget] = None,
    max_nodes: int = 200_000,
) -> CheckOutcome:
    """Exact timed safety: no reachable state satisfies ``predicate``.
    A sweep cut short — by the budget or at ``max_nodes`` — comes back
    ok but partial (``exhausted_budget``), never as a settled pass."""
    try:
        result = search_reachable_state(
            timed, predicate, max_nodes=max_nodes, budget=budget
        )
    except ReproError as exc:
        return CheckOutcome(False, 0, "safety search failed: {}".format(exc))
    if result.state is not None:
        return CheckOutcome(
            False,
            result.nodes,
            "{} reachable: {!r}".format(describe, result.state),
            exhausted_budget=result.exhausted_budget,
        )
    return CheckOutcome(
        True,
        result.nodes,
        ""
        if result.conclusive
        else "safety sweep inconclusive (truncated at {} nodes)".format(result.nodes),
        exhausted_budget=not result.conclusive,
    )
