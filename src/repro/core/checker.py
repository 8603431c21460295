"""Machine-checking strong possibilities mappings.

The paper's mapping proofs (Lemmas 4.3 and 6.2) are per-step case
analyses: for every source step, the *witness* target step is obtained
by "applying the ``time(A, V)`` definition to ``u'``" on the same
``(π, t)`` and the same ``A``-step, after which two obligations remain:

- **enabledness** — the witness step must be permitted by the target's
  ``Ft``/``Lt`` windows (this is where a wrong requirement bound fails);
- **containment** — the witness state must lie back in the image.

:func:`check_mapping_on_run` discharges exactly those obligations along
a concrete execution of the source automaton;
:func:`check_mapping_exhaustive` discharges them for *all* executions
under a rational time discretisation (exhaustive for the grid
semantics).  :func:`check_chain_on_run` threads a witness through every
level of a mapping hierarchy simultaneously.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, NamedTuple, Optional, Tuple, Union

from repro.errors import MappingCheckError, TimingViolationError
from repro.obs import instrument as _telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults uses core)
    from repro.faults.budget import Budget
from repro.timed.interval import render_time
from repro.timed.timed_sequence import TimedSequence
from repro.core.discretize import discrete_options
from repro.core.mappings import MappingChain, StrongPossibilitiesMapping
from repro.core.time_state import TimeState

__all__ = [
    "CheckOutcome",
    "check_mapping_on_run",
    "check_chain_on_run",
    "check_mapping_exhaustive",
]


@dataclass(frozen=True)
class CheckOutcome:
    """The verdict of a mapping check.

    ``exhausted_budget`` marks a *partial* verdict: a
    :class:`~repro.faults.budget.Budget` ran out before the check
    covered everything it was asked to.  Truthiness is unchanged —
    ``bool(outcome)`` is ``outcome.ok``, i.e. "no violation found in
    the portion checked" — so budget-guarded callers that need
    certainty must additionally consult :attr:`conclusive`.
    """

    ok: bool
    steps_checked: int
    detail: str = ""
    failing_source_state: Optional[TimeState] = None
    failing_target_state: Optional[TimeState] = None
    exhausted_budget: bool = False

    def __bool__(self) -> bool:
        return self.ok

    @property
    def conclusive(self) -> bool:
        """True when the verdict covers the whole requested check (no
        budget exhaustion).  A failure is always conclusive: the
        counterexample stands however little was explored."""
        return not self.ok or not self.exhausted_budget

    def raise_if_failed(self) -> "CheckOutcome":
        """Raise :class:`MappingCheckError` when the check failed."""
        if not self.ok:
            raise MappingCheckError(
                self.detail,
                source_state=self.failing_source_state,
                target_state=self.failing_target_state,
            )
        return self


class _Failure(NamedTuple):
    """Where a witness construction broke, before it is explained: the
    states are those of the automata searched, so a scaled search can
    hand back their rational counterparts for :func:`_explain`."""

    kind: str  # "initial", "enabledness" or "containment"
    steps: int
    source: TimeState  # the source start or post-state
    target: TimeState  # the witness that failed, or the pre-witness of a disabled step
    action: Hashable = None
    time: object = None

    def rational(self, scale) -> "_Failure":
        return self._replace(
            source=scale.state_down(self.source),
            target=scale.state_down(self.target),
            time=None if self.time is None else scale.down(self.time),
        )


def _explain(mapping: StrongPossibilitiesMapping, failure: _Failure) -> CheckOutcome:
    """The failed outcome, with the obligation that broke spelled out."""
    source, target = failure.source, failure.target
    if failure.kind == "initial":
        detail = "initial condition fails for {}: {}".format(
            mapping.name, mapping.describe_failure(target, source)
        )
    elif failure.kind == "enabledness":
        try:
            mapping.target.successor_matching(
                target, failure.action, failure.time, source.astate
            )
        except TimingViolationError as exc:
            reason = exc
        else:
            raise AssertionError("a step reported disabled is enabled")
        detail = "target step not enabled for {} on ({!r}, {}): {}".format(
            mapping.name, failure.action, render_time(failure.time), reason
        )
    else:
        detail = "containment fails for {} after ({!r}, {}): {}".format(
            mapping.name,
            failure.action,
            render_time(failure.time),
            mapping.describe_failure(target, source),
        )
    return CheckOutcome(
        False,
        failure.steps,
        detail,
        failing_source_state=source,
        failing_target_state=target,
    )


def _initial_witness(
    mapping: StrongPossibilitiesMapping, source_start: TimeState
) -> Tuple[Optional[TimeState], Optional[_Failure]]:
    """Definition 3.2 condition 1 for the unique start state over the
    same ``A``-state."""
    witness = mapping.target.initial(source_start.astate)
    if not mapping.contains(witness, source_start):
        return None, _Failure("initial", 0, source_start, witness)
    return witness, None


def _witness_step(
    mapping: StrongPossibilitiesMapping,
    witness: TimeState,
    action: Hashable,
    time,
    source_post: TimeState,
    steps_done: int,
) -> Tuple[Optional[TimeState], Optional[_Failure]]:
    """One simulation step: construct the target step and check both
    proof obligations."""
    _telemetry.incr("check.steps")
    try:
        next_witness = mapping.target.successor_matching(
            witness, action, time, source_post.astate
        )
    except TimingViolationError:
        return None, _Failure("enabledness", steps_done, source_post, witness, action, time)
    if not mapping.contains(next_witness, source_post):
        return None, _Failure(
            "containment", steps_done, source_post, next_witness, action, time
        )
    return next_witness, None


def _budget_cut(steps: int) -> CheckOutcome:
    return CheckOutcome(
        True,
        steps,
        "budget exhausted after {} steps".format(steps),
        exhausted_budget=True,
    )


def _emit_outcome(check: str, outcome: CheckOutcome) -> CheckOutcome:
    """Telemetry terminal event: every check verdict — pass, fail, or
    budget cut — leaves a ``check.outcome`` trace event, so aborted
    checks are visible in traces rather than ending silently."""
    rec = _telemetry._ACTIVE
    if rec is not None:
        rec.incr("check.outcomes")
        rec.event(
            "check.outcome",
            check=check,
            ok=outcome.ok,
            steps=outcome.steps_checked,
            detail=outcome.detail,
            exhausted_budget=outcome.exhausted_budget,
        )
    return outcome


def check_mapping_on_run(
    mapping: StrongPossibilitiesMapping,
    run: TimedSequence,
    budget: Optional["Budget"] = None,
) -> CheckOutcome:
    """Check a mapping along one execution of the source automaton.

    ``run`` must be a :class:`TimedSequence` whose states are
    :class:`TimeState` values of ``mapping.source`` (as produced by the
    simulator).  With a ``budget``, each step charges one unit; on
    exhaustion the outcome so far is returned flagged
    ``exhausted_budget``.
    """
    witness, failure = _initial_witness(mapping, run.first_state)
    if failure is not None:
        return _emit_outcome("mapping_on_run", _explain(mapping, failure))
    steps = 0
    for _pre, event, post in run.triples():
        if budget is not None and not budget.charge_step():
            return _emit_outcome("mapping_on_run", _budget_cut(steps))
        witness, failure = _witness_step(
            mapping, witness, event.action, event.time, post, steps
        )
        if failure is not None:
            return _emit_outcome("mapping_on_run", _explain(mapping, failure))
        steps += 1
    return _emit_outcome("mapping_on_run", CheckOutcome(True, steps))


def check_chain_on_run(
    chain: MappingChain,
    run: TimedSequence,
    budget: Optional["Budget"] = None,
) -> CheckOutcome:
    """Check every level of a mapping hierarchy in lockstep along one
    execution of the chain's source automaton (paper Section 6.3).
    Each (event, level) witness step charges one budget unit."""
    witnesses: List[TimeState] = []
    previous: TimeState = run.first_state
    for mapping in chain:
        witness, failure = _initial_witness(mapping, previous)
        if failure is not None:
            return _emit_outcome("chain_on_run", _explain(mapping, failure))
        witnesses.append(witness)
        previous = witness
    steps = 0
    for _pre, event, post in run.triples():
        previous = post
        for level, mapping in enumerate(chain):
            if budget is not None and not budget.charge_step():
                return _emit_outcome("chain_on_run", _budget_cut(steps))
            witness, failure = _witness_step(
                mapping, witnesses[level], event.action, event.time, previous, steps
            )
            if failure is not None:
                return _emit_outcome("chain_on_run", _explain(mapping, failure))
            witnesses[level] = witness
            previous = witness
        steps += 1
    return _emit_outcome("chain_on_run", CheckOutcome(True, steps))


def check_mapping_exhaustive(
    mapping: StrongPossibilitiesMapping,
    grid,
    horizon,
    max_pairs: int = 200_000,
    budget: Optional["Budget"] = None,
) -> CheckOutcome:
    """Check a mapping on *every* execution of the source automaton
    whose event times are multiples of ``grid``, up to absolute time
    ``horizon``.

    Explores the product of source states and deterministic witnesses
    breadth-first.  Exhaustive for the grid semantics; raises the same
    two obligations as :func:`check_mapping_on_run` at every step.

    The search runs in integer time (:mod:`repro.core.time_scale`): on
    copies of the automata and the mapping scaled by the lcm ``D`` of
    the denominators of every bound, constant, the grid and the
    horizon.  A failure is explained on the original mapping, from the
    rational states the scaled ones stand for.
    """
    from repro.core.time_scale import TimeScale

    scale = TimeScale.for_mapping(mapping, grid, horizon)
    if scale is None:
        return _reference_mapping_exhaustive(mapping, grid, horizon, max_pairs, budget)
    found = _search_pairs(
        scale.mapping(mapping), scale.up(grid), scale.up(horizon), max_pairs, budget
    )
    if isinstance(found, _Failure):
        found = found.rational(scale)
    return _conclude(mapping, grid, horizon, found)


def _reference_mapping_exhaustive(
    mapping: StrongPossibilitiesMapping,
    grid,
    horizon,
    max_pairs: int = 200_000,
    budget: Optional["Budget"] = None,
) -> CheckOutcome:
    """The same search in the mapping's own rational time: the oracle
    the integer search is held to."""
    found = _search_pairs(mapping, grid, horizon, max_pairs, budget)
    return _conclude(mapping, grid, horizon, found)


def _conclude(mapping, grid, horizon, found) -> CheckOutcome:
    if isinstance(found, _Failure):
        found = _explain(mapping, found)
    elif isinstance(found, int):
        found = CheckOutcome(
            True,
            found,
            "exhaustive over grid={} horizon={}".format(
                render_time(grid), render_time(horizon)
            ),
        )
    return _emit_outcome("mapping_exhaustive", found)


def _search_pairs(
    mapping: StrongPossibilitiesMapping,
    grid,
    horizon,
    max_pairs: int,
    budget: Optional["Budget"],
) -> Union[CheckOutcome, _Failure, int]:
    """The breadth-first search of :func:`check_mapping_exhaustive`:
    a :class:`_Failure`, the outcome of a cut search, or the step
    count of a complete one."""
    rec = _telemetry._ACTIVE
    seen = set()
    frontier: deque = deque()
    for source_start in mapping.source.start_states():
        witness, failure = _initial_witness(mapping, source_start)
        if failure is not None:
            return failure
        pair = (source_start, witness)
        if pair not in seen:
            if budget is not None and not budget.charge_state():
                return _budget_cut(0)
            seen.add(pair)
            frontier.append(pair)
    steps = 0
    while frontier:
        source_state, witness = frontier.popleft()
        for action, time in discrete_options(mapping.source, source_state, grid, horizon):
            for source_post in mapping.source.successors(source_state, action, time):
                if budget is not None and not budget.charge_step():
                    return _budget_cut(steps)
                next_witness, failure = _witness_step(
                    mapping, witness, action, time, source_post, steps
                )
                if failure is not None:
                    return failure
                steps += 1
                pair = (source_post, next_witness)
                if pair in seen:
                    if rec is not None:
                        rec.incr("check.cache_hits")
                    continue
                if len(seen) >= max_pairs:
                    return CheckOutcome(
                        True, steps, "truncated at {} state pairs".format(max_pairs)
                    )
                if budget is not None and not budget.charge_state():
                    return _budget_cut(steps)
                seen.add(pair)
                frontier.append(pair)
    return steps
