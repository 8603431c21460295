"""Symbolic discharge of mapping obligations (paper Definition 3.2).

Each shipped system's obligations are decided without exploring its
timed state space.  Three obligation families per mapping:

- ``base-identity``: source and target are built over the same ``A``
  (Definition 3.2 condition 3) — checked structurally.
- ``initial``: every source start state has a target start state in its
  image (condition 1) — checked concretely on the finitely many start
  states, no exploration.
- ``steps``: every source step can be matched in the target
  (condition 2).  A projection's steps are checked structurally here;
  an inequality mapping's are compiled from its declaration by
  :mod:`repro.analyze.compiler` into implications ``H ⇒ g`` over the
  predictive variables, each discharged by Fourier–Motzkin as the
  infeasibility of ``H ∧ ¬g``.

The Fischer obligations are *attack encodings*: a feasible constraint
system is a concrete violating schedule, so feasibility yields
``REFUTED`` with the Fourier–Motzkin witness as the counterexample —
this is how ``fischer-tight`` is refuted without a zone search.
Peterson and the tournament bracket are decided by closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalyzeError
from repro.analyze.constraints import Constraint, ge, le, var
from repro.analyze.fourier_motzkin import decide, entails

__all__ = [
    "Verdict",
    "ObligationResult",
    "discharge_system",
    "discharge_all",
]


class Verdict(enum.Enum):
    """Outcome of one obligation: sound in both directions — ``PROVED``
    and ``REFUTED`` are definitive, ``UNKNOWN`` defers to exploration."""

    PROVED = "PROVED"
    REFUTED = "REFUTED"
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ObligationResult:
    """One discharged (or deferred) obligation."""

    system: str
    obligation: str
    verdict: Verdict
    #: How the verdict was reached: ``fourier-motzkin``, ``structural``,
    #: ``concrete`` (start states only), ``closed-form``, ``zone-exact``
    #: (an exact zone-graph bound) or ``deferred`` (UNKNOWN).
    method: str
    detail: str = ""
    #: The surface mapping label this obligation belongs to (``None``
    #: for safety/bound obligations that are not tied to a mapping).
    mapping_label: Optional[str] = None
    #: A satisfying assignment for ``REFUTED`` attack encodings.
    witness: Optional[Dict[str, Fraction]] = None
    #: Names of the symbolic cases that were discharged.
    cases: Tuple[str, ...] = ()

    @property
    def discharged(self) -> bool:
        return self.verdict is not Verdict.UNKNOWN

    def to_dict(self) -> Dict[str, Any]:
        witness = None
        if self.witness is not None:
            witness = {name: str(value) for name, value in sorted(self.witness.items())}
        return {
            "system": self.system,
            "obligation": self.obligation,
            "verdict": self.verdict.value,
            "method": self.method,
            "detail": self.detail,
            "mapping": self.mapping_label,
            "witness": witness,
            "cases": list(self.cases),
        }

    def to_check_outcome(self):
        """Project into the exploratory checker's outcome taxonomy:
        ``PROVED`` → conclusive success, ``REFUTED`` → failure,
        ``UNKNOWN`` → success with a blown budget (inconclusive)."""
        from repro.core.checker import CheckOutcome

        if self.verdict is Verdict.PROVED:
            return CheckOutcome(ok=True, steps_checked=0, detail=self.detail)
        if self.verdict is Verdict.REFUTED:
            return CheckOutcome(ok=False, steps_checked=0, detail=self.detail)
        return CheckOutcome(
            ok=True, steps_checked=0, detail=self.detail, exhausted_budget=True
        )


# ----------------------------------------------------------------------
# Symbolic case machinery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    """One symbolic case: prove ``hypotheses ⇒ goals``."""

    name: str
    hypotheses: Tuple[Constraint, ...]
    goals: Tuple[Constraint, ...] = ()


def _discharge_cases(
    system: str,
    obligation: str,
    cases: Sequence[_Case],
    mapping_label: Optional[str],
    detail: str,
) -> ObligationResult:
    """PROVED iff every case discharges; any failure is UNKNOWN (these
    are relaxed encodings, so a failed implication is not a refutation)."""
    for case in cases:
        try:
            outcome = entails(list(case.hypotheses), list(case.goals))
            if not outcome.holds:
                return ObligationResult(
                    system=system,
                    obligation=obligation,
                    verdict=Verdict.UNKNOWN,
                    method="fourier-motzkin",
                    detail="case {!r}: could not entail {!r}".format(
                        case.name, outcome.failing_goal
                    ),
                    mapping_label=mapping_label,
                )
        except AnalyzeError as exc:
            return ObligationResult(
                system=system,
                obligation=obligation,
                verdict=Verdict.UNKNOWN,
                method="fourier-motzkin",
                detail="case {!r}: {}".format(case.name, exc),
                mapping_label=mapping_label,
            )
    return ObligationResult(
        system=system,
        obligation=obligation,
        verdict=Verdict.PROVED,
        method="fourier-motzkin",
        detail=detail,
        mapping_label=mapping_label,
        cases=tuple(case.name for case in cases),
    )


def _exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and not math.isinf(value):
        return Fraction(value)
    raise AnalyzeError("bound {!r} is not exact/finite".format(value))


# ----------------------------------------------------------------------
# Structural / concrete obligations shared by every mapping
# ----------------------------------------------------------------------


def _base_identity(system: str, label: str, mapping) -> ObligationResult:
    ok = mapping.bases_agree
    return ObligationResult(
        system=system,
        obligation="{}/base-identity".format(label),
        verdict=Verdict.PROVED if ok else Verdict.REFUTED,
        method="structural",
        detail="source and target share the same base automaton object"
        if ok
        else "source base {!r} is not target base {!r}".format(
            mapping.source.base.name, mapping.target.base.name
        ),
        mapping_label=label,
    )


def _initial(system: str, label: str, mapping) -> ObligationResult:
    """Definition 3.2 condition 1, decided on the finitely many start
    states (one per base start state — no exploration)."""
    targets = list(mapping.target.start_states())
    for source_state in mapping.source.start_states():
        if not any(mapping.contains(u, source_state) for u in targets):
            return ObligationResult(
                system=system,
                obligation="{}/initial".format(label),
                verdict=Verdict.REFUTED,
                method="concrete",
                detail="no target start state contains {!r}".format(source_state),
                mapping_label=label,
            )
    return ObligationResult(
        system=system,
        obligation="{}/initial".format(label),
        verdict=Verdict.PROVED,
        method="concrete",
        detail="every source start state maps to a target start state",
        mapping_label=label,
    )


def _projection_steps(system: str, label: str, mapping, lemma: str) -> ObligationResult:
    """Step correspondence for a :class:`ProjectionMapping`: target
    predictions must track their renamed source conditions exactly.
    The prediction-update rules are driven entirely by ``(interval,
    starts, in_pi, triggers, disables)``; interval, ``Π`` membership
    (over the full action signature) and start behaviour are finitely
    checkable here, and trigger/disable agreement on reachable states
    is the cited structural lemma."""
    issues: List[str] = []
    src, tgt = mapping.source, mapping.target
    name_map = mapping.name_map
    actions = tuple(tgt.base.signature.all_actions)
    start_states = tuple(tgt.base.start_states())
    for cond in tgt.conditions:
        source_name = name_map[cond.name]
        scond = src.condition(source_name)
        if cond.interval != scond.interval:
            issues.append(
                "{} has bound {!r} but source {} has {!r}".format(
                    cond.name, cond.interval, source_name, scond.interval
                )
            )
        for action in actions:
            if cond.in_pi(action) != scond.in_pi(action):
                issues.append(
                    "{} and {} disagree on Pi membership of {!r}".format(
                        cond.name, source_name, action
                    )
                )
        for astate in start_states:
            if cond.starts(astate) != scond.starts(astate):
                issues.append(
                    "{} and {} disagree on start trigger at {!r}".format(
                        cond.name, source_name, astate
                    )
                )
    if issues:
        return ObligationResult(
            system=system,
            obligation="{}/steps".format(label),
            verdict=Verdict.UNKNOWN,
            method="structural",
            detail="; ".join(issues),
            mapping_label=label,
        )
    return ObligationResult(
        system=system,
        obligation="{}/steps".format(label),
        verdict=Verdict.PROVED,
        method="structural",
        detail="projection: intervals, Pi sets and start triggers agree on "
        "every renamed pair; trigger/disable agreement on reachable "
        "states is {}".format(lemma),
        mapping_label=label,
    )


# ----------------------------------------------------------------------
# Fischer mutual exclusion: an attack encoding
# ----------------------------------------------------------------------


def _fischer_obligation(system_name: str, params) -> ObligationResult:
    """The canonical overwrite race, as a constraint system whose
    *feasibility* is a violating schedule.

    Both processes TRY at time 0.  Process i SETs ``x := i`` within
    ``[0, a]``, then CHECKs within ``[b, 2b]`` of its SET; for i to
    ENTER, j must not yet have SET, so ``t_set_j >= t_check_i`` — but
    j's own SET deadline forces ``t_set_j <= a``.  Then j checks,
    reads ``x = j`` and ENTERs too.  Feasible iff ``a >= b``, matching
    the known safety threshold ``b > a``.
    """
    a, b = _exact(params.a), _exact(params.b)
    ts_i, tc_i = var("t_set_i"), var("t_check_i")
    ts_j, tc_j = var("t_set_j"), var("t_check_j")
    race = [
        ge(ts_i, 0),
        le(ts_i, a),
        ge(tc_i, ts_i + b),
        le(tc_i, ts_i + 2 * b),
        ge(ts_j, tc_i),
        le(ts_j, a),
        ge(tc_j, ts_j + b),
        le(tc_j, ts_j + 2 * b),
    ]
    result = decide(race)
    if result.feasible:
        return ObligationResult(
            system=system_name,
            obligation="mutex-race",
            verdict=Verdict.REFUTED,
            method="fourier-motzkin",
            detail="mutual exclusion violated: the overwrite race is "
            "schedulable (a = {} >= b = {}); witness times satisfy every "
            "window".format(a, b),
            witness=result.witness,
        )
    return ObligationResult(
        system=system_name,
        obligation="mutex-race",
        verdict=Verdict.PROVED,
        method="fourier-motzkin",
        detail="overwrite race infeasible: {} (b = {} > a = {})".format(
            result.refutation, b, a
        ),
    )


# ----------------------------------------------------------------------
# Peterson / tournament
# ----------------------------------------------------------------------


def _peterson_obligation(system_name: str, params) -> ObligationResult:
    from repro.analyze.recurrence import peterson_first_entry_chain

    derived = params.step_interval.scale(3)
    declared = peterson_first_entry_chain(params.step_interval).total()
    if derived == declared:
        return ObligationResult(
            system=system_name,
            obligation="entry-bound",
            verdict=Verdict.PROVED,
            method="closed-form",
            detail="first CS entry in 3*[s1, s2] = {!r}, matching the "
            "recurrence milestone chain".format(derived),
        )
    return ObligationResult(
        system=system_name,
        obligation="entry-bound",
        verdict=Verdict.REFUTED,
        method="closed-form",
        detail="derived {!r} != recurrence total {!r}".format(derived, declared),
    )


def _tournament_obligations(system_name: str, params) -> List[ObligationResult]:
    """The tournament bracket's static obligations.

    The winner climbs ``height`` levels taking three protocol steps per
    level, each in ``[s1, s2]``:

    * **entry-lower** — an FM entailment: 3·height step windows force
      first entry no earlier than ``3·height·s1`` (any width).
    * **entry-bound** (width 2 only) — the bracket degenerates to
      Peterson, so the closed form ``3·[s1, s2]`` must match the
      recurrence milestone chain, exactly as for ``peterson``.
    * **entry-upper** (width ≥ 4) — upper entry bounds under
      contention rest on the guard-based mutex argument, which is not a
      linear timing property, so the zone graph decides them: the exact
      first-entry bound must not exceed ``3·height·s2`` (``PROVED`` /
      ``REFUTED``, ``method="zone-exact"``).  Only when the search runs
      out of its node budget is the verdict UNKNOWN with
      ``method="deferred"``, so gates never fail on it and downstream
      tooling can recognise the deferral.
    """
    from repro.analyze.recurrence import peterson_first_entry_chain

    height = params.height
    step = params.step_interval
    steps = 3 * height
    gaps = [var("t_step_{}".format(i)) for i in range(steps)]
    hypotheses = []
    for gap in gaps:
        hypotheses.append(ge(gap, _exact(step.lo)))
        hypotheses.append(le(gap, _exact(step.hi)))
    total = gaps[0]
    for gap in gaps[1:]:
        total = total + gap
    results = [
        _discharge_cases(
            system_name,
            "entry-lower",
            [
                _Case(
                    name="winner-milestones",
                    hypotheses=tuple(hypotheses),
                    goals=(ge(total, steps * _exact(step.lo)),),
                )
            ],
            mapping_label=None,
            detail="the winner takes {} steps of at least {} each, so first "
            "entry is no earlier than {}".format(steps, step.lo, steps * step.lo),
        )
    ]
    if params.n == 2:
        derived = step.scale(3)
        declared = peterson_first_entry_chain(step).total()
        if derived == declared:
            results.append(
                ObligationResult(
                    system=system_name,
                    obligation="entry-bound",
                    verdict=Verdict.PROVED,
                    method="closed-form",
                    detail="width-2 bracket is Peterson: first CS entry in "
                    "3*[s1, s2] = {!r}, matching the recurrence milestone "
                    "chain".format(derived),
                )
            )
        else:
            results.append(
                ObligationResult(
                    system=system_name,
                    obligation="entry-bound",
                    verdict=Verdict.REFUTED,
                    method="closed-form",
                    detail="derived {!r} != recurrence total {!r}".format(
                        derived, declared
                    ),
                )
            )
    else:
        results.append(_tournament_entry_upper(system_name, params))
    return results


#: Zone-node budget of the tournament entry-upper search: width 4 needs
#: ~8k nodes; a wider bracket defers rather than search for minutes.
_TOURNAMENT_ZONE_NODES = 20_000


def _tournament_entry_upper(system_name: str, params) -> ObligationResult:
    """Decide the width ≥ 4 upper entry bound on the zone graph: the
    exact first-entry time over every timed execution against the
    winner's ``3·height`` steps of at most ``s2``."""
    from repro.errors import ZoneError
    from repro.systems.extensions.tournament import ADVANCE, tournament_system
    from repro.zones.analysis import event_separation_bounds

    step = params.step_interval
    claimed = 3 * params.height * step.hi
    entries = {ADVANCE(i, params.height - 1) for i in range(params.n)}
    try:
        exact = event_separation_bounds(
            tournament_system(params),
            entries,
            max_nodes=_TOURNAMENT_ZONE_NODES,
        )
    except ZoneError as exc:
        return ObligationResult(
            system=system_name,
            obligation="entry-upper",
            verdict=Verdict.UNKNOWN,
            method="deferred",
            detail="deferred: the zone search found no upper entry bound "
            "for a width-{} bracket ({}); the FM lower milestone {} "
            "stands".format(params.n, exc, 3 * params.height * step.lo),
        )
    verdict = Verdict.PROVED if exact.hi <= claimed else Verdict.REFUTED
    return ObligationResult(
        system=system_name,
        obligation="entry-upper",
        verdict=verdict,
        method="zone-exact",
        detail="first CS entry over every timed execution in {!r} ({} zone "
        "nodes); {} 3*height*s2 = {}".format(
            exact,
            exact.nodes,
            "within" if verdict is Verdict.PROVED else "exceeds",
            claimed,
        ),
    )


# ----------------------------------------------------------------------
# Per-system entry points: the facts live on each system's bundle
# ----------------------------------------------------------------------


def discharge_system(name: str) -> List[ObligationResult]:
    """All obligations of one shipped or generated system, discharged
    statically."""
    from repro.surface import bundle

    return list(bundle(name).obligations())


def discharge_all() -> Dict[str, List[ObligationResult]]:
    from repro.catalog import SURFACE_SYSTEMS

    return {name: discharge_system(name) for name in SURFACE_SYSTEMS}
