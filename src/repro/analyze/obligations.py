"""Symbolic discharge of mapping obligations (paper Definition 3.2).

Each shipped system's strong-possibilities-mapping obligations are
compiled into exact-rational linear constraint systems and decided by
Fourier–Motzkin elimination — no state enumeration anywhere.  Three
obligation families per inequality mapping:

- ``base-identity``: source and target are built over the same ``A``
  (Definition 3.2 condition 3) — checked structurally.
- ``initial``: every source start state has a target start state in its
  image (condition 1) — checked concretely on the finitely many start
  states, no exploration.
- ``steps``: every source step can be matched in the target
  (condition 2) — split into symbolic cases by action and control
  phase; each case is an implication ``H ⇒ g`` over the predictive
  variables, discharged by infeasibility of ``H ∧ ¬g``.

The case hypotheses encode structural invariants of ``time(A, U)``
states that follow directly from the prediction-update rules (e.g. a
class that is never disabled always satisfies ``Lt = Ft + (b_u − b_l)``
and ``Ft ≤ Ct + b_l``); the case goals are the mapping inequalities at
the post-state plus the legality constraints ``Ft ≤ t ≤ Lt`` of the
matching target step.

The Fischer obligations are *attack encodings*: a feasible constraint
system is a concrete violating schedule, so feasibility yields
``REFUTED`` with the Fourier–Motzkin witness as the counterexample —
this is how ``fischer-tight`` is refuted without a zone search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalyzeError
from repro.analyze.constraints import Constraint, const, eq, ge, gt, le, lt, var
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
    """One symbolic step case: prove ``hypotheses ⇒ goals`` — or, for
    ``impossible`` cases, that the hypotheses are contradictory (the
    case cannot arise)."""

    name: str
    hypotheses: Tuple[Constraint, ...]
    goals: Tuple[Constraint, ...] = ()
    impossible: bool = False


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
            if case.impossible:
                result = decide(list(case.hypotheses))
                if result.feasible:
                    return ObligationResult(
                        system=system,
                        obligation=obligation,
                        verdict=Verdict.UNKNOWN,
                        method="fourier-motzkin",
                        detail="case {!r} was expected to be contradictory but "
                        "is satisfiable".format(case.name),
                        mapping_label=mapping_label,
                    )
            else:
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
    name_map = getattr(mapping, "_name_map", {})
    actions = tuple(tgt.base.signature.all_actions)
    start_states = tuple(tgt.base.start_states())
    for cond in tgt.conditions:
        source_name = name_map.get(cond.name, cond.name)
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
# Resource manager (paper Section 4.3, Lemmas 4.1-4.2)
# ----------------------------------------------------------------------


def _rm_invariant_hyps(params) -> List[Constraint]:
    """Structural invariants of reachable ``time(A, b)`` states.

    TICK and LOCAL are never disabled, so their predictions always have
    the shape ``(t0 + b_l, t0 + b_u)`` for a trigger time ``t0 ≤ Ct``;
    no pending deadline is ever in the past.
    """
    c1, c2, l = _exact(params.c1), _exact(params.c2), _exact(params.l)
    now = var("now")
    ft_tick, lt_tick = var("ft_tick"), var("lt_tick")
    ft_local, lt_local = var("ft_local"), var("lt_local")
    return [
        ge(now, 0),
        eq(lt_tick, ft_tick + (c2 - c1)),
        le(ft_tick, now + c1),
        ge(ft_tick, 0),
        eq(lt_local, ft_local + l),
        le(ft_local, now),
        ge(ft_local, 0),
        le(now, lt_tick),
        le(now, lt_local),
    ]


def _rm_step_hyps() -> List[Constraint]:
    """A step at time ``t``: time advances and beats no deadline."""
    t = var("t")
    return [ge(t, var("now")), le(t, var("lt_tick")), le(t, var("lt_local"))]


def _rm_mapping_hyps_positive(params) -> List[Constraint]:
    """The Section 4.3 mapping at ``TIMER = T ≥ 1``, with ``(ft_R,
    lt_R)`` the prediction of the *active* requirement condition (G1
    before the first GRANT, G2 after; the inactive one holds the
    default prediction and so never dominates the min/max)."""
    c1, c2, l = _exact(params.c1), _exact(params.c2), _exact(params.l)
    T = var("T")
    return [
        ge(var("lt_R"), var("lt_tick") + c2 * T - c2 + l),
        le(var("ft_R"), var("ft_tick") + c1 * T - c1),
        ge(var("ft_R"), 0),
        ge(var("lt_R"), 0),
    ]


def _rm_obligations(system_name: str, label: str, system) -> List[ObligationResult]:
    from repro.systems import resource_manager_mapping

    params = system.params
    c1, c2, l = _exact(params.c1), _exact(params.c2), _exact(params.l)
    k = int(params.k)
    mapping = resource_manager_mapping(system)

    t = var("t")
    ft_tick, lt_tick = var("ft_tick"), var("lt_tick")
    ft_local, lt_local = var("ft_local"), var("lt_local")
    ft_R, lt_R = var("ft_R"), var("lt_R")
    T = var("T")

    inv = _rm_invariant_hyps(params)
    step = _rm_step_hyps()

    # --- Lemma 4.1: TIMER >= 0, and TIMER = 0 implies
    #     Ft(TICK) >= Lt(LOCAL) + c1 - l. ---
    lemma_cases = [
        _Case(
            name="tick-at-zero-impossible",
            hypotheses=tuple(
                inv
                + step
                + [
                    # Invariant at TIMER = 0 plus TICK's firing window:
                    # t >= Ft(TICK) >= Lt(LOCAL) + c1 - l > Lt(LOCAL) >= t.
                    ge(ft_tick, lt_local + (c1 - l)),
                    ge(t, ft_tick),
                    gt(const(c1), const(l)),
                ]
            ),
            impossible=True,
        ),
        _Case(
            name="tick-establishes-at-one",
            hypotheses=tuple(inv + step + [ge(t, ft_tick)]),
            # Post state: TIMER' = 0, Ft'(TICK) = t + c1, LOCAL's
            # prediction unchanged (TICK is outside the LOCAL class and
            # leaves it enabled).  Goal is the Lemma 4.1 inequality.
            goals=(ge(t + c1, lt_local + (c1 - l)),),
        ),
        _Case(
            name="grant-and-else-vacuous",
            hypotheses=(),
            goals=(),  # GRANT resets TIMER to k >= 1; ELSE keeps TIMER >= 1.
        ),
    ]
    lemma = _discharge_cases(
        system_name,
        "{}/invariant:lemma-4.1".format(label),
        lemma_cases,
        mapping_label=label,
        detail="TIMER >= 0 and TIMER = 0 implies Ft(TICK) >= Lt(LOCAL) + c1 - l; "
        "TICK cannot overtake a pending GRANT deadline",
    )

    # --- Step correspondence of the Section 4.3 mapping. ---
    m_pos = _rm_mapping_hyps_positive(params)
    m_zero = [ge(lt_R, lt_local), le(ft_R, var("now")), ge(ft_R, 0)]
    gl = k * c1 - l  # G2 lower bound (k*c1 - l)
    gu = k * c2 + l  # G2 upper bound (k*c2 + l)
    step_cases = [
        _Case(
            # TICK with TIMER = T >= 2: requirement predictions are
            # untouched; the mapping must still hold at T' = T - 1
            # against TICK's refreshed prediction (t + c1, t + c2).
            name="tick-countdown",
            hypotheses=tuple(inv + step + m_pos + [ge(T, 2), ge(t, ft_tick)]),
            goals=(
                le(t, lt_R),
                ge(lt_R, t + c2 * T - c2 + l),
                le(ft_R, t + c1 * T - c1),
            ),
        ),
        _Case(
            # TICK with TIMER = 1: the mapping's T = 0 clause takes
            # over — min Lt >= Lt(LOCAL), max Ft <= Ct' = t.
            name="tick-to-zero",
            hypotheses=tuple(
                inv
                + step
                + [
                    ge(lt_R, lt_tick + l),
                    le(ft_R, ft_tick),
                    ge(ft_R, 0),
                    ge(t, ft_tick),
                ]
            ),
            goals=(le(t, lt_R), ge(lt_R, lt_local), le(ft_R, t)),
        ),
        _Case(
            # GRANT at TIMER = 0: B's G2 is triggered to
            # (t + k*c1 - l, t + k*c2 + l) and must cover the mapping at
            # TIMER' = k.  The Ft direction is exactly where Lemma 4.1
            # is consumed as a hypothesis.
            name="grant",
            hypotheses=tuple(
                inv
                + step
                + m_zero
                + [
                    ge(t, ft_local),
                    ge(ft_tick, lt_local + (c1 - l)),  # Lemma 4.1
                ]
            ),
            goals=(
                le(t, lt_R),
                ge(t + gu, lt_tick + (k - 1) * c2 + l),
                le(t + gl, ft_tick + (k - 1) * c1),
                ge(ft_tick + (k - 1) * c1, 0),
            ),
        ),
        _Case(
            # ELSE at TIMER = T >= 1: nothing in B moves; the mapping
            # inequality carries over verbatim (and the target deadline
            # is respected).
            name="else",
            hypotheses=tuple(inv + step + m_pos + [ge(T, 1), ge(t, ft_local)]),
            goals=(
                le(t, lt_R),
                ge(lt_R, lt_tick + c2 * T - c2 + l),
                le(ft_R, ft_tick + c1 * T - c1),
            ),
        ),
    ]
    steps = _discharge_cases(
        system_name,
        "{}/steps".format(label),
        step_cases,
        mapping_label=label,
        detail="Section 4.3 inequality mapping preserved across TICK, GRANT "
        "and ELSE (Lemma 4.2)",
    )

    return [
        _base_identity(system_name, label, mapping),
        _initial(system_name, label, mapping),
        lemma,
        steps,
    ]


# ----------------------------------------------------------------------
# Relay / chain level mappings (paper Section 6.3, Lemma 6.2)
# ----------------------------------------------------------------------


def _level_cases(Q, R, sig) -> List[_Case]:
    """Step cases for a level mapping ``f_k : B_k → B_{k-1}``.

    ``Q`` is the bound of the target condition ``U_{k-1}``, ``R`` the
    bound of the source condition ``U_k``, and ``sig`` the class bound
    of the hand-off event ``SIGNAL_k``.  Phases follow the at-most-one
    -flag-up structural lemma: A (a later flag is up, predictions
    correspond directly), B (flag k is up, the target tracks
    ``SIGNAL_k``'s prediction shifted by ``R``), C (no flag at or past
    ``k`` — both conditions inactive)."""
    Q_lo, Q_hi = _exact(Q.lo), _exact(Q.hi)
    R_lo, R_hi = _exact(R.lo), _exact(R.hi)
    s_lo, s_hi = _exact(sig.lo), _exact(sig.hi)
    t = var("t")
    ft_u, lt_u = var("ft_u"), var("lt_u")  # target U_{k-1}
    ft_s, lt_s = var("ft_s"), var("lt_s")  # source U_k
    ft_sig, lt_sig = var("ft_sig"), var("lt_sig")  # source SIGNAL_k class
    nonneg = [ge(v, 0) for v in (t, ft_u, ft_s, ft_sig)]
    phase_a = [ge(lt_u, lt_s), le(ft_u, ft_s)]
    phase_b = [ge(lt_u, lt_sig + R_hi), le(ft_u, ft_sig + R_lo)]
    return [
        _Case(
            # SIGNAL_{k-1} fires: U_{k-1} is triggered to (t + Q_l,
            # t + Q_u) while SIGNAL_k's class condition is triggered to
            # (t + sig_l, t + sig_u); the phase-B relation demands
            # exactly the Minkowski identity Q = sig + R.
            name="handoff",
            hypotheses=(),
            goals=(
                eq(const(Q_hi), const(s_hi + R_hi)),
                eq(const(Q_lo), const(s_lo + R_lo)),
            ),
        ),
        _Case(
            # SIGNAL_k fires in phase B: the source triggers U_k to
            # (t + R_l, t + R_u); the target's standing prediction must
            # already cover it, and its deadline must not be beaten.
            name="advance",
            hypotheses=tuple(
                nonneg + phase_b + [ge(t, ft_sig), le(t, lt_sig)]
            ),
            goals=(le(t, lt_u), ge(lt_u, t + R_hi), le(ft_u, t + R_lo)),
        ),
        _Case(
            # SIGNAL_j with k < j < n in phase A: neither condition
            # moves; direct correspondence carries over.
            name="pass",
            hypotheses=tuple(nonneg + phase_a + [le(t, lt_s)]),
            goals=(le(t, lt_u), ge(lt_u, lt_s), le(ft_u, ft_s)),
        ),
        _Case(
            # SIGNAL_n in phase A: both conditions fire and reset to
            # the default prediction; the target step's legality window
            # Ft(U_{k-1}) <= t <= Lt(U_{k-1}) follows from the source's.
            name="finish",
            hypotheses=tuple(nonneg + phase_a + [ge(t, ft_s), le(t, lt_s)]),
            goals=(le(t, lt_u), ge(t, ft_u)),
        ),
        _Case(
            # Any other action in phase B (NULL, earlier signals): the
            # target deadline Lt(U_{k-1}) is covered by SIGNAL_k's own
            # class deadline, which the source step already respects.
            name="stutter-deadline",
            hypotheses=tuple(nonneg + phase_b + [le(t, lt_sig)]),
            goals=(le(t, lt_u),),
        ),
        _Case(
            # Phase C (flags below k only): both conditions hold the
            # default prediction and shared conditions update
            # identically — nothing to prove.
            name="prefix",
            hypotheses=(),
            goals=(),
        ),
    ]


def _relay_obligations(system_name: str, system) -> List[ObligationResult]:
    from repro.systems import relay_hierarchy

    params = system.params
    n = params.n
    chain = relay_hierarchy(system)
    results: List[ObligationResult] = []
    for level, mapping in enumerate(chain):
        label = "relay[{}]".format(level)
        results.append(_base_identity(system_name, label, mapping))
        results.append(_initial(system_name, label, mapping))
        if level == 0 or level == len(chain.mappings) - 1:
            results.append(
                _projection_steps(
                    system_name,
                    label,
                    mapping,
                    lemma="Lemma 6.1 (at most one flag is up)",
                )
            )
        else:
            # chain is [entry, f_{n-1}, ..., f_1, exit]; mapping at
            # position `level` (1-based inside the levels) is f_k with
            # k = n - level.
            k = n - level
            cases = _level_cases(
                Q=params.hop_interval(k - 1),
                R=params.hop_interval(k),
                sig=system.timed.boundmap["SIGNAL_{}".format(k)],
            )
            results.append(
                _discharge_cases(
                    system_name,
                    "{}/steps".format(label),
                    cases,
                    mapping_label=label,
                    detail="level mapping f_{} : B_{} -> B_{} (Lemma 6.2)".format(
                        k, k, k - 1
                    ),
                )
            )
    return results


def _chain_obligations(system_name: str, system) -> List[ObligationResult]:
    from repro.systems.extensions.chain import partial_sum_interval

    stages = system.stages
    m = system.m
    chain = system.hierarchy()
    results: List[ObligationResult] = []
    for level, mapping in enumerate(chain):
        label = "chain[{}]".format(level)
        results.append(_base_identity(system_name, label, mapping))
        results.append(_initial(system_name, label, mapping))
        if level == 0 or level == len(chain.mappings) - 1:
            results.append(
                _projection_steps(
                    system_name,
                    label,
                    mapping,
                    lemma="the chain analogue of Lemma 6.1 (one event in "
                    "flight at a time)",
                )
            )
        else:
            k = m - level
            cases = _level_cases(
                Q=partial_sum_interval(stages, k - 1),
                R=partial_sum_interval(stages, k),
                sig=stages[k - 1],
            )
            results.append(
                _discharge_cases(
                    system_name,
                    "{}/steps".format(label),
                    cases,
                    mapping_label=label,
                    detail="chain level mapping f_{} (Theorem 6.4 instance)".format(k),
                )
            )
    return results


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
    from repro.analysis.recurrence import peterson_first_entry_chain

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
    from repro.analysis.recurrence import peterson_first_entry_chain

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
