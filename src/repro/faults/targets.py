"""Per-system perturbation harnesses.

Each system's bundle (:mod:`repro.surface`) builds its
:class:`PerturbTarget`: a canonical stress
direction, a ceiling for the tolerance search, and an ``evaluate(ε,
budget)`` that rebuilds the system under that much drift and folds all
of its evidence — adversarially-scheduled simulation runs through the
paper's mappings, Lemma 2.1 acceptance of the perturbed behaviors
against the *nominal* ``(A, b)``, and exact zone verification of the
nominal claims — into one :class:`~repro.core.checker.CheckOutcome`.

Stress directions are not arbitrary.  Mapping systems (resource
manager, relay, chain) are stressed by *tightening*: a sound mapping
must keep holding as the implementation gets more precise, until
tightening inverts a bound interval — so their tolerance is the slack
the paper's inequalities leave, e.g. ``(c2 − c1)/(c2 + c1)`` for the
resource manager.  Safety systems (Fischer, Peterson, tournament) are
stressed by *widening*: sloppier clocks break Fischer's mutual
exclusion at ``ε = (b − a)/(a + b)``, while the untimed mutex
arguments of Peterson and the tournament survive any drift (the search
reports a ceiling hit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from repro import catalog
from repro.core.checker import CheckOutcome
from repro.core.dummification import undum
from repro.core.mappings import MappingChain
from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.errors import ReproError
from repro.faults.budget import Budget
from repro.faults.checks import (
    absolute_bounds_check,
    lemma_2_1_check,
    mapping_run_check,
    safety_check,
    slack_refinement_mapping,
    zone_condition_check,
)
from repro.faults.perturb import Drift, perturb_boundmap, perturb_interval
from repro.faults.strategies import (
    AdversarialStrategy,
    DeadlinePushStrategy,
    JitterStrategy,
)
from repro.faults.tolerance import ToleranceReport, search_tolerance
from repro.sim.scheduler import Simulator
from repro.sim.strategies import UniformStrategy
from repro.surface import bundle
from repro.systems import GRANT
from repro.systems.mappings_rm import resource_manager_mapping_over

__all__ = [
    "PerturbTarget",
    "build_perturb_target",
    "probe_tolerance",
]

#: evaluate(epsilon, budget) -> folded outcome of every check at that ε.
Evaluation = Callable[[Fraction, Optional[Budget]], CheckOutcome]


@dataclass(frozen=True)
class PerturbTarget:
    """One system's perturbation harness.

    ``expected_broken`` marks systems shipped *deliberately* failing
    their nominal checks (fischer-tight): a BROKEN search verdict on
    one of these is the expected finding, so CLI exit codes and the
    runner's campaign verdict do not count it as a failure.
    """

    name: str
    direction: str
    mode: str
    evaluate: Evaluation
    ceiling: Fraction = Fraction(1)
    expected_broken: bool = False
    #: The adversarial-battery parameters the harness was built with.
    seeds: int = 3
    steps: int = 80
    seed: int = 0

    def search(
        self,
        resolution: Fraction = Fraction(1, 64),
        ceiling: Optional[Fraction] = None,
        budget_factory: Optional[Callable[[], Budget]] = None,
    ) -> ToleranceReport:
        """Binary-search this target's timing tolerance."""
        return search_tolerance(
            self.evaluate,
            system=self.name,
            direction=self.direction,
            mode=self.mode,
            ceiling=self.ceiling if ceiling is None else ceiling,
            resolution=resolution,
            budget_factory=budget_factory,
        )


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------


def _guarded(evaluate: Evaluation) -> Evaluation:
    """Make an evaluation total: any engine error at this ε (a collapsed
    interval, invalid parameters, a scheduling deadlock injected by the
    fault) is a *failing outcome*, not an exception."""

    def wrapped(eps, budget: Optional[Budget] = None) -> CheckOutcome:
        try:
            return evaluate(Fraction(eps), budget)
        except ReproError as exc:
            return CheckOutcome(
                False, 0, "{}: {}".format(type(exc).__name__, exc)
            )

    return wrapped


def _run_checks(
    checks: List[Tuple[str, Callable[[], CheckOutcome]]],
    budget: Optional[Budget],
) -> CheckOutcome:
    """Fold labelled check thunks: first failure wins (labelled), steps
    accumulate, and an exhausted budget stops the fold early with the
    partial result marked.  A pass keeps the labelled details of the
    checks that passed, joined by ``"; "`` (the zone checks' exact
    bounds among them)."""
    total = 0
    exhausted = False
    passed = []
    for label, thunk in checks:
        if budget is not None and budget.exhausted:
            exhausted = True
            break
        outcome = thunk()
        total += outcome.steps_checked
        exhausted = exhausted or outcome.exhausted_budget
        if not outcome.ok:
            return CheckOutcome(
                False,
                total,
                "{}: {}".format(label, outcome.detail),
                failing_source_state=outcome.failing_source_state,
                failing_target_state=outcome.failing_target_state,
                exhausted_budget=exhausted,
            )
        if outcome.detail:
            passed.append("{}: {}".format(label, outcome.detail))
    if exhausted:
        passed.append("budget exhausted after {} steps".format(total))
    return CheckOutcome(True, total, "; ".join(passed), exhausted_budget=exhausted)


def _adversarial_runs(
    algorithm, budget: Optional[Budget], seeds: int, steps: int, base: int = 0
):
    """Seeded runs under the full strategy battery: uniform sampling,
    both edge-of-window adversaries, and a jittered deadline-pusher.
    ``base`` offsets every RNG seed, so distinct bases give independent
    but reproducible batteries."""
    strategies = [
        UniformStrategy(random.Random(seed)) for seed in range(base, base + seeds)
    ]
    strategies.append(AdversarialStrategy(random.Random(base)))
    strategies.append(DeadlinePushStrategy(random.Random(base)))
    strategies.append(
        JitterStrategy(
            DeadlinePushStrategy(random.Random(base + 1)), rng=random.Random(base + 2)
        )
    )
    runs = []
    for strategy in strategies:
        if budget is not None and budget.exhausted:
            break
        runs.append(
            Simulator(algorithm, strategy).run(max_steps=steps, budget=budget)
        )
    return runs


# ----------------------------------------------------------------------
# Mapping systems: stressed by tightening.  Each builder takes the
# nominal system its bundle (:mod:`repro.surface`) built, then the
# battery's (direction, mode, seeds, steps, seed).
# ----------------------------------------------------------------------


def _rm_builder(nominal, direction: str, mode: str, seeds: int, steps: int, seed: int):
    params = nominal.params

    def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
        if eps == 0:
            timed, algorithm = nominal.timed, nominal.algorithm
        else:
            timed = perturb_boundmap(
                nominal.timed, Drift(eps, mode=mode, direction=direction)
            )
            algorithm = time_of_boundmap(timed)
        mapping = resource_manager_mapping_over(
            algorithm, nominal.requirements, params
        )
        runs = _adversarial_runs(algorithm, budget, seeds, steps, base=seed)
        checks = [
            ("Section 4.3 mapping", lambda: mapping_run_check(mapping, runs, budget)),
            (
                "Lemma 2.1 vs nominal (A, b)",
                lambda: lemma_2_1_check(
                    nominal.timed, [project(run) for run in runs], budget
                ),
            ),
            (
                "zone first-GRANT bound",
                lambda: absolute_bounds_check(
                    timed, GRANT, params.first_grant_interval, budget=budget
                ),
            ),
            (
                "zone GRANT-gap bound",
                lambda: zone_condition_check(
                    timed,
                    GRANT,
                    GRANT,
                    params.grant_gap_interval,
                    occurrences=2,
                    budget=budget,
                ),
            ),
        ]
        return _run_checks(checks, budget)

    return evaluate


def _line_builder(
    nominal, label: str, section: str, direction: str, mode: str, seeds: int, steps: int, seed: int
):
    """A relay's or a chain's battery: its hierarchy plus slack
    refinement into the nominal requirements along adversarial runs,
    Lemma 2.1 against the nominal ``(A, b)``, and the zone end-to-end
    bound, each after drifting every stage."""
    claimed = nominal.requirement.interval

    def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
        if eps == 0:
            perturbed = nominal
        else:
            drift = Drift(eps, mode=mode, direction=direction)
            perturbed = nominal.rebuilt([perturb_interval(s, drift) for s in nominal.stages])
        chain = MappingChain(
            list(perturbed.hierarchy().mappings)
            + [
                slack_refinement_mapping(
                    perturbed.requirements,
                    nominal.requirements,
                    name="{} slack refinement".format(label),
                )
            ]
        )
        runs = _adversarial_runs(perturbed.algorithm, budget, seeds, steps, base=seed)
        checks = [
            (
                "{} hierarchy + slack refinement".format(section),
                lambda: mapping_run_check(chain, runs, budget),
            ),
            (
                "Lemma 2.1 vs nominal (A, b)",
                lambda: lemma_2_1_check(
                    nominal.timed, [undum(project(run)) for run in runs], budget
                ),
            ),
            (
                "zone end-to-end bound",
                lambda: zone_condition_check(
                    perturbed.timed,
                    nominal.event(0),
                    nominal.event(nominal.n),
                    claimed,
                    budget=budget,
                ),
            ),
        ]
        return _run_checks(checks, budget)

    return evaluate


# ----------------------------------------------------------------------
# Safety systems: stressed by widening
# ----------------------------------------------------------------------


def _safety_builder(system, direction: str, mode: str, seeds: int, steps: int, seed: int):
    """A zone safety sweep of ``system``'s ``(A, b)`` for its violation,
    after drifting the boundmap.  A system that declares a
    ``bounded_sweep`` gets a sweep cut at that many nodes — reported
    inconclusive, so nothing partial is ever cached as settled — plus a
    screen of the states adversarially scheduled runs visit."""
    timed = system.timed()
    describe, predicate = system.violation
    bounded = system.bounded_sweep

    def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
        perturbed = (
            timed
            if eps == 0
            else perturb_boundmap(timed, Drift(eps, mode=mode, direction=direction))
        )

        def run_screen() -> CheckOutcome:
            runs = _adversarial_runs(
                time_of_boundmap(perturbed), budget, seeds, steps, base=seed
            )
            scanned = 0
            for run in runs:
                for state in run.states:
                    scanned += 1
                    if predicate(state.astate):
                        return CheckOutcome(
                            False, scanned, "{}: reached in a simulated run".format(describe)
                        )
            return CheckOutcome(True, scanned)

        checks = [
            (
                "zone safety sweep",
                lambda: safety_check(
                    perturbed,
                    predicate,
                    describe=describe,
                    budget=budget,
                    max_nodes=200_000 if bounded is None else bounded,
                ),
            )
        ]
        if bounded is not None:
            checks.append(("adversarial run screen", run_screen))
        return _run_checks(checks, budget)

    return evaluate


def build_perturb_target(
    name: str,
    direction: Optional[str] = None,
    mode: Optional[str] = None,
    seeds: int = 3,
    steps: int = 80,
    seed: int = 0,
) -> PerturbTarget:
    """Build one system's harness, optionally overriding the canonical
    stress direction or drift mode.  ``seed`` offsets every RNG in the
    adversarial battery for reproducible-but-independent reruns."""
    try:
        catalog.KIND_SPECS["perturb"].admit_system(name)
    except ValueError:
        raise ReproError(
            "unknown perturbation target {!r}; expected one of {} or a gen: "
            "name".format(name, ", ".join(catalog.SURFACE_SYSTEMS))
        ) from None
    system = bundle(name)
    direction = direction or system.perturb_direction
    mode = mode or "scale"
    # Validate direction/mode eagerly (Drift owns the vocabulary).
    Drift(Fraction(0), mode=mode, direction=direction)
    evaluate = system.perturb_builder(direction, mode, seeds, steps, seed)
    return PerturbTarget(
        name=name,
        direction=direction,
        mode=mode,
        evaluate=_guarded(evaluate),
        expected_broken=name in catalog.EXPECTED_BROKEN,
        seeds=seeds,
        steps=steps,
        seed=seed,
    )


def probe_tolerance(
    name: str,
    epsilon: Fraction,
    budget: Optional[Budget] = None,
    direction: Optional[str] = None,
    mode: Optional[str] = None,
    seeds: int = 2,
    steps: int = 60,
    seed: int = 0,
) -> Tuple[PerturbTarget, CheckOutcome, CheckOutcome]:
    """Evaluate a target at ε = 0 and at ``epsilon`` (each probe under a
    fresh copy of ``budget``).  The lint rule R014 uses this to flag
    fragile bounds: nominal passes but even a small drift fails."""
    target = build_perturb_target(
        name, direction=direction, mode=mode, seeds=seeds, steps=steps, seed=seed
    )
    nominal = target.evaluate(
        Fraction(0), budget.renew() if budget is not None else None
    )
    probe = target.evaluate(
        Fraction(epsilon), budget.renew() if budget is not None else None
    )
    return target, nominal, probe
