"""Per-system perturbation harnesses.

Each shipped system gets a :class:`PerturbTarget`: a canonical stress
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
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.systems import (
    GRANT,
    SIGNAL,
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
    relay_hierarchy,
)
from repro.systems.extensions import (
    EVENT,
    ChainSystem,
    FischerParams,
    PetersonParams,
    TournamentParams,
    both_critical,
    fischer_system,
    mutual_exclusion_violated,
    peterson_system,
    tournament_mutex_violated,
    tournament_system,
)
from repro.systems.mappings_rm import resource_manager_mapping_over
from repro.timed.boundmap import TimedAutomaton
from repro.timed.interval import Interval

__all__ = [
    "PerturbTarget",
    "perturb_names",
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
    description: str
    direction: str
    mode: str
    ceiling: Fraction
    evaluate: Evaluation
    expected_broken: bool = False
    #: The adversarial-battery parameters the harness was built with —
    #: part of the verdict-cache identity (see :meth:`cache_parts`).
    seeds: int = 3
    steps: int = 80
    seed: int = 0

    def cache_parts(self) -> Dict[str, object]:
        """The canonical verdict-cache key parts of this harness.

        Everything that changes what :attr:`evaluate` computes — stress
        direction, drift mode, battery size, RNG seed — goes in; callers
        merge in their own per-call parameters (ε, budget caps,
        resolution) before handing the dict to the cache.
        """
        return {
            "direction": self.direction,
            "mode": self.mode,
            "seeds": self.seeds,
            "steps": self.steps,
            "seed": self.seed,
        }

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
    partial result marked."""
    total = 0
    exhausted = False
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
    detail = "budget exhausted after {} steps".format(total) if exhausted else ""
    return CheckOutcome(True, total, detail, exhausted_budget=exhausted)


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
# Mapping systems: stressed by tightening
# ----------------------------------------------------------------------


def _rm_builder(direction: str, mode: str, seeds: int, steps: int, seed: int):
    nominal = ResourceManagerSystem(
        ResourceManagerParams(k=3, c1=Fraction(2), c2=Fraction(3), l=Fraction(1))
    )
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

    description = (
        "resource manager (k=3, c1=2, c2=3, l=1): Section 4.3 mapping, "
        "Lemma 2.1, and zone bounds vs the nominal claims"
    )
    return description, Fraction(1), evaluate


def _relay_builder(direction: str, mode: str, seeds: int, steps: int, seed: int):
    nominal = RelaySystem(RelayParams(n=3, d1=Fraction(1), d2=Fraction(2)))
    params = nominal.params
    claimed = params.end_to_end_interval

    def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
        if eps == 0:
            perturbed = nominal
        else:
            stage = perturb_interval(
                Interval(params.d1, params.d2),
                Drift(eps, mode=mode, direction=direction),
            )
            perturbed = RelaySystem(
                RelayParams(n=params.n, d1=stage.lo, d2=stage.hi)
            )
        chain = MappingChain(
            list(relay_hierarchy(perturbed).mappings)
            + [
                slack_refinement_mapping(
                    perturbed.requirements,
                    nominal.requirements,
                    name="relay slack refinement",
                )
            ]
        )
        runs = _adversarial_runs(perturbed.algorithm, budget, seeds, steps, base=seed)
        checks = [
            (
                "Section 6 hierarchy + slack refinement",
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
                    perturbed.timed, SIGNAL(0), SIGNAL(params.n), claimed, budget=budget
                ),
            ),
        ]
        return _run_checks(checks, budget)

    description = (
        "signal relay (n=3, d1=1, d2=2): Section 6 hierarchy chained "
        "into the nominal requirements via a slack-refinement mapping"
    )
    return description, Fraction(1), evaluate


def _chain_builder(direction: str, mode: str, seeds: int, steps: int, seed: int):
    stages = (Interval(1, 2), Interval(2, 3))
    nominal = ChainSystem(list(stages))
    claimed = nominal.requirement.interval

    def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
        if eps == 0:
            perturbed = nominal
        else:
            drift = Drift(eps, mode=mode, direction=direction)
            perturbed = ChainSystem(
                [perturb_interval(stage, drift) for stage in stages]
            )
        chain = MappingChain(
            list(perturbed.hierarchy().mappings)
            + [
                slack_refinement_mapping(
                    perturbed.requirements,
                    nominal.requirements,
                    name="chain slack refinement",
                )
            ]
        )
        runs = _adversarial_runs(perturbed.algorithm, budget, seeds, steps, base=seed)
        checks = [
            (
                "Section 8 hierarchy + slack refinement",
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
                    perturbed.timed, EVENT(0), EVENT(nominal.m), claimed, budget=budget
                ),
            ),
        ]
        return _run_checks(checks, budget)

    description = (
        "heterogeneous chain (stages [1,2], [2,3]): Minkowski-sum "
        "hierarchy chained into the nominal requirements"
    )
    return description, Fraction(1), evaluate


# ----------------------------------------------------------------------
# Safety systems: stressed by widening
# ----------------------------------------------------------------------


def _safety_builder(
    timed: TimedAutomaton,
    predicate,
    describe: str,
    description: str,
    max_nodes: int = 200_000,
):
    def builder(direction: str, mode: str, seeds: int, steps: int, seed: int):
        def evaluate(eps: Fraction, budget: Optional[Budget]) -> CheckOutcome:
            perturbed = (
                timed
                if eps == 0
                else perturb_boundmap(
                    timed, Drift(eps, mode=mode, direction=direction)
                )
            )
            checks = [
                (
                    "zone safety sweep",
                    lambda: safety_check(
                        perturbed,
                        predicate,
                        describe=describe,
                        budget=budget,
                        max_nodes=max_nodes,
                    ),
                )
            ]
            return _run_checks(checks, budget)

        return description, Fraction(1), evaluate

    return builder


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: name -> (builder, canonical direction). Builders take
#: (direction, mode, seeds, steps, seed) and return (description,
#: ceiling, evaluate).
_BUILDERS: Dict[str, Tuple[Callable, str]] = {
    "rm": (_rm_builder, "tighten"),
    "relay": (_relay_builder, "tighten"),
    "chain": (_chain_builder, "tighten"),
    "fischer": (
        _safety_builder(
            fischer_system(FischerParams(n=2, a=Fraction(1), b=Fraction(2))),
            mutual_exclusion_violated,
            "mutual exclusion violated",
            "Fischer mutex (n=2, a=1, b=2): timed safety, breaks at "
            "eps = (b-a)/(a+b)",
        ),
        "widen",
    ),
    "fischer-tight": (
        _safety_builder(
            fischer_system(FischerParams(n=2, a=Fraction(1), b=Fraction(1))),
            mutual_exclusion_violated,
            "mutual exclusion violated",
            "Fischer mutex with a = b (deliberately broken: safety "
            "needs b > a, so the nominal checks already fail)",
        ),
        "widen",
    ),
    "peterson": (
        _safety_builder(
            peterson_system(PetersonParams(s1=Fraction(1), s2=Fraction(2))),
            both_critical,
            "both processes critical",
            "Peterson mutex (s1=1, s2=2): untimed argument, tolerates "
            "any drift (ceiling hit)",
        ),
        "widen",
    ),
    "tournament": (
        _safety_builder(
            tournament_system(TournamentParams(n=2, s1=Fraction(1), s2=Fraction(2))),
            tournament_mutex_violated,
            "two processes critical",
            "tournament mutex (n=2, s1=1, s2=2): untimed argument, "
            "tolerates any drift (ceiling hit)",
        ),
        "widen",
    ),
}


def perturb_names() -> Tuple[str, ...]:
    """Names accepted by :func:`build_perturb_target` (and the CLI)."""
    return tuple(_BUILDERS)


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
    from repro.gen.names import is_gen_name

    if is_gen_name(name):
        from repro.gen.families import build_bundle

        bundle = build_bundle(name)
        direction = direction or bundle.perturb_direction
        mode = mode or "scale"
        Drift(Fraction(0), mode=mode, direction=direction)
        description, ceiling, evaluate = bundle.perturb_builder(
            direction, mode, seeds, steps, seed
        )
        return PerturbTarget(
            name=name,
            description=description,
            direction=direction,
            mode=mode,
            ceiling=ceiling,
            evaluate=_guarded(evaluate),
            expected_broken=False,
            seeds=seeds,
            steps=steps,
            seed=seed,
        )
    if name not in _BUILDERS:
        raise ReproError(
            "unknown perturbation target {!r}; expected one of {}".format(
                name, ", ".join(_BUILDERS)
            )
        )
    builder, canonical_direction = _BUILDERS[name]
    direction = direction or canonical_direction
    mode = mode or "scale"
    # Validate direction/mode eagerly (Drift owns the vocabulary).
    Drift(Fraction(0), mode=mode, direction=direction)
    description, ceiling, evaluate = builder(direction, mode, seeds, steps, seed)
    return PerturbTarget(
        name=name,
        description=description,
        direction=direction,
        mode=mode,
        ceiling=ceiling,
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
