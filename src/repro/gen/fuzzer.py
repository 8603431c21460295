"""The differential proof-method fuzzer.

Each instance is a small random — but *well-formed by construction* —
closed timed automaton (a ring of modular counter cells from
:mod:`repro.testkit`, every bound window anchored at or above 1/2 so
grid exploration cannot go Zeno) plus a claim about the anchor cell's
fire-to-fire gap.  The claim's ground truth is decided by the testkit
invariant the suite already proves: an always-enabled class attains
exactly its bound window between consecutive firings, so a claim holds
iff it contains the anchor window.

Four *independent* engines then decide the same claim:

1. **mapping** — exhaustive grid check of a possibilities mapping into
   the claim's requirements automaton (the paper's Theorem 3.4 route);
2. **semantic** — every grid execution tested directly against the
   claim (no mapping);
3. **zones** — exact continuous-time separation bounds (DBMs);
4. **symbolic** — Fourier–Motzkin feasibility of a violating gap.

Any split between determinate verdicts — or between a verdict and the
constructed truth — is an engine bug: the campaign fails loudly and
serialises the instance as a JSON *reproducer* that rebuilds the exact
automaton and claim with no randomness involved.

Everything is deterministic in ``(seed, index)``: campaigns shard
freely across runner jobs and replay byte-identically.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.gen.names import GEN_VERSION
from repro.testkit import INC, CellSpec, RandomSystem, system_of_cells
from repro.timed.interval import Interval

__all__ = [
    "FuzzInstance",
    "FuzzReport",
    "check_recipe",
    "load_reproducer",
    "run_campaign",
    "sample_recipe",
    "write_reproducer",
]

#: Every window endpoint is a multiple of the exploration grid, so the
#: extremal schedules the oracle needs are grid schedules.
GRID = Fraction(1, 2)

#: Bound-window menus: lower edges start at 1/2 (a zero lower bound
#: admits infinitely many same-instant firings, which the execution-tree
#: engines cannot enumerate), widths keep the horizon small.
_LOWER_MENU = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
_WIDTH_MENU = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]

#: How claims are derived from the anchor window.
_CLAIM_KINDS = ("exact", "widen", "tighten", "shift")

#: Product-node cap for the semantic leg; an instance that truncates
#: both exhaustive legs is counted, not compared.
_MAX_EXECUTIONS = 150_000


def _frac(value: Fraction) -> str:
    return "{}/{}".format(value.numerator, value.denominator)


def _unfrac(text: str) -> Fraction:
    return Fraction(text)


# ----------------------------------------------------------------------
# Recipes: plain-JSON instance descriptions
# ----------------------------------------------------------------------


def sample_recipe(rng: random.Random) -> Dict[str, Any]:
    """One random instance recipe.  Plain JSON data — rebuilding the
    system from a recipe involves no randomness, which is what makes
    reproducer artifacts exact."""
    n_cells = rng.choice([1, 1, 2, 2, 2, 3])
    cells = []
    for i in range(n_cells):
        lo = rng.choice(_LOWER_MENU)
        hi = lo + rng.choice(_WIDTH_MENU)
        guard_on = None
        if i > 0 and rng.random() < 0.5:
            guard_on = rng.randrange(i)
        cells.append(
            {
                "index": i,
                "modulus": rng.randint(2, 3),
                "lo": _frac(lo),
                "hi": _frac(hi),
                "guard_on": guard_on,
            }
        )
    anchor = Interval(_unfrac(cells[0]["lo"]), _unfrac(cells[0]["hi"]))
    kind = rng.choice(_CLAIM_KINDS)
    claim = _derive_claim(rng, anchor, kind)
    return {
        "gen_version": GEN_VERSION,
        "cells": cells,
        "claim": {"lo": _frac(claim.lo), "hi": _frac(claim.hi), "kind": kind},
    }


def _derive_claim(rng: random.Random, anchor: Interval, kind: str) -> Interval:
    delta = GRID * rng.randint(1, 3)
    if kind == "widen":
        return Interval(max(Fraction(0), anchor.lo - delta), anchor.hi + delta)
    if kind == "tighten":
        if anchor.hi - anchor.lo >= 2 * GRID:
            return Interval(anchor.lo + GRID, anchor.hi - GRID)
        # Point-ish windows cannot be squeezed from both sides; raise
        # the lower edge past the window instead (still a must-fail).
        return Interval(anchor.lo + GRID, anchor.hi + GRID)
    if kind == "shift":
        return Interval(anchor.lo + delta, anchor.hi + delta)
    return anchor


def build_instance(recipe: Dict[str, Any]) -> Tuple[RandomSystem, Interval, bool]:
    """Rebuild ``(system, claim, expected)`` from a recipe."""
    cells = [
        CellSpec(
            index=cell["index"],
            modulus=cell["modulus"],
            interval=Interval(_unfrac(cell["lo"]), _unfrac(cell["hi"])),
            guard_on=cell["guard_on"],
        )
        for cell in recipe["cells"]
    ]
    system = system_of_cells(cells)
    claim = Interval(_unfrac(recipe["claim"]["lo"]), _unfrac(recipe["claim"]["hi"]))
    anchor = cells[0].interval
    expected = claim.lo <= anchor.lo and anchor.hi <= claim.hi
    return system, claim, expected


# ----------------------------------------------------------------------
# The four oracle legs
# ----------------------------------------------------------------------


def _gap_condition(claim: Interval):
    from repro.timed.conditions import TimingCondition

    return TimingCondition.after_action("GAP", claim, INC(0), {INC(0)})


def _horizon(system: RandomSystem) -> Fraction:
    # Two anchor firings at the latest possible times, plus slack: every
    # violating schedule of the gap claim lives inside this window.
    return 2 * system.cells[0].interval.hi + 2 * GRID


def _mapping_verdict(system: RandomSystem, claim: Interval) -> Tuple[bool, bool]:
    from repro.core.checker import check_mapping_exhaustive
    from repro.core.mappings import InequalityMapping
    from repro.core.time_automaton import time_of_boundmap, time_of_conditions

    algorithm = time_of_boundmap(system.timed)
    requirements = time_of_conditions(
        system.timed.automaton, [_gap_condition(claim)], name="fuzz-claim"
    )
    mapping = InequalityMapping(algorithm, requirements, ())
    outcome = check_mapping_exhaustive(
        mapping, grid=GRID, horizon=_horizon(system)
    )
    return outcome.ok, False


def _semantic_verdict(system: RandomSystem, claim: Interval) -> Tuple[bool, bool]:
    from repro.core.inclusion import check_semantic_inclusion
    from repro.core.time_automaton import time_of_boundmap

    outcome = check_semantic_inclusion(
        time_of_boundmap(system.timed),
        [_gap_condition(claim)],
        grid=GRID,
        horizon=_horizon(system),
        max_executions=_MAX_EXECUTIONS,
    )
    # A truncated clean sweep is indeterminate; a violation is exact.
    return outcome.ok, outcome.ok and outcome.truncated

def _zone_verdict(system: RandomSystem, claim: Interval) -> Tuple[bool, bool]:
    from repro.zones.verify import verify_event_condition

    report = verify_event_condition(
        system.timed, INC(0), INC(0), claim, occurrences=2, max_nodes=40_000
    )
    return report.verdict.holds, False


def _symbolic_verdict(system: RandomSystem, claim: Interval) -> Tuple[bool, bool]:
    """FM feasibility of a violating gap: the anchor window [a1, a2] is
    exactly attainable, so the claim fails iff some gap in the window
    falls strictly outside the claim."""
    from repro.analyze.constraints import ge, gt, le, lt, var
    from repro.analyze.fourier_motzkin import decide

    anchor = system.cells[0].interval
    gap = var("gap")
    window = [ge(gap, anchor.lo), le(gap, anchor.hi)]
    below = decide(window + [lt(gap, claim.lo)])
    above = decide(window + [gt(gap, claim.hi)])
    return not (below.feasible or above.feasible), False


def _lint_errors(system: RandomSystem) -> List[str]:
    from repro.lint.driver import lint_system
    from repro.lint.targets import SystemTarget

    report = lint_system(
        SystemTarget(
            name="fuzz-instance",
            timed_automata=(("fuzz/(A,b)", system.timed),),
            waivers=(("R005", "'INC_"),),
        )
    )
    return [d.render() for d in report.errors]


# ----------------------------------------------------------------------
# Instance and campaign results
# ----------------------------------------------------------------------


@dataclass
class FuzzInstance:
    """One fuzzed instance's differential verdicts."""

    index: int
    seed: int
    recipe: Dict[str, Any]
    expected: bool
    verdicts: Dict[str, bool]
    #: Legs whose clean answer is budget-truncated, hence indeterminate.
    truncated: Tuple[str, ...] = ()
    lint_errors: Tuple[str, ...] = ()

    @property
    def determinate(self) -> Dict[str, bool]:
        return {
            leg: verdict
            for leg, verdict in self.verdicts.items()
            if leg not in self.truncated
        }

    @property
    def agree(self) -> bool:
        """No engine split, and no determinate verdict against the
        constructed ground truth (and the instance self-linted clean)."""
        if self.lint_errors:
            return False
        return all(v == self.expected for v in self.determinate.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gen_version": GEN_VERSION,
            "index": self.index,
            "seed": self.seed,
            "recipe": self.recipe,
            "expected": self.expected,
            "verdicts": dict(sorted(self.verdicts.items())),
            "truncated": sorted(self.truncated),
            "lint_errors": list(self.lint_errors),
            "agree": self.agree,
        }


@dataclass
class FuzzReport:
    """A campaign's outcome: instance count, disagreements, truncation
    accounting.  ``detail`` is deterministic (no wall times) so two
    identically-seeded campaigns render identically."""

    seed: int
    start: int
    count: int
    instances: List[FuzzInstance] = field(default_factory=list)

    @property
    def disagreements(self) -> List[FuzzInstance]:
        return [inst for inst in self.instances if not inst.agree]

    @property
    def truncated_legs(self) -> int:
        return sum(len(inst.truncated) for inst in self.instances)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def detail(self) -> str:
        return (
            "{} instances (seed {}, start {}): {} disagreement(s), "
            "{} truncated leg(s)".format(
                len(self.instances),
                self.seed,
                self.start,
                len(self.disagreements),
                self.truncated_legs,
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "gen_version": GEN_VERSION,
            "seed": self.seed,
            "start": self.start,
            "count": self.count,
            "ok": self.ok,
            "detail": self.detail,
            "truncated_legs": self.truncated_legs,
            "disagreements": [inst.to_dict() for inst in self.disagreements],
        }


def _instance_rng(seed: int, index: int) -> random.Random:
    # One independent stream per (campaign seed, instance index): the
    # multiplier keeps neighbouring campaigns' streams disjoint.
    return random.Random(seed * 1_000_003 + index)


def check_recipe(
    recipe: Dict[str, Any], index: int = 0, seed: int = 0
) -> FuzzInstance:
    """Run the full differential oracle over one recipe."""
    system, claim, expected = build_instance(recipe)
    lint_errors = tuple(_lint_errors(system))
    verdicts: Dict[str, bool] = {}
    truncated: List[str] = []
    legs = [
        ("mapping", _mapping_verdict),
        ("semantic", _semantic_verdict),
        ("zones", _zone_verdict),
        ("symbolic", _symbolic_verdict),
    ]
    for leg, decide_leg in legs:
        verdict, was_truncated = decide_leg(system, claim)
        verdicts[leg] = verdict
        if was_truncated:
            truncated.append(leg)
    return FuzzInstance(
        index=index,
        seed=seed,
        recipe=recipe,
        expected=expected,
        verdicts=verdicts,
        truncated=tuple(truncated),
        lint_errors=lint_errors,
    )


def run_campaign(
    count: int,
    seed: int = 0,
    start: int = 0,
    artifact_dir: Optional[str] = None,
) -> FuzzReport:
    """Fuzz ``count`` instances with indices ``start .. start+count-1``.

    Sharding a campaign means splitting the index range over several
    calls with the same ``seed``; the union is instance-for-instance
    identical to one big call.  On any disagreement a reproducer is
    written to ``artifact_dir`` (if given) before the report returns.
    """
    if count <= 0:
        raise ReproError("fuzz campaign needs a positive instance count")
    report = FuzzReport(seed=seed, start=start, count=count)
    for index in range(start, start + count):
        recipe = sample_recipe(_instance_rng(seed, index))
        instance = check_recipe(recipe, index=index, seed=seed)
        report.instances.append(instance)
        if not instance.agree and artifact_dir is not None:
            write_reproducer(instance, artifact_dir)
    return report


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------


def write_reproducer(instance: FuzzInstance, artifact_dir: str) -> str:
    """Serialise a disagreeing instance; returns the file path."""
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(
        artifact_dir,
        "fuzz-repro-seed{}-idx{}.json".format(instance.seed, instance.index),
    )
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_reproducer(path: str) -> FuzzInstance:
    """Re-run the oracle on a serialized reproducer — deterministic, so
    the disagreement (if still present) replays exactly."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("gen_version") != GEN_VERSION:
        raise ReproError(
            "reproducer {} was written by gen version {}, this is {}".format(
                path, payload.get("gen_version"), GEN_VERSION
            )
        )
    return check_recipe(
        payload["recipe"],
        index=payload.get("index", 0),
        seed=payload.get("seed", 0),
    )
