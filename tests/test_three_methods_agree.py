"""Capstone integration: three independent verdicts must coincide.

For a family of claims about the pulse system's fire-to-fire gap
(true bound [1, 7]), each claim is decided three ways:

1. **mapping method** (the paper): exhaustive grid check of a
   possibilities mapping into the claim's requirements automaton;
2. **semantic enumeration**: all grid executions tested directly
   against the claim (Theorem 3.4's conclusion, no mapping);
3. **zone analysis**: exact continuous-time separation bounds compared
   with the claim.

Any disagreement would mean one of the three engines misreads the
semantics; their joint agreement across sound, tight and violated
claims is the strongest internal-consistency evidence in the suite.
"""

from fractions import Fraction as F

import pytest

from repro.core.checker import check_mapping_exhaustive
from repro.core.inclusion import check_semantic_inclusion
from repro.core.mappings import InequalityMapping
from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.zones.verify import verify_event_condition

from tests.timed.test_conditions import pulse_timed

#: (claimed interval, expected to hold) — the true gap interval is [1, 7].
CLAIMS = [
    (Interval(1, 7), True),   # exactly right
    (Interval(0, 8), True),   # sound with slack
    (Interval(1, 6), False),  # upper too tight
    (Interval(F(3, 2), 7), False),  # lower too high
    (Interval(1, 100), True),
    (Interval(2, 6), False),
]


def mapping_verdict(timed, claim: Interval) -> bool:
    algorithm = time_of_boundmap(timed)
    gap = TimingCondition.after_action("GAP", claim, "fire", {"fire"})
    requirements = time_of_conditions(timed.automaton, [gap], name="claim")
    mapping = InequalityMapping(algorithm, requirements, ())
    return check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(12)).ok


def semantic_verdict(timed, claim: Interval) -> bool:
    algorithm = time_of_boundmap(timed)
    gap = TimingCondition.after_action("GAP", claim, "fire", {"fire"})
    outcome = check_semantic_inclusion(
        algorithm, [gap], grid=F(1, 2), horizon=F(12), max_executions=60_000
    )
    assert not outcome.truncated, "a truncated clean sweep decides nothing"
    return outcome.ok


def zone_verdict(timed, claim: Interval) -> bool:
    return verify_event_condition(
        timed, "fire", "fire", claim, occurrences=2
    ).verdict.holds


@pytest.mark.parametrize("claim,expected", CLAIMS)
def test_three_methods_agree(claim, expected):
    timed = pulse_timed()
    verdicts = {
        "mapping": mapping_verdict(timed, claim),
        "semantic": semantic_verdict(timed, claim),
        "zones": zone_verdict(timed, claim),
    }
    assert all(v == expected for v in verdicts.values()), (
        "claim {!r}: expected {} but verdicts are {}".format(claim, expected, verdicts)
    )
