"""The mappings as linear data, held to the predicates they replace.

The reference predicates below are the hand-written closures the
mappings used to be.  On every ``(target, source)`` pair the exhaustive
checker evaluates, the predicate derived from each declaration must
agree with its reference; and the obligation compiler must never prove
a mutated mapping that the grid or run checker refutes.
"""

import math
import random
from fractions import Fraction as F

import pytest

from repro.analyze.compiler import mapping_obligations
from repro.analyze.obligations import Verdict
from repro.core.checker import (
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
)
from repro.core.mappings import (
    InequalityMapping,
    Ineq,
    MappingChain,
    ProjectionMapping,
    StrongPossibilitiesMapping,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.core.time_automaton import time_of_conditions
from repro.faults.checks import slack_refinement_mapping
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy
from repro.surface import bundle, mapping_specs
from repro.systems.extensions.chain import ChainSystem, event_class_name
from repro.systems.signal_relay import entry_mapping, exit_mapping, level_mapping
from repro.systems.mappings_rm import resource_manager_mapping_over
from repro.systems.resource_manager import GRANT, grant_conditions, timer_of
from repro.systems.signal_relay import flags_of, signal_class_name
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval


# ----------------------------------------------------------------------
# Reference predicates: the closures the declarations replace
# ----------------------------------------------------------------------


def rm_reference(algorithm, requirements, params, lt_slack=0):
    c1, c2, l = params.c1, params.c2, params.l

    def predicate(u, s):
        min_lt = min(requirements.lt(u, "G1"), requirements.lt(u, "G2"))
        max_ft = max(requirements.ft(u, "G1"), requirements.ft(u, "G2"))
        timer = timer_of(s.astate)
        if timer > 0:
            need_lt = algorithm.lt(s, "TICK") + (timer - 1) * c2 + l + lt_slack
            need_ft = algorithm.ft(s, "TICK") + (timer - 1) * c1
        else:
            need_lt = algorithm.lt(s, "LOCAL")
            need_ft = s.now
        return min_lt >= need_lt and max_ft <= need_ft

    return predicate


def level_reference(source, target, k, n, class_name, remaining, lt_slack=0):
    source_u, target_u = "U[{},{}]".format(k, n), "U[{},{}]".format(k - 1, n)
    shared = [class_name(j) for j in range(k)] + ["NULL"]

    def predicate(u, s):
        for name in shared:
            if u.preds[target.index_of(name)] != s.preds[source.index_of(name)]:
                return False
        flags = flags_of(s.astate)
        if any(flags[i] for i in range(k + 1, n + 1)):
            need_lt, need_ft = source.lt(s, source_u), source.ft(s, source_u)
        elif flags[k]:
            need_lt = source.lt(s, class_name(k)) + remaining.hi + lt_slack
            need_ft = source.ft(s, class_name(k)) + remaining.lo
        else:
            need_lt, need_ft = math.inf, 0
        return target.lt(u, target_u) >= need_lt and target.ft(u, target_u) <= need_ft

    return predicate


def slack_reference(source, target, pairs):
    def predicate(u, s):
        for source_name, target_name in pairs:
            if target.lt(u, target_name) < source.lt(s, source_name):
                return False
            if target.ft(u, target_name) > source.ft(s, source_name):
                return False
        return True

    return predicate


class Oracle(StrongPossibilitiesMapping):
    """A declared mapping that, on every pair it is asked about, also
    asks the reference predicate and records any disagreement."""

    def __init__(self, declared, reference):
        super().__init__(declared.source, declared.target, name=declared.name)
        self.declared = declared
        self.reference = reference
        self.pairs = 0
        self.disagreements = []

    def image_contains(self, target_state, source_state):
        verdict = self.declared.image_contains(target_state, source_state)
        self.pairs += 1
        if verdict != bool(self.reference(target_state, source_state)):
            self.disagreements.append((target_state, source_state))
        return verdict


def _level_of(mapping):
    """``k`` of a level mapping named ``f_k: …``."""
    return int(mapping.name.split(":")[0][2:])


# ----------------------------------------------------------------------
# Predicate parity on the exhaustive sweeps, with their pinned step counts
# ----------------------------------------------------------------------


def test_rm_declaration_matches_reference_on_every_pair():
    ((_label, mapping, _grid, _horizon),) = mapping_specs("rm")
    params = bundle("rm").system().params
    oracle = Oracle(mapping, rm_reference(mapping.source, mapping.target, params))
    outcome = check_mapping_exhaustive(oracle, grid=F(1, 4), horizon=F(9))
    assert (outcome.ok, outcome.steps_checked) == (True, 3540)
    assert oracle.pairs > 3540
    assert oracle.disagreements == []


def test_relay_line_3_declarations_match_reference_on_every_pair():
    steps = []
    checked = 0
    for _label, mapping, grid, horizon in mapping_specs("gen:relay_line-3"):
        if not isinstance(mapping, ProjectionMapping):
            k = _level_of(mapping)
            mapping = Oracle(
                mapping,
                level_reference(
                    mapping.source,
                    mapping.target,
                    k,
                    3,
                    signal_class_name,
                    Interval(3 - k, 2 * (3 - k)),
                ),
            )
        outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
        steps.append((outcome.ok, outcome.steps_checked))
        if isinstance(mapping, Oracle):
            checked += mapping.pairs
            assert mapping.disagreements == []
    assert steps == [(True, 559), (True, 709), (True, 1690), (True, 1608)]
    assert checked > 0


def test_chain_declaration_matches_reference_on_every_pair():
    system = ChainSystem([Interval(1, 2), Interval(2, 3), Interval(1, 1)])
    # Stages k+1 .. 3 take [2, 3] + [1, 1] after EVENT_1, [1, 1] after EVENT_2.
    for k, remaining in ((1, Interval(3, 4)), (2, Interval(1, 1))):
        mapping = system.level_mapping(k)
        oracle = Oracle(
            mapping,
            level_reference(
                mapping.source, mapping.target, k, system.n, event_class_name, remaining
            ),
        )
        outcome = check_mapping_exhaustive(oracle, grid=F(1, 2), horizon=F(7))
        assert outcome.ok, outcome.detail
        assert oracle.pairs > 0 and oracle.disagreements == []


def test_slack_declaration_matches_reference_on_runs():
    system = ChainSystem([Interval(1, 2)] * 2)
    loose = ChainSystem([Interval(F(1, 2), F(5, 2))] * 2)
    mapping = slack_refinement_mapping(system.requirements, loose.requirements)
    pairs = [(c.name, c.name) for c in system.requirements.conditions]
    oracle = Oracle(mapping, slack_reference(mapping.source, mapping.target, pairs))
    chain = MappingChain(list(system.hierarchy()) + [oracle])
    for seed in range(4):
        run = Simulator(system.algorithm, ExtremalStrategy(random.Random(seed))).run(
            max_steps=40
        )
        assert check_chain_on_run(chain, run).ok
    assert oracle.pairs > 0 and oracle.disagreements == []


# ----------------------------------------------------------------------
# Soundness: the compiler never proves a mutated mapping
# ----------------------------------------------------------------------


def _verdicts(mapping):
    return {
        o.obligation.split("/")[-1]: o.verdict
        for o in mapping_obligations("mutant", [("m", mapping)], "", 4_000)
    }


def _refuted_on_runs(algorithm, mapping, seeds=range(20)):
    for seed in seeds:
        run = Simulator(algorithm, ExtremalStrategy(random.Random(seed))).run(max_steps=200)
        if not check_mapping_on_run(mapping, run).ok:
            return True
    return False


def _requirements(system, g1=None, g2=None):
    first, gap = grant_conditions(system.params)
    if g1 is not None:
        first = TimingCondition.from_start("G1", g1, [GRANT])
    if g2 is not None:
        gap = TimingCondition.after_action("G2", g2, GRANT, [GRANT])
    return time_of_conditions(system.timed.automaton, [first, gap], name="B-mutated")


def test_rm_declaration_itself_is_proved(rm_system):
    mapping = resource_manager_mapping_over(
        rm_system.algorithm, rm_system.requirements, rm_system.params
    )
    assert set(_verdicts(mapping).values()) == {Verdict.PROVED}


@pytest.mark.parametrize(
    "g1,g2",
    [
        (lambda p: Interval(p.k * p.c1, p.k * p.c2), None),  # G1 upper misses +l
        (lambda p: Interval(p.k * p.c1 + 1, p.k * p.c2 + p.l), None),
        (None, lambda p: Interval(p.k * p.c1, p.k * p.c2)),  # G2 lower misses -l
    ],
)
def test_rm_wrong_requirements_never_proved(rm_system, g1, g2):
    params = rm_system.params
    bad = _requirements(
        rm_system,
        g1=None if g1 is None else g1(params),
        g2=None if g2 is None else g2(params),
    )
    mapping = resource_manager_mapping_over(rm_system.algorithm, bad, params)
    assert Verdict.PROVED in _verdicts(mapping).values()  # identity still holds
    assert set(_verdicts(mapping).values()) != {Verdict.PROVED}
    assert _refuted_on_runs(rm_system.algorithm, mapping)


def test_rm_lt_bound_plus_one_never_proved(rm_system):
    # Section 4.3's Lt inequality with "+ l + 1": it demands more than
    # any requirement prediction can give.
    params = rm_system.params
    c2, l = params.c2, params.l
    cases = {
        timer: [
            Ineq(target_lt(grant), ">=", source_lt("TICK") + ((timer - 1) * c2 + l + 1))
            for grant in ("G1", "G2")
        ]
        for timer in range(1, params.k + 1)
    }
    cases[0] = [Ineq(target_lt(g), ">=", source_lt("LOCAL")) for g in ("G1", "G2")]
    mapping = InequalityMapping(
        rm_system.algorithm,
        rm_system.requirements,
        cases,
        case_of=timer_of,
        name="too strong",
    )
    verdicts = _verdicts(mapping)
    assert verdicts["steps"] is not Verdict.PROVED
    assert verdicts["initial"] is Verdict.REFUTED
    assert _refuted_on_runs(rm_system.algorithm, mapping)
    outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(6))
    assert not outcome.ok


def test_relay_f1_plus_one_never_proved(relay_system):
    n = relay_system.params.n
    good = level_mapping(relay_system, 1)
    source, target = good.source, good.target
    cases = dict(good.cases)
    cases["B"] = cases["B"][:-2] + (
        Ineq(
            target_lt("U[0,{}]".format(n)),
            ">=",
            source_lt(signal_class_name(1)) + relay_system.params.hop_interval(1).hi + 1,
        ),
        Ineq(
            target_ft("U[0,{}]".format(n)),
            "<=",
            source_ft(signal_class_name(1)) + relay_system.params.hop_interval(1).lo,
        ),
    )
    bad = InequalityMapping(source, target, cases, case_of=good.case_of, name="broken f_1")
    verdicts = _verdicts(bad)
    assert verdicts["steps"] is not Verdict.PROVED
    assert _verdicts(good)["steps"] is Verdict.PROVED
    chain = MappingChain(
        [entry_mapping(relay_system)]
        + [level_mapping(relay_system, j) if j != 1 else bad for j in range(n - 1, 0, -1)]
        + [exit_mapping(relay_system)]
    )
    refuted = False
    for seed in range(20):
        run = Simulator(relay_system.algorithm, ExtremalStrategy(random.Random(seed))).run(
            max_steps=80
        )
        if not check_chain_on_run(chain, run).ok:
            refuted = True
            break
    assert refuted


def test_lemma_41_is_needed_from_the_zone_graph(rm_system):
    # Without the zone graph the source's reachable A-states are those
    # of the untimed sweep, which never ends (TIMER counts down past 0):
    # the compiler gives up instead of proving.
    mapping = resource_manager_mapping_over(
        rm_system.algorithm, rm_system.requirements, rm_system.params
    )
    rm_system.algorithm.timed = None
    try:
        assert _verdicts(mapping)["steps"] is Verdict.UNKNOWN
    finally:
        rm_system.algorithm.timed = rm_system.timed
