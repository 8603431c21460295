"""Maximal-zone subsumption against the equality-only zone graph.

The zone graph keeps, per discrete state, only the zones no other kept
zone includes.  Monkeypatching ``includes`` to plain equality on both
engines gives back the search that deduplicates on exact zone keys
alone; it is the oracle here, not a user option.  Every test runs one
workload both ways and asserts identical answers — separation bounds
with their strictness flags, watched states, verdicts — while the
subsumption search admits no more nodes than the oracle.
"""

from fractions import Fraction as F

import pytest

from repro.gen import build_bundle
from repro.gen.fuzzer import _instance_rng, build_instance, sample_recipe
from repro.systems import GRANT, SIGNAL
from repro.systems.extensions import (
    ENTER,
    EXIT,
    FischerParams,
    PetersonParams,
    fischer_system,
    mutual_exclusion_violated,
    peterson_system,
)
from repro.systems.extensions import peterson
from repro.testkit import INC
from repro.timed.interval import Interval
from repro.zones.analysis import event_separation_bounds, search_reachable_state
from repro.zones.dbm import DBM
from repro.zones.dbm_reference import ReferenceDBM
from repro.zones.verify import verify_event_condition
from repro.zones.zone_graph import Observer, explore_zone_graph
from tests.zones.test_zone_equivalence import _SYSTEMS


def _equality(self, other):
    return self == other


def _both_ways(monkeypatch, run):
    """``(run() with subsumption, run() on the equality-only oracle)``."""
    maximal = run()
    with monkeypatch.context() as patch:
        patch.setattr(DBM, "includes", _equality)
        patch.setattr(ReferenceDBM, "includes", _equality)
        exact = run()
    return maximal, exact


def _bounds(sep):
    return (sep.lo, sep.hi, sep.lo_strict, sep.hi_strict)


def _fewer_nodes(maximal, exact):
    assert maximal.nodes <= exact.nodes
    assert maximal.transitions <= exact.transitions


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_reachable_states_match_oracle(name, monkeypatch):
    """The zone_equivalence workloads reach the same discrete states."""
    timed = _SYSTEMS[name]()
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: explore_zone_graph(timed, max_nodes=50_000, watch=lambda s: True),
    )
    assert not maximal.truncated and not exact.truncated
    assert set(maximal.watched) == set(exact.watched)
    _fewer_nodes(maximal, exact)


@pytest.mark.parametrize(
    "engine,n", [(DBM, 3), (ReferenceDBM, 2)], ids=["flat", "reference"]
)
def test_firing_records_match_oracle(engine, n, monkeypatch):
    """Covered zones fire inside their covers: every firing record,
    strictness included, survives subsumption on both engines."""
    timed = build_bundle("gen:fischer-{}".format(n)).timed()
    procs = range(1, n + 1)
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: explore_zone_graph(
            timed,
            observers=[Observer("since-exit", frozenset(EXIT(i) for i in procs))],
            counted_groups={"enter": (frozenset(ENTER(i) for i in procs), 2)},
            max_nodes=50_000,
            dbm_cls=engine,
        ),
    )
    assert set(exact.firings) == {("enter", 1), ("enter", 2)}
    assert maximal.firings.keys() == exact.firings.keys()
    for key, record in exact.firings.items():
        assert maximal.firings[key].lower == record.lower
        assert maximal.firings[key].upper == record.upper
    _fewer_nodes(maximal, exact)


@pytest.mark.parametrize(
    "name,query",
    [
        ("rm", lambda t: event_separation_bounds(t, GRANT)),
        ("rm", lambda t: event_separation_bounds(t, GRANT, occurrence=2, reset_on=[GRANT])),
        ("relay", lambda t: event_separation_bounds(t, SIGNAL(3), reset_on=[SIGNAL(0)])),
    ],
)
def test_separation_bounds_match_oracle(name, query, monkeypatch):
    timed = _SYSTEMS[name]()
    maximal, exact = _both_ways(monkeypatch, lambda: query(timed))
    assert _bounds(maximal) == _bounds(exact)
    _fewer_nodes(maximal, exact)


@pytest.mark.parametrize(
    "name,trigger,target,claimed",
    [
        ("rm", GRANT, GRANT, Interval(F(5), F(10))),
        ("rm", GRANT, GRANT, Interval(F(6), F(9))),
        ("relay", SIGNAL(0), SIGNAL(3), Interval(F(3), F(6))),
        ("relay", SIGNAL(0), SIGNAL(3), Interval(F(4), F(6))),
    ],
)
def test_verdicts_match_oracle(name, trigger, target, claimed, monkeypatch):
    timed = _SYSTEMS[name]()
    maximal, exact = _both_ways(
        monkeypatch, lambda: verify_event_condition(timed, trigger, target, claimed)
    )
    assert maximal.verdict == exact.verdict
    assert _bounds(maximal.exact) == _bounds(exact.exact)
    _fewer_nodes(maximal.exact, exact.exact)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fischer_safety_matches_oracle(n, monkeypatch):
    timed = build_bundle("gen:fischer-{}".format(n)).timed()
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: search_reachable_state(
            timed, mutual_exclusion_violated, max_nodes=400_000
        ),
    )
    assert maximal.state is None and exact.state is None
    assert maximal.conclusive and exact.conclusive
    assert maximal.nodes <= exact.nodes
    if n == 4:  # 2 805 zones without subsumption
        assert maximal.nodes <= 1_400


def test_fischer_tight_counterexample_matches_oracle(monkeypatch):
    """Every mutual-exclusion violation of the a = b variant survives."""
    timed = fischer_system(FischerParams(n=2, a=F(1), b=F(1)))
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: explore_zone_graph(
            timed, watch=mutual_exclusion_violated, max_nodes=50_000
        ),
    )
    assert exact.watched
    assert set(maximal.watched) == set(exact.watched)
    _fewer_nodes(maximal, exact)
    found, oracle = _both_ways(
        monkeypatch,
        lambda: search_reachable_state(timed, mutual_exclusion_violated),
    )
    assert found and oracle


@pytest.mark.parametrize("occurrence,reset_on", [(1, ()), (2, ()), (2, "exit")])
def test_peterson_entries_match_oracle(occurrence, reset_on, monkeypatch):
    params = PetersonParams(s1=F(1), s2=F(2), e=F(1))
    timed = peterson_system(params)
    resets = {peterson.EXIT(1), peterson.EXIT(2)} if reset_on else ()
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: event_separation_bounds(
            timed,
            {peterson.ENTER(1), peterson.ENTER(2)},
            occurrence=occurrence,
            reset_on=resets,
            max_nodes=400_000,
        ),
    )
    assert _bounds(maximal) == _bounds(exact)
    _fewer_nodes(maximal, exact)


@pytest.mark.parametrize("index", range(10))
def test_fuzz_pool_zone_leg_matches_oracle(index, monkeypatch):
    """The fuzzer's zone leg on the first ten recipes of campaign 0."""
    system, claim, _expected = build_instance(sample_recipe(_instance_rng(0, index)))
    maximal, exact = _both_ways(
        monkeypatch,
        lambda: verify_event_condition(
            system.timed, INC(0), INC(0), claim, occurrences=2, max_nodes=40_000
        ),
    )
    assert maximal.verdict == exact.verdict
    assert _bounds(maximal.exact) == _bounds(exact.exact)
    _fewer_nodes(maximal.exact, exact.exact)
