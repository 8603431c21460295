"""Old-vs-new zone-engine differential suite (``-m zone_equivalence``).

Every test replays the same workload through the flat encoded-integer
engine (:class:`repro.zones.dbm.DBM`) and the retired object-based
oracle (:class:`repro.zones.dbm_reference.ReferenceDBM`) and asserts
the *observable* results are identical: reachable-node and transition
counts (canonical-form uniqueness makes zone dedup, and cellwise
inclusion makes maximal-zone subsumption, representation-independent),
firing-record bounds, separation bounds, verdicts, and
safety counterexamples.  CI runs the suite as its own step and
surfaces the timing of both engines.
"""

from fractions import Fraction as F

import pytest

from repro.gen import build_bundle
from repro.systems import (
    GRANT,
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
    SIGNAL,
)
from repro.systems.extensions import (
    FischerParams,
    fischer_system,
    mutual_exclusion_violated,
)
from repro.timed.interval import Interval
from repro.zones import analysis as _analysis
from repro.zones.analysis import (
    absolute_event_bounds,
    event_separation_bounds,
    search_reachable_state,
)
from repro.zones.dbm_reference import ReferenceDBM
from repro.zones.verify import verify_event_condition
from repro.zones.zone_graph import explore_zone_graph

pytestmark = pytest.mark.zone_equivalence


def _rm():
    return ResourceManagerSystem(
        ResourceManagerParams(k=3, c1=F(2), c2=F(3), l=F(1))
    ).timed


def _relay():
    return RelaySystem(RelayParams(n=3, d1=F(1), d2=F(2))).timed


_SYSTEMS = {
    "rm": _rm,
    "relay": _relay,
    "fischer-safe": lambda: fischer_system(FischerParams(n=2, a=F(1), b=F(2))),
    "fischer-unsafe": lambda: fischer_system(FischerParams(n=2, a=F(2), b=F(1))),
    "gen:fischer-2": lambda: build_bundle("gen:fischer-2").timed(),
    "gen:fischer-3": lambda: build_bundle("gen:fischer-3").timed(),
    "gen:relay_line-4": lambda: build_bundle("gen:relay_line-4").timed(),
    "gen:relay_ring-4": lambda: build_bundle("gen:relay_ring-4").timed(),
    "gen:relay_tree-2x2": lambda: build_bundle("gen:relay_tree-2x2").timed(),
    "gen:tournament-2": lambda: build_bundle("gen:tournament-2").timed(),
}


def _firing_payload(result):
    return {
        key: (record.lower, record.upper, record.count)
        for key, record in result.firings.items()
    }


def _route_through_reference(monkeypatch):
    """Route the whole analysis layer through the reference DBM (call
    mid-test, *after* the flat-engine measurement)."""
    original = _analysis.explore_zone_graph

    def with_reference(*args, **kwargs):
        kwargs.setdefault("dbm_cls", ReferenceDBM)
        return original(*args, **kwargs)

    monkeypatch.setattr(_analysis, "explore_zone_graph", with_reference)


@pytest.mark.parametrize("name", sorted(_SYSTEMS))
def test_graphs_identical(name):
    """Node/transition counts and every firing record agree — the flat
    engine's canonical keys induce exactly the old dedup."""
    timed = _SYSTEMS[name]()
    flat = explore_zone_graph(timed, max_nodes=50_000)
    reference = explore_zone_graph(timed, max_nodes=50_000, dbm_cls=ReferenceDBM)
    assert flat.nodes == reference.nodes
    assert flat.transitions == reference.transitions
    assert flat.truncated == reference.truncated
    assert _firing_payload(flat) == _firing_payload(reference)


@pytest.mark.parametrize(
    "name,query",
    [
        ("rm", lambda t: absolute_event_bounds(t, GRANT)),
        (
            "rm",
            lambda t: event_separation_bounds(
                t, GRANT, occurrence=2, reset_on=[GRANT]
            ),
        ),
        (
            "relay",
            lambda t: event_separation_bounds(
                t, SIGNAL(3), occurrence=1, reset_on=[SIGNAL(0)]
            ),
        ),
    ],
)
def test_separation_bounds_identical(name, query, monkeypatch):
    timed = _SYSTEMS[name]()
    want = query(timed)
    _route_through_reference(monkeypatch)
    got = query(timed)  # this call runs on ReferenceDBM
    assert (got.lo, got.hi, got.lo_strict, got.hi_strict) == (
        want.lo,
        want.hi,
        want.lo_strict,
        want.hi_strict,
    )
    assert (got.nodes, got.transitions) == (want.nodes, want.transitions)


@pytest.mark.parametrize(
    "name,trigger,target,claimed",
    [
        ("rm", GRANT, GRANT, Interval(F(5), F(10))),
        ("rm", GRANT, GRANT, Interval(F(6), F(9))),
        ("relay", SIGNAL(0), SIGNAL(3), Interval(F(3), F(6))),
        ("relay", SIGNAL(0), SIGNAL(3), Interval(F(4), F(6))),
    ],
)
def test_verdicts_identical(name, trigger, target, claimed, monkeypatch):
    """Verification verdicts — including refutations with their exact
    counterexample bounds — are engine-independent."""
    timed = _SYSTEMS[name]()
    flat = verify_event_condition(timed, trigger, target, claimed)
    _route_through_reference(monkeypatch)
    reference = verify_event_condition(timed, trigger, target, claimed)
    assert flat.verdict == reference.verdict
    if flat.exact is None:
        assert reference.exact is None
    else:
        assert (flat.exact.lo, flat.exact.hi) == (
            reference.exact.lo,
            reference.exact.hi,
        )


@pytest.mark.parametrize(
    "params,expect_violation",
    [
        (FischerParams(n=2, a=F(1), b=F(2)), False),
        (FischerParams(n=2, a=F(2), b=F(1)), True),
        (FischerParams(n=2, a=F(3), b=F(2), e=F(1)), False),
    ],
)
def test_safety_counterexamples_identical(params, expect_violation, monkeypatch):
    """Reachability of mutual-exclusion violations — and the *witness
    state itself* — match between engines (BFS order is preserved)."""
    timed = fischer_system(params)
    flat = search_reachable_state(
        timed, mutual_exclusion_violated, max_nodes=300_000
    )
    _route_through_reference(monkeypatch)
    reference = search_reachable_state(
        timed, mutual_exclusion_violated, max_nodes=300_000
    )
    assert bool(flat) == bool(reference) == expect_violation
    assert flat.state == reference.state
    assert flat.nodes == reference.nodes
