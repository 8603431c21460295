"""Static verdicts must agree with the exploratory checker.

Every PROVED/REFUTED obligation is cross-examined against the dynamic
machinery it replaces: exhaustive mapping checks for the mapping-bearing
systems, zone reachability for the mutual-exclusion protocols.
"""

import time
from fractions import Fraction as F

import pytest

from repro.analyze import Verdict, discharge_system


def _mapping_verdict_static(name):
    results = discharge_system(name)
    assert all(o.verdict is Verdict.PROVED for o in results)
    return True


@pytest.mark.parametrize("name", ["rm", "relay", "chain"])
def test_static_proofs_match_exhaustive_checks(name):
    from repro.core.checker import check_mapping_exhaustive
    from repro.surface import mapping_specs

    static_ok = _mapping_verdict_static(name)
    for label, mapping, grid, horizon in mapping_specs(name):
        # A coarse grid keeps this cheap; agreement is on the verdict.
        outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
        assert outcome.ok == static_ok, label


#: Reference exploratory legs: rm sweeps a fine grid (its surface grid
#: is a coarse smoke); relay's surface spec is already representative.
_REFERENCE_GRID = {"rm": (F(1, 4), F(14))}


@pytest.mark.parametrize("name", ["rm", "relay"])
def test_static_discharge_agrees_and_beats_exhaustive_check(name):
    """Theorems 4.4 (rm) and 6.4 (relay): the Fourier–Motzkin discharge
    proves the mapping iff the exhaustive Definition 3.2 sweep accepts
    it, and costs at least 5x less (static time is the best of 3)."""
    from repro.core.checker import check_mapping_exhaustive
    from repro.surface import bundle, mapping_specs

    static_wall = float("inf")
    for _attempt in range(3):
        # The bundle's factory, not its memo: each attempt discharges.
        start = time.perf_counter()
        obligations = bundle(name).obligations_factory()
        static_wall = min(static_wall, time.perf_counter() - start)
    static_ok = all(o.verdict is Verdict.PROVED for o in obligations)

    start = time.perf_counter()
    explored_ok = True
    for _label, mapping, grid, horizon in mapping_specs(name):
        grid, horizon = _REFERENCE_GRID.get(name, (grid, horizon))
        outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
        explored_ok = explored_ok and outcome.ok
    explore_wall = time.perf_counter() - start

    assert static_ok == explored_ok, "static and exhaustive verdicts disagree"
    assert static_ok
    speedup = explore_wall / static_wall
    assert speedup >= 5.0, "{}: static only {:.1f}x faster".format(name, speedup)


def test_fischer_static_agrees_with_zone_search():
    from repro.systems.extensions import (
        FischerParams,
        fischer_system,
        mutual_exclusion_violated,
    )
    from repro.zones.analysis import search_reachable_state

    (static,) = discharge_system("fischer")
    timed = fischer_system(FischerParams(n=2, a=F(1), b=F(2)))
    search = search_reachable_state(
        timed, mutual_exclusion_violated, max_nodes=400_000
    )
    assert static.verdict is Verdict.PROVED
    assert search.state is None  # exploration agrees: no violation


def test_fischer_tight_static_agrees_with_zone_search():
    from repro.systems.extensions import (
        FischerParams,
        fischer_system,
        mutual_exclusion_violated,
    )
    from repro.zones.analysis import search_reachable_state

    (static,) = discharge_system("fischer-tight")
    timed = fischer_system(FischerParams(n=2, a=F(1), b=F(1)))
    search = search_reachable_state(
        timed, mutual_exclusion_violated, max_nodes=400_000
    )
    assert static.verdict is Verdict.REFUTED
    assert search.state is not None  # exploration finds the race too


def test_peterson_static_agrees_with_zone_bounds():
    from repro.systems.extensions import PetersonParams, peterson_system
    from repro.systems.extensions.peterson import ENTER
    from repro.zones.analysis import event_separation_bounds

    (static,) = discharge_system("peterson")
    assert static.verdict is Verdict.PROVED
    params = PetersonParams(s1=F(1), s2=F(2))
    bounds = event_separation_bounds(
        peterson_system(params), {ENTER(1), ENTER(2)}, occurrence=1,
        max_nodes=400_000,
    )
    # The closed form the static pass certified is the zone answer.
    assert (bounds.lo, bounds.hi) == (F(3), F(6))


def test_no_static_verdict_contradicts_exploration():
    """The global soundness property: the analyzer never PROVES what
    exploration refutes nor REFUTES what exploration proves, across the
    whole surface (UNKNOWN is always allowed)."""
    expected_broken = {"fischer-tight"}
    from repro.catalog import SURFACE_SYSTEMS

    for name in SURFACE_SYSTEMS:
        refuted = [
            o for o in discharge_system(name) if o.verdict is Verdict.REFUTED
        ]
        if name in expected_broken:
            assert refuted, "the broken variant must be refuted"
        else:
            assert not refuted, "static refutation of a sound system"
