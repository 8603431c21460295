"""The [PF77] tournament mutual exclusion — the paper's named
future-work example, generalising Peterson to n = 2^h processes."""

import random
from fractions import Fraction as F

import pytest

from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.ioa.explorer import check_invariant
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy, UniformStrategy
from repro.systems.extensions.tournament import (
    ADVANCE,
    RELEASE,
    TournamentParams,
    critical_count,
    tournament_automaton,
    tournament_mutex_violated,
    tournament_system,
)
from repro.timed.satisfaction import find_boundmap_violation
from repro.zones.analysis import event_separation_bounds, find_reachable_state


def enter_group(n: int):
    """Top-level ADVANCEs = critical-section entries."""
    height = n.bit_length() - 1
    return {ADVANCE(i, height - 1) for i in range(n)}


class TestParams:
    def test_power_of_two_required(self):
        with pytest.raises(Exception):
            TournamentParams(n=3, s1=1, s2=2)
        with pytest.raises(Exception):
            TournamentParams(n=1, s1=1, s2=2)

    def test_height(self):
        assert TournamentParams(n=2, s1=1, s2=2).height == 1
        assert TournamentParams(n=4, s1=1, s2=2).height == 2
        assert TournamentParams(n=8, s1=1, s2=2).height == 3


class TestUntimedSafety:
    @pytest.mark.parametrize("n", [2, 4])
    def test_mutex_exhaustive(self, n):
        params = TournamentParams(n=n, s1=F(1), s2=F(2), repeat=True)
        report = check_invariant(
            tournament_automaton(params),
            lambda s: not tournament_mutex_violated(s),
            max_states=200_000,
        )
        assert report.holds and not report.truncated

    def test_n8_mutex_bounded(self):
        params = TournamentParams(n=8, s1=F(1), s2=F(2), repeat=True)
        report = check_invariant(
            tournament_automaton(params),
            lambda s: not tournament_mutex_violated(s),
            max_states=60_000,
        )
        assert report.holds  # possibly truncated; no violation found


class TestTimedAnalysis:
    def test_n2_matches_peterson(self):
        params = TournamentParams(n=2, s1=F(1), s2=F(2))
        bounds = event_separation_bounds(
            tournament_system(params), enter_group(2), occurrence=1,
            max_nodes=200_000,
        )
        assert bounds.lo == 3 and bounds.hi == 6  # = Peterson's [3·s1, 3·s2]

    def test_n4_first_entry_deterministic_steps(self):
        # With deterministic step times the winner's 3-steps-per-level
        # bound is exact: 3·h·s at both ends.
        params = TournamentParams(n=4, s1=F(1), s2=F(1))
        bounds = event_separation_bounds(
            tournament_system(params), enter_group(4), occurrence=1,
            max_nodes=150_000,
        )
        expected = 3 * params.height * params.s1
        assert bounds.lo == expected and bounds.hi == expected
        assert not bounds.lo_strict and not bounds.hi_strict

    def test_n4_first_entry_jittered_steps(self):
        # With jittered steps the losers' busy-wait spins multiply the
        # zones per discrete state; keeping only the maximal ones makes
        # the exact bound affordable: 3·h·[s1, s2] = [6, 12] (E16).
        params = TournamentParams(n=4, s1=F(1), s2=F(2))
        bounds = event_separation_bounds(
            tournament_system(params), enter_group(4), occurrence=1,
            max_nodes=150_000,
        )
        assert (bounds.lo, bounds.hi) == (6, 12)  # 3·h·[s1, s2], h = 2
        assert not bounds.lo_strict and not bounds.hi_strict

    def test_n4_timed_mutex_via_untimed(self):
        # Timed reachability is a subset of untimed reachability, so the
        # exhaustive untimed check (TestUntimedSafety) already covers
        # every timed execution; spot-check the containment direction on
        # the n=2 instance where the timed graph is affordable.
        params = TournamentParams(n=2, s1=F(1), s2=F(2), e=F(1), repeat=True)
        bad = find_reachable_state(
            tournament_system(params), tournament_mutex_violated,
            max_nodes=300_000,
        )
        assert bad is None


class TestSimulation:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_runs_safe_and_semi_executions(self, n):
        params = TournamentParams(n=n, s1=F(1), s2=F(2), e=F(1), repeat=True)
        timed = tournament_system(params)
        automaton = time_of_boundmap(timed)
        for seed in range(3):
            run = Simulator(automaton, UniformStrategy(random.Random(seed))).run(
                max_steps=120
            )
            assert all(critical_count(s.astate) <= 1 for s in run.states)
            assert find_boundmap_violation(timed, project(run), semi=True) is None

    def test_entries_keep_happening(self):
        params = TournamentParams(n=4, s1=F(1), s2=F(2), e=F(1), repeat=True)
        automaton = time_of_boundmap(tournament_system(params))
        run = Simulator(automaton, UniformStrategy(random.Random(7))).run(
            max_steps=300
        )
        entries = [ev for ev in run.events if ev.action in enter_group(4)]
        assert len(entries) >= 3

    def test_exit_releases_both_levels(self):
        params = TournamentParams(n=4, s1=F(1), s2=F(2), e=F(1), repeat=False)
        automaton = time_of_boundmap(tournament_system(params))
        run = Simulator(automaton, UniformStrategy(random.Random(1))).run(
            max_steps=200
        )
        # One-shot: all four processes eventually finish (pc = done),
        # which requires releasing the root and leaf on each path.
        final = run.last_state.astate
        assert all(pc == ("done",) for pc in final[1])
        # All node flags are down again.
        assert all(not fa and not fb for fa, fb, _turn in final[0])
