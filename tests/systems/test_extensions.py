"""Tests for the Section 8 extensions: interrupt-driven manager,
request/grant closed system, heterogeneous event chain."""

import random
from fractions import Fraction as F

import pytest

from repro.core.checker import check_chain_on_run
from repro.core.projection import project
from repro.core.time_automaton import time_of_boundmap
from repro.sim.scheduler import Simulator
from repro.sim.strategies import UniformStrategy
from repro.systems.extensions.chain import (
    EVENT,
    ChainSystem,
    partial_sum_interval,
)
from repro.systems.extensions.interrupt_manager import (
    interrupt_manager_automaton,
    interrupt_resource_manager,
)
from repro.systems.extensions.request_grant import (
    REPLY,
    REQUEST,
    RequestGrantParams,
    request_grant_system,
    response_condition,
)
from repro.systems.resource_manager import GRANT, ResourceManagerParams
from repro.sim.bounds import separations_after
from repro.timed.interval import Interval
from repro.timed.satisfaction import find_condition_violation
from repro.zones.analysis import absolute_event_bounds, event_separation_bounds


class TestInterruptManager:
    def test_no_else_action(self):
        mgr = interrupt_manager_automaton(2)
        assert mgr.signature.locally_controlled == {GRANT}

    def test_local_disabled_while_counting(self):
        mgr = interrupt_manager_automaton(2)
        local = mgr.partition["LOCAL"]
        assert not mgr.class_enabled(2, local)
        assert mgr.class_enabled(0, local)

    def test_first_grant_same_interval_exact(self):
        # Footnote 7: the variants have slightly different timing
        # properties; for the *first grant* the interval happens to
        # coincide — verified exactly via zones.
        params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
        bounds = absolute_event_bounds(interrupt_resource_manager(params), GRANT)
        assert bounds.tight(params.first_grant_interval)

    def test_gap_interval_coincides_with_polling_variant(self):
        # Perhaps surprisingly, the exact gap interval is the same
        # [k·c1 − l, k·c2 + l] as the polling manager's: a grant may
        # still trail its k-th tick by up to l, so the next window of
        # ticks can start c1 − l after the grant.  The footnote's
        # "slightly different timing properties" shows up structurally
        # (the Lemma 4.1 invariant below), not in this interval.
        params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
        bounds = event_separation_bounds(
            interrupt_resource_manager(params), GRANT, occurrence=2, reset_on=[GRANT]
        )
        assert bounds.tight(params.grant_gap_interval)

    def test_lemma_4_1_shape_differs(self):
        # In the polling variant LOCAL is enabled in every reachable
        # state; here it is disabled whenever TIMER > 0 — the state
        # invariant that powered Lemma 4.1's second clause has no
        # counterpart.
        params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
        ta = interrupt_resource_manager(params)
        local = ta.automaton.partition["LOCAL"]
        assert not ta.automaton.class_enabled(("clockstate", 2), local)
        assert ta.automaton.class_enabled(("clockstate", 0), local)

    def test_simulation_matches_zone_bounds(self):
        params = ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
        auto = time_of_boundmap(interrupt_resource_manager(params))
        gaps_seen = []
        for seed in range(6):
            run = Simulator(auto, UniformStrategy(random.Random(seed))).run(
                max_steps=150
            )
            seq = project(run)
            times = [ev.time for ev in seq.events if ev.action == GRANT]
            gaps_seen.extend(b - a for a, b in zip(times, times[1:]))
        assert gaps_seen
        assert all(g in params.grant_gap_interval for g in gaps_seen)


class TestRequestGrant:
    def test_params_validation(self):
        with pytest.raises(Exception):
            RequestGrantParams(r1=0, r2=1, l=1)
        with pytest.raises(Exception):
            RequestGrantParams(r1=2, r2=1, l=1)

    def test_well_separated_flag(self):
        assert RequestGrantParams(r1=3, r2=4, l=1).well_separated
        assert not RequestGrantParams(r1=1, r2=4, l=2).well_separated

    def test_closed_system(self):
        ta = request_grant_system(RequestGrantParams(r1=3, r2=4, l=1))
        assert ta.automaton.signature.inputs == frozenset()

    def test_response_condition_holds_on_runs(self):
        params = RequestGrantParams(r1=3, r2=4, l=1)
        auto = time_of_boundmap(request_grant_system(params))
        cond = response_condition(params)
        for seed in range(6):
            run = Simulator(auto, UniformStrategy(random.Random(seed))).run(
                max_steps=120
            )
            assert find_condition_violation(project(run), cond, semi=True) is None

    def test_response_bound_exact_via_zones(self):
        params = RequestGrantParams(r1=3, r2=4, l=1)
        bounds = event_separation_bounds(
            request_grant_system(params), REPLY, occurrence=1, reset_on=[REQUEST]
        )
        assert bounds.within(params.response_interval)

    def test_mapping_proof_of_the_response_bound(self):
        # A third complete mapping proof: with well-separated requests
        # the condition R coincides, prediction-for-prediction, with the
        # boundmap condition of the SERVE class (requests never overlap
        # a pending service, so R's re-trigger case never fires), making
        # the trivial projection mapping a strong possibilities mapping
        # from time(A, b) to time(A, {R}).
        from repro.core import check_mapping_on_run, time_of_conditions
        from repro.core.mappings import ProjectionMapping

        params = RequestGrantParams(r1=3, r2=4, l=1)
        timed = request_grant_system(params)
        algorithm = time_of_boundmap(timed)
        requirements = time_of_conditions(
            timed.automaton, [response_condition(params)], name="R-spec"
        )
        mapping = ProjectionMapping(
            algorithm, requirements, name_map={"R": "SERVE"}
        )
        for seed in range(6):
            run = Simulator(algorithm, UniformStrategy(random.Random(seed))).run(
                max_steps=120
            )
            outcome = check_mapping_on_run(mapping, run)
            assert outcome.ok, outcome.detail

    def test_every_request_answered(self):
        params = RequestGrantParams(r1=3, r2=4, l=1)
        auto = time_of_boundmap(request_grant_system(params))
        run = Simulator(auto, UniformStrategy(random.Random(1))).run(max_steps=100)
        seq = project(run)
        separations = separations_after(seq.events, REQUEST, REPLY)
        assert len(separations) >= 10
        assert all(s <= params.l for s in separations)


class TestChainSystem:
    def test_partial_sums(self):
        stages = [Interval(1, 2), Interval(F(1, 2), 3), Interval(2, 2)]
        assert partial_sum_interval(stages, 0) == Interval(F(7, 2), 7)
        assert partial_sum_interval(stages, 2) == Interval(2, 2)

    def test_requirement_is_minkowski_sum(self):
        stages = [Interval(1, 2), Interval(F(1, 2), 3)]
        system = ChainSystem(stages)
        assert system.requirement.interval == Interval(F(3, 2), 5)

    def test_empty_chain_rejected(self):
        with pytest.raises(Exception):
            ChainSystem([])

    def test_hierarchy_checks_on_runs(self):
        stages = [Interval(1, 2), Interval(F(1, 2), 3), Interval(2, 2)]
        system = ChainSystem(stages, dummy_interval=Interval(F(1, 2), 1))
        chain = system.hierarchy()
        for seed in range(6):
            run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
                max_steps=70
            )
            outcome = check_chain_on_run(chain, run)
            assert outcome.ok, outcome.detail

    def test_two_event_chain_of_the_conclusions(self):
        # π triggers φ within [a1,a2], φ triggers ψ within [b1,b2]:
        # the chain proves π-to-ψ within [a1+b1, a2+b2].
        a, b = Interval(1, 2), Interval(3, 4)
        system = ChainSystem([a, b])
        assert system.requirement.interval == Interval(4, 6)
        run = Simulator(system.algorithm, UniformStrategy(random.Random(0))).run(
            max_steps=60
        )
        assert check_chain_on_run(system.hierarchy(), run).ok

    def test_end_to_end_exact_via_zones(self):
        stages = [Interval(1, 2), Interval(3, 4)]
        system = ChainSystem(stages)
        bounds = event_separation_bounds(
            system.timed, EVENT(2), occurrence=1, reset_on=[EVENT(0)]
        )
        assert bounds.tight(Interval(4, 6))

    def test_heterogeneous_matches_relay_when_equal(self):
        from repro.systems.signal_relay import RelayParams, signal_relay, SIGNAL

        stages = [Interval(1, 2)] * 3
        chain_bounds = event_separation_bounds(
            ChainSystem(stages).timed, EVENT(3), occurrence=1, reset_on=[EVENT(0)]
        )
        relay_bounds = event_separation_bounds(
            signal_relay(RelayParams(n=3, d1=1, d2=2)),
            SIGNAL(3),
            occurrence=1,
            reset_on=[SIGNAL(0)],
        )
        assert (chain_bounds.lo, chain_bounds.hi) == (relay_bounds.lo, relay_bounds.hi)
