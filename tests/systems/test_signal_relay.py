"""Section 6 signal relay: structure, Lemma 6.1, Theorem 6.4
measurements."""

import random
from fractions import Fraction as F

import pytest

from repro.errors import AutomatonError
from repro.core.dummification import NULL, undum
from repro.core.projection import project
from repro.ioa.explorer import check_invariant
from repro.sim.scheduler import Simulator
from repro.sim.strategies import EagerStrategy, ExtremalStrategy, UniformStrategy
from repro.systems.signal_relay import (
    SIGNAL,
    RelayParams,
    RelaySystem,
    flags_of,
    lemma_6_1_predicate,
    relay_automaton,
    relay_condition,
    sender_automaton,
    signal_relay,
)
from repro.sim.bounds import separations_after
from repro.timed.interval import Interval
from repro.timed.satisfaction import find_condition_violation


class TestParams:
    def test_n_positive(self):
        with pytest.raises(AutomatonError):
            RelayParams(n=0, d1=1, d2=2)

    def test_d1_le_d2(self):
        with pytest.raises(AutomatonError):
            RelayParams(n=1, d1=3, d2=2)

    def test_d2_positive(self):
        with pytest.raises(AutomatonError):
            RelayParams(n=1, d1=0, d2=0)

    def test_end_to_end_interval(self, relay_params):
        assert relay_params.end_to_end_interval == Interval(3, 6)

    def test_hop_interval(self, relay_params):
        assert relay_params.hop_interval(1) == Interval(2, 4)
        with pytest.raises(AutomatonError):
            relay_params.hop_interval(3)


class TestStructure:
    def test_sender_fires_once(self):
        p0 = sender_automaton()
        assert p0.is_enabled(True, SIGNAL(0))
        assert list(p0.transitions(True, SIGNAL(0))) == [False]
        assert not p0.is_enabled(False, SIGNAL(0))

    def test_relay_raises_flag_on_input(self):
        p2 = relay_automaton(2)
        assert list(p2.transitions(False, SIGNAL(1))) == [True]

    def test_relay_index_validation(self):
        with pytest.raises(AutomatonError):
            relay_automaton(0)

    def test_hidden_signals(self, relay_params):
        ta = signal_relay(relay_params)
        sig = ta.automaton.signature
        assert sig.external == {SIGNAL(0), SIGNAL(relay_params.n)}
        for i in range(1, relay_params.n):
            assert SIGNAL(i) in sig.internals

    def test_boundmap_entries(self, relay_params):
        ta = signal_relay(relay_params)
        assert ta.boundmap["SIGNAL_0"].is_trivial  # [0, ∞]: unconstrained
        assert ta.boundmap["SIGNAL_1"] == Interval(relay_params.d1, relay_params.d2)

    def test_n_equals_one(self):
        ta = signal_relay(RelayParams(n=1, d1=F(1), d2=F(2)))
        assert ta.automaton.signature.external == {SIGNAL(0), SIGNAL(1)}


class TestLemma61:
    def test_exhaustive_at_most_one_flag(self, relay_params):
        ta = signal_relay(relay_params)
        predicate = lemma_6_1_predicate(relay_params)
        report = check_invariant(ta.automaton, predicate)
        assert report.holds

    def test_along_dummified_runs(self, relay_system):
        predicate = lemma_6_1_predicate(relay_system.params)
        for seed in range(5):
            run = Simulator(
                relay_system.algorithm, UniformStrategy(random.Random(seed))
            ).run(max_steps=60)
            assert all(predicate(flags_of(s.astate)) for s in run.states)


class TestTheorem64Measurements:
    def _delay(self, system, strategy, steps=80):
        run = Simulator(system.algorithm, strategy).run(max_steps=steps)
        seq = undum(project(run))
        n = system.params.n
        separations = separations_after(
            seq.events, SIGNAL(0), SIGNAL(n)
        )
        return separations

    def test_uniform_within_bounds(self, relay_system):
        interval = relay_system.params.end_to_end_interval
        found = 0
        for seed in range(8):
            for separation in self._delay(
                relay_system, UniformStrategy(random.Random(seed))
            ):
                found += 1
                assert separation in interval
        assert found >= 6

    def test_eager_attains_lower_bound(self, relay_system):
        # Prefer SIGNAL actions over the dummy's NULL so the relay
        # advances at every hop's earliest instant.
        from repro.sim.strategies import BiasedActionStrategy

        strategy = BiasedActionStrategy(
            EagerStrategy(random.Random(0)),
            prefer=lambda a: a != NULL,
        )
        separations = self._delay(relay_system, strategy)
        assert separations
        assert min(separations) == relay_system.params.end_to_end_interval.lo

    def test_extremal_attains_upper_bound(self, relay_system):
        interval = relay_system.params.end_to_end_interval
        best = 0
        for seed in range(60):
            for separation in self._delay(
                relay_system, ExtremalStrategy(random.Random(seed), p_low=0.2)
            ):
                best = max(best, separation)
        assert best == interval.hi

    def test_requirement_condition_semi_satisfied(self, relay_system):
        cond = relay_condition(relay_system.params, 0)
        for seed in range(5):
            run = Simulator(
                relay_system.algorithm, UniformStrategy(random.Random(seed))
            ).run(max_steps=60)
            seq = undum(project(run))
            assert find_condition_violation(seq, cond, semi=True) is None

    def test_signal_n_occurs_exactly_once(self, relay_system):
        run = Simulator(relay_system.algorithm, UniformStrategy(random.Random(3))).run(
            max_steps=100
        )
        seq = undum(project(run))
        n = relay_system.params.n
        actions = [ev.action for ev in seq.events]
        assert actions.count(SIGNAL(n)) == 1
        # Q's order: one SIGNAL_0, and SIGNAL_n only after it.
        assert actions.count(SIGNAL(0)) == 1
        assert actions.index(SIGNAL(0)) < actions.index(SIGNAL(n))


class TestRelaySystemBundle:
    def test_intermediate_caching(self, relay_system):
        assert relay_system.intermediate(1) is relay_system.intermediate(1)

    def test_intermediate_range(self, relay_system):
        with pytest.raises(AutomatonError):
            relay_system.intermediate(relay_system.params.n)

    def test_intermediate_conditions(self, relay_system):
        b1 = relay_system.intermediate(1)
        names = [c.name for c in b1.conditions]
        assert names == ["U[1,3]", "SIGNAL_0", "SIGNAL_1", "NULL"]

    def test_requirements_single_condition(self, relay_system):
        assert [c.name for c in relay_system.requirements.conditions] == ["U[0,3]"]
