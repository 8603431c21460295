"""Lemma 6.2 / Corollary 6.3: the relay mapping hierarchy — per level,
as a full chain, exhaustively, and refuted under mutation."""

import random
from fractions import Fraction as F

import pytest

from repro.core.checker import (
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
)
from repro.core.mappings import (
    Ineq,
    InequalityMapping,
    MappingChain,
    source_ft,
    source_lt,
    target_ft,
    target_lt,
)
from repro.sim.scheduler import Simulator
from repro.sim.strategies import ExtremalStrategy, UniformStrategy
from repro.systems.signal_relay import (
    entry_mapping,
    exit_mapping,
    level_mapping,
    relay_hierarchy,
)
from repro.systems.signal_relay import (
    RelayParams,
    RelaySystem,
    signal_class_name,
)
from repro.timed.interval import Interval


def run_of(system, seed, steps=80, strategy_cls=UniformStrategy):
    return Simulator(system.algorithm, strategy_cls(random.Random(seed))).run(
        max_steps=steps
    )


class TestChain:
    def test_full_hierarchy_on_uniform_runs(self, relay_system):
        chain = relay_hierarchy(relay_system)
        assert len(chain) == relay_system.params.n + 1
        for seed in range(8):
            outcome = check_chain_on_run(chain, run_of(relay_system, seed))
            assert outcome.ok, outcome.detail

    def test_full_hierarchy_on_extremal_runs(self, relay_system):
        chain = relay_hierarchy(relay_system)
        for seed in range(6):
            outcome = check_chain_on_run(
                chain, run_of(relay_system, seed, strategy_cls=ExtremalStrategy)
            )
            assert outcome.ok, outcome.detail

    def test_n_equals_one_degenerate_chain(self):
        system = RelaySystem(RelayParams(n=1, d1=F(1), d2=F(2)))
        chain = relay_hierarchy(system)
        assert len(chain) == 2  # entry + exit, no f_k levels
        outcome = check_chain_on_run(chain, run_of(system, 0))
        assert outcome.ok, outcome.detail

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_various_lengths(self, n):
        system = RelaySystem(RelayParams(n=n, d1=F(1), d2=F(2)))
        chain = relay_hierarchy(system)
        outcome = check_chain_on_run(chain, run_of(system, 1, steps=60))
        assert outcome.ok, outcome.detail


class TestLevels:
    def test_entry_mapping_alone(self, relay_system):
        mapping = entry_mapping(relay_system)
        outcome = check_mapping_on_run(mapping, run_of(relay_system, 2))
        assert outcome.ok, outcome.detail

    def test_each_level_via_chain_prefix(self, relay_system):
        # Check f_2 on its own by running the chain up to B_2's witness.
        n = relay_system.params.n
        mappings = [entry_mapping(relay_system)]
        for k in range(n - 1, 0, -1):
            mappings.append(level_mapping(relay_system, k))
            outcome = check_chain_on_run(
                MappingChain(list(mappings)), run_of(relay_system, 3)
            )
            assert outcome.ok, outcome.detail

    def test_exit_mapping_composes(self, relay_system):
        chain = MappingChain(
            [entry_mapping(relay_system)]
            + [
                level_mapping(relay_system, k)
                for k in range(relay_system.params.n - 1, 0, -1)
            ]
            + [exit_mapping(relay_system)]
        )
        assert check_chain_on_run(chain, run_of(relay_system, 4)).ok


class TestExhaustive:
    def test_small_relay_exhaustive(self):
        system = RelaySystem(
            RelayParams(n=2, d1=F(1), d2=F(2)), dummy_interval=Interval(F(1), F(2))
        )
        mapping = level_mapping(system, 1)
        # Source is B_1, which runs on the same dummified automaton; the
        # exhaustive checker explores all grid executions of B_1.
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(5))
        assert outcome.ok, outcome.detail


class TestMutations:
    def _refuted_on_runs(self, system, chain_or_mapping, seeds=range(20)):
        for seed in seeds:
            run = run_of(system, seed, strategy_cls=ExtremalStrategy)
            if isinstance(chain_or_mapping, MappingChain):
                ok = check_chain_on_run(chain_or_mapping, run).ok
            else:
                ok = check_mapping_on_run(chain_or_mapping, run).ok
            if not ok:
                return True
        return False

    def test_wrong_partial_sum_refuted(self, relay_system):
        """Claiming (n−k)·d2 + 1 instead of (n−k)·d2 in f_k's inequality
        demands an unsatisfiable Lt and must fail containment."""
        n = relay_system.params.n
        k = 1
        good = level_mapping(relay_system, k)
        target_u = relay_system.condition_name(k - 1)
        hop = relay_system.params.hop_interval(k)
        cases = dict(good.cases)
        cases["B"] = cases["B"][:-2] + (
            Ineq(target_lt(target_u), ">=", source_lt(signal_class_name(k)) + hop.hi + 1),
            Ineq(target_ft(target_u), "<=", source_ft(signal_class_name(k)) + hop.lo),
        )
        bad = InequalityMapping(
            good.source, good.target, cases, case_of=good.case_of, name="broken f_1"
        )
        chain = MappingChain(
            [entry_mapping(relay_system)]
            + [
                level_mapping(relay_system, j) if j != k else bad
                for j in range(n - 1, 0, -1)
            ]
            + [exit_mapping(relay_system)]
        )
        assert self._refuted_on_runs(relay_system, chain)

    def test_too_tight_requirement_refuted(self):
        """A requirements automaton claiming [n·d1, n·d2 − 1] must be
        refuted by some run reaching the true supremum."""
        params = RelayParams(n=2, d1=F(1), d2=F(2))
        system = RelaySystem(params)
        from repro.core.dummification import dummify_condition
        from repro.core.time_automaton import time_of_conditions
        from repro.systems.signal_relay import SIGNAL
        from repro.timed.conditions import TimingCondition

        tight = dummify_condition(
            TimingCondition.after_action(
                "U[0,2]", Interval(2, 3), SIGNAL(0), [SIGNAL(2)]
            )
        )
        bad_req = time_of_conditions(system.dummified.automaton, [tight], name="badB")
        mapping = InequalityMapping(
            system.algorithm, bad_req, (), name="permissive"
        )
        assert self._refuted_on_runs(system, mapping, seeds=range(40))
