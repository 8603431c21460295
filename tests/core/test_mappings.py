"""Tests of the mapping framework (Definition 3.2 infrastructure)."""

import pytest

from repro.errors import MappingError
from repro.timed.conditions import TimingCondition
from repro.timed.interval import Interval
from repro.core.mappings import (
    NOW,
    Ineq,
    InequalityMapping,
    Linear,
    MappingChain,
    ProjectionMapping,
    source_ft,
    target_lt,
)
from repro.core.time_automaton import time_of_conditions

from tests.core.test_time_automaton import (
    flow_automaton,
    response_condition,
    startup_condition,
)

#: The declaration that holds for no pair: one unsatisfiable inequality.
FALSE = (Ineq(0, ">=", 1),)


def automata_pair():
    base = flow_automaton()
    source = time_of_conditions(base, [response_condition(), startup_condition()])
    target = time_of_conditions(base, [startup_condition()], name="target")
    return source, target


class TestIdentityOnAState:
    def test_contains_requires_matching_astate(self):
        source, target = automata_pair()
        mapping = InequalityMapping(source, target, ())
        s = source.initial("idle")
        u_same = target.initial("idle")
        assert mapping.contains(u_same, s)
        u_other = u_same.with_astate("busy")
        assert not mapping.contains(u_other, s)

    def test_describe_failure_mentions_astate(self):
        source, target = automata_pair()
        mapping = InequalityMapping(source, target, ())
        s = source.initial("idle")
        u = target.initial("idle").with_astate("busy")
        assert "A-state" in mapping.describe_failure(u, s)


class TestInequalityMapping:
    def test_predicate_consulted(self):
        source, target = automata_pair()
        mapping = InequalityMapping(source, target, FALSE)
        assert not mapping.contains(target.initial("idle"), source.initial("idle"))

    def test_custom_explanation(self):
        # The failure text is derived from the declaration: each violated
        # inequality with the values of both sides.
        source, target = automata_pair()
        mapping = InequalityMapping(source, target, [Ineq(target_lt("S"), "<=", -1)])
        assert (
            mapping.describe_failure(target.initial("idle"), source.initial("idle"))
            == "u.Lt(S) = 4 violates <= -1 = -1"
        )

    def test_cases_chosen_by_astate(self):
        source, target = automata_pair()
        mapping = InequalityMapping(
            source, target, {"idle": (), "busy": FALSE}, case_of=lambda astate: astate
        )
        assert mapping.contains(target.initial("idle"), source.initial("idle"))
        busy_u = target.initial("idle").with_astate("busy")
        busy_s = source.initial("idle").with_astate("busy")
        assert not mapping.contains(busy_u, busy_s)

    def test_undeclared_case_rejected(self):
        source, target = automata_pair()
        mapping = InequalityMapping(source, target, {"busy": ()}, case_of=lambda a: a)
        with pytest.raises(MappingError):
            mapping.contains(target.initial("idle"), source.initial("idle"))

    def test_unknown_condition_rejected_at_declaration(self):
        source, target = automata_pair()
        with pytest.raises(Exception):
            InequalityMapping(source, target, [Ineq(target_lt("NOPE"), ">=", 0)])

    def test_unknown_relation_rejected(self):
        with pytest.raises(MappingError):
            Ineq(NOW, "<", 1)

    def test_infinite_constant_compares_like_python(self):
        # u.Lt(S) = 4 at the start: "Lt >= inf" fails, "Lt <= inf" holds.
        source, target = automata_pair()
        u, s = target.initial("idle"), source.initial("idle")
        at_least = InequalityMapping(source, target, [Ineq(target_lt("S"), ">=", float("inf"))])
        at_most = InequalityMapping(source, target, [Ineq(target_lt("S"), "<=", float("inf"))])
        assert not at_least.contains(u, s)
        assert at_most.contains(u, s)

    def test_linear_arithmetic_and_text(self):
        expr = 2 * source_ft("R") + 3 - NOW + source_ft("R")
        assert isinstance(expr, Linear)
        assert repr(expr) == "-1*Ct + 3*s.Ft(R) + 3"
        assert repr(Ineq(target_lt("S"), ">=", expr)) == "u.Lt(S) >= -1*Ct + 3*s.Ft(R) + 3"


class TestProjectionMapping:
    def test_identity_name_projection(self):
        source, target = automata_pair()
        mapping = ProjectionMapping(source, target)
        assert mapping.contains(target.initial("idle"), source.initial("idle"))

    def test_unknown_source_condition_rejected(self):
        base = flow_automaton()
        source = time_of_conditions(base, [response_condition()])
        target = time_of_conditions(base, [startup_condition()], name="t")
        with pytest.raises(Exception):
            ProjectionMapping(source, target)

    def test_renaming(self):
        base = flow_automaton()
        clone = TimingCondition.from_start("S2", Interval(2, 4), {"req"})
        source = time_of_conditions(base, [startup_condition()])
        target = time_of_conditions(base, [clone], name="t")
        mapping = ProjectionMapping(source, target, name_map={"S2": "S"})
        assert mapping.contains(target.initial("idle"), source.initial("idle"))

    def test_prediction_mismatch_detected(self):
        base = flow_automaton()
        different = TimingCondition.from_start("S", Interval(1, 9), {"req"})
        source = time_of_conditions(base, [startup_condition()])  # S = [2,4]
        target = time_of_conditions(base, [different], name="t")
        mapping = ProjectionMapping(source, target)
        assert not mapping.contains(target.initial("idle"), source.initial("idle"))
        assert "S" in mapping.describe_failure(
            target.initial("idle"), source.initial("idle")
        )

    def test_name_map_is_public_and_read_only(self):
        base = flow_automaton()
        clone = TimingCondition.from_start("S2", Interval(2, 4), {"req"})
        source = time_of_conditions(base, [startup_condition()])
        target = time_of_conditions(base, [clone], name="t")
        mapping = ProjectionMapping(source, target, name_map={"S2": "S"})
        assert dict(mapping.name_map) == {"S2": "S"}
        with pytest.raises(TypeError):
            mapping.name_map["S2"] = "R"


class TestMappingChain:
    def test_empty_chain_rejected(self):
        with pytest.raises(MappingError):
            MappingChain([])

    def test_mismatched_chain_rejected(self):
        source, target = automata_pair()
        m1 = InequalityMapping(source, target, ())
        other = time_of_conditions(flow_automaton(), [response_condition()], name="x")
        m2 = InequalityMapping(other, target, ())
        with pytest.raises(MappingError):
            MappingChain([m1, m2])

    def test_chain_endpoints(self):
        source, target = automata_pair()
        m1 = InequalityMapping(source, target, ())
        m2 = InequalityMapping(target, target, ())
        chain = MappingChain([m1, m2])
        assert chain.source is source and chain.target is target
        assert len(chain) == 2
