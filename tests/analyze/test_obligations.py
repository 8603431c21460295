"""Symbolic obligation discharge across the verification surface."""

from fractions import Fraction as F

import pytest

from repro.analyze import Verdict, discharge_all, discharge_system
from repro.catalog import SURFACE_SYSTEMS


@pytest.fixture(scope="module")
def all_results():
    return {name: discharge_system(name) for name in SURFACE_SYSTEMS}


class TestInventory:
    def test_surface_is_covered(self, all_results):
        assert set(all_results) == set(SURFACE_SYSTEMS)
        for name, results in all_results.items():
            assert results, "system {!r} produced no obligations".format(name)

    def test_discharge_ratio_meets_bar(self, all_results):
        results = [o for rs in all_results.values() for o in rs]
        discharged = [o for o in results if o.verdict is not Verdict.UNKNOWN]
        assert len(discharged) / len(results) >= 0.8

    def test_discharge_all_matches_per_system(self, all_results):
        flat = discharge_all()
        assert {
            (o.system, o.obligation, o.verdict)
            for rs in flat.values()
            for o in rs
        } == {
            (o.system, o.obligation, o.verdict)
            for rs in all_results.values()
            for o in rs
        }


class TestResourceManager:
    def test_all_rm_obligations_proved(self, all_results):
        for o in all_results["rm"]:
            assert o.verdict is Verdict.PROVED, o

    def test_lemma_41_discharged_symbolically(self, all_results):
        # Lemma 4.1 is no obligation of its own: the steps proof reads it
        # off rm's zone graph (x_LOCAL >= x_TICK at TIMER = 0) as a
        # hypothesis, and consumes it in the GRANT case.  The zone graph
        # also shows TICK cannot fire at TIMER = 0, so no case has it.
        assert [o.obligation for o in all_results["rm"]] == [
            "rm/base-identity",
            "rm/initial",
            "rm/steps",
        ]
        steps = all_results["rm"][-1]
        assert steps.verdict is Verdict.PROVED
        assert steps.method == "fourier-motzkin"
        assert "zone graph" in steps.detail
        assert "0 -GRANT-> 3" in steps.cases
        assert not [case for case in steps.cases if case.startswith("0 -TICK")]


class TestHierarchies:
    def test_relay_all_levels_proved(self, all_results):
        results = all_results["relay"]
        assert len(results) == 12  # 4 mappings x base/initial/steps
        assert all(o.verdict is Verdict.PROVED for o in results)

    def test_relay_inner_levels_use_fm(self, all_results):
        methods = {
            o.mapping_label: o.method
            for o in all_results["relay"]
            if o.obligation.endswith("/steps")
        }
        # The projection endpoints are structural; the B_k levels are
        # genuine timed mappings discharged by the inequality engine.
        assert methods["relay[1]"] == "fourier-motzkin"
        assert methods["relay[2]"] == "fourier-motzkin"
        assert methods["relay[0]"] == "structural"
        assert methods["relay[3]"] == "structural"

    def test_chain_all_proved(self, all_results):
        assert all(o.verdict is Verdict.PROVED for o in all_results["chain"])


class TestFischer:
    def test_safe_variant_proved(self, all_results):
        (only,) = all_results["fischer"]
        assert only.verdict is Verdict.PROVED

    def test_tight_variant_refuted_with_witness(self, all_results):
        (only,) = all_results["fischer-tight"]
        assert only.verdict is Verdict.REFUTED
        w = only.witness
        assert w is not None
        a = b = F(1)  # fischer-tight ships a = b = 1
        # The witness must be a genuine interleaving that races:
        # both processes SET then CHECK inside legal windows, with
        # process j setting after i's set and before i's check.
        assert F(0) <= w["t_set_i"] <= a
        assert F(0) <= w["t_set_j"] <= a
        assert w["t_set_i"] + b <= w["t_check_i"] <= w["t_set_i"] + 2 * b
        assert w["t_set_j"] + b <= w["t_check_j"] <= w["t_set_j"] + 2 * b
        # j overwrites the shared variable at-or-after i's successful
        # check: both processes end up in the critical section.
        assert w["t_set_j"] >= w["t_check_i"]

    def test_verdicts_flip_exactly_at_a_equals_b(self):
        # The race encoding is feasible iff a >= b; the shipped params
        # sit on either side of that line.
        safe = discharge_system("fischer")
        tight = discharge_system("fischer-tight")
        assert safe[0].verdict is Verdict.PROVED
        assert tight[0].verdict is Verdict.REFUTED


class TestClosedFormAndDeferred:
    def test_peterson_closed_form(self, all_results):
        (only,) = all_results["peterson"]
        assert only.verdict is Verdict.PROVED
        assert only.method == "closed-form"

    def test_tournament_width_2_discharges_closed_form(self, all_results):
        by_name = {o.obligation: o for o in all_results["tournament"]}
        # The shipped bracket is width 2 (Peterson): both the FM lower
        # bound and the closed-form entry bound discharge statically.
        assert by_name["entry-lower"].verdict is Verdict.PROVED
        assert by_name["entry-lower"].method == "fourier-motzkin"
        assert by_name["entry-bound"].verdict is Verdict.PROVED
        assert by_name["entry-bound"].method == "closed-form"

    def test_tournament_width_4_proved_zone_exact(self):
        from repro.analyze import discharge_system

        by_name = {
            o.obligation: o for o in discharge_system("gen:tournament-4")
        }
        assert by_name["entry-lower"].verdict is Verdict.PROVED
        upper = by_name["entry-upper"]
        # The exact first-entry bound of the jittered bracket is
        # 3*h*[s1, s2] = [6, 12]: its top meets the claim exactly.
        assert upper.verdict is Verdict.PROVED
        assert upper.method == "zone-exact"
        assert "[6, 12]" in upper.detail
        assert upper.to_check_outcome().ok
        assert not upper.to_check_outcome().exhausted_budget

    def test_tournament_width_4_defers_structured(self, monkeypatch):
        from repro.analyze import obligations
        from repro.systems.extensions import TournamentParams

        # A zone budget too small for the bracket: the obligation stays
        # a structured deferral instead of a guess.
        monkeypatch.setattr(obligations, "_TOURNAMENT_ZONE_NODES", 100)
        by_name = {
            o.obligation: o
            for o in obligations._tournament_obligations(
                "gen:tournament-4", TournamentParams(n=4, s1=F(1), s2=F(2))
            )
        }
        assert by_name["entry-lower"].verdict is Verdict.PROVED
        deferred = by_name["entry-upper"]
        assert deferred.verdict is Verdict.UNKNOWN
        assert deferred.method == "deferred"
        assert deferred.detail.startswith("deferred:")
        outcome = deferred.to_check_outcome()
        # UNKNOWN maps to "did not refute, budget-style inconclusive",
        # never to a failure.
        assert outcome.ok
        assert outcome.exhausted_budget


class TestResultShape:
    def test_to_dict_is_json_plain(self, all_results):
        import json

        for rs in all_results.values():
            for o in rs:
                json.dumps(o.to_dict())

    def test_refuted_to_check_outcome_fails(self, all_results):
        (only,) = all_results["fischer-tight"]
        outcome = only.to_check_outcome()
        assert not outcome.ok
