"""Replayable traces: ``trace_system`` and the ``repro trace`` CLI."""

import pytest

from repro.errors import ReproError
from repro.obs.tracing import trace_system
from repro.serialize import events_from_jsonl, events_to_jsonl


class TestTraceSystem:
    def test_names_match_the_surface(self):
        from repro.catalog import SURFACE_SYSTEMS

        # Every system on the verification surface traces.
        for name in SURFACE_SYSTEMS:
            assert trace_system(name, steps=5)[1]["events"] > 0, name

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            trace_system("nope")

    def test_rm_trace_shape(self):
        recorder, summary = trace_system("rm", seed=0, steps=30)
        assert summary["ok"] is True
        assert summary["events"] == len(recorder.events)
        names = [e.name for e in recorder.events]
        assert names[0] == "trace.begin"
        assert names[-1] == "trace.end"
        assert "check.outcome" in names
        assert names.count("sim.step") == summary["steps"] == 30

    def test_trace_is_seed_deterministic(self):
        first, _ = trace_system("relay", seed=3, steps=25)
        second, _ = trace_system("relay", seed=3, steps=25)
        assert [(e.name, e.fields) for e in first.events] == [
            (e.name, e.fields) for e in second.events
        ]
        third, _ = trace_system("relay", seed=4, steps=25)
        assert [(e.name, e.fields) for e in first.events] != [
            (e.name, e.fields) for e in third.events
        ]

    def test_safety_trace_has_verdict(self):
        recorder, summary = trace_system("fischer", seed=0, steps=20)
        verdicts = [e for e in recorder.events if e.name == "safety.verdict"]
        assert len(verdicts) == 1
        assert verdicts[0].fields["safe"] is True
        assert summary["safe"] is True

    def test_broken_system_trace_carries_violation(self):
        recorder, summary = trace_system("fischer-tight", seed=0, steps=20)
        verdict = [e for e in recorder.events if e.name == "safety.verdict"][0]
        assert verdict.fields["safe"] is False
        assert verdict.fields["state"] is not None
        assert summary["ok"] is False

    def test_trace_round_trips_through_jsonl(self):
        recorder, _ = trace_system("chain", seed=1, steps=20)
        restored = events_from_jsonl(events_to_jsonl(recorder.events))
        assert restored == recorder.events


class TestCli:
    def test_trace_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["trace", "rm", "--steps", "15"]) == 0
        out = capsys.readouterr().out
        events = events_from_jsonl(out)
        assert events[0].name == "trace.begin"
        assert events[-1].name == "trace.end"

    def test_trace_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", "relay", "--steps", "15",
                     "--out", str(out_path)]) == 0
        events = events_from_jsonl(out_path.read_text())
        assert any(e.name == "sim.step" for e in events)
        assert "15" in capsys.readouterr().out or events

    def test_trace_exit_code_reflects_failure(self, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "trace.jsonl"
        assert main(["trace", "fischer-tight", "--out", str(out_path)]) == 1
