"""Checkpoint ledger: persistence, damage tolerance, resume semantics.

The resume test is the acceptance criterion for the whole subsystem:
after an interruption, ``--resume`` must re-run *only* the unfinished
jobs, verified here by diffing the ledger before and after.
"""

import json

import pytest

from repro.errors import ReproError
from repro.runner import (
    Job,
    JobOutcome,
    Ledger,
    Supervisor,
    default_jobs,
    load_ledger,
)
from repro.serialize import (
    LEDGER_SCHEMA_VERSION,
    SerializationError,
    ledger_entries_from_jsonl,
    ledger_entry_to_line,
)


def _entries(path):
    with open(path) as fh:
        return ledger_entries_from_jsonl(fh.read())


class TestSerializeHelpers:
    def test_every_line_is_schema_stamped(self):
        line = ledger_entry_to_line({"kind": "end", "summary": {}})
        assert json.loads(line)["schema"] == LEDGER_SCHEMA_VERSION

    def test_entry_without_kind_rejected(self):
        with pytest.raises(SerializationError, match="kind"):
            ledger_entry_to_line({"summary": {}})

    def test_non_json_entry_rejected(self):
        with pytest.raises(SerializationError):
            ledger_entry_to_line({"kind": "end", "bad": object()})

    def test_torn_final_line_is_dropped(self):
        text = (
            ledger_entry_to_line({"kind": "resume", "pending": []})
            + "\n"
            + '{"kind": "att'  # mid-write SIGKILL
        )
        entries = ledger_entries_from_jsonl(text)
        assert [e["kind"] for e in entries] == ["resume"]

    def test_torn_interior_line_is_not_forgiven(self):
        text = '{"kind": "att\n' + ledger_entry_to_line({"kind": "end"}) + "\n"
        with pytest.raises(SerializationError):
            ledger_entries_from_jsonl(text)

    def test_future_schema_rejected(self):
        line = json.dumps({"kind": "end", "schema": LEDGER_SCHEMA_VERSION + 1})
        with pytest.raises(SerializationError, match="schema"):
            ledger_entries_from_jsonl(line + "\n")


class TestLedgerRoundTrip:
    def _outcome(self, job_id, status="ok", ok=True):
        kind, _, system = job_id.partition(":")
        return JobOutcome(
            job_id=job_id,
            kind=kind,
            system=system,
            status=status,
            ok=ok,
            attempts=1,
            retries=0,
            detail="",
            wall=0.01,
        )

    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        jobs = default_jobs(systems=["chain"], kinds=["lint", "analyze"])
        with Ledger(path) as ledger:
            ledger.begin("cafe", jobs, {"workers": 2})
            ledger.attempt("lint:chain", 0, "crash", "boom", backoff=0.1)
            ledger.attempt("lint:chain", 1, "ok", "")
            ledger.done(self._outcome("lint:chain"))
            ledger.end({"ok": False})
        state = load_ledger(path)
        assert state.campaign_id == "cafe"
        assert state.options == {"workers": 2}
        assert state.jobs == jobs
        assert state.attempts == {"lint:chain": 2}
        assert set(state.outcomes) == {"lint:chain"}
        assert state.ended
        assert [job.job_id for job in state.pending] == ["analyze:chain"]
        assert not state.complete

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no ledger"):
            load_ledger(str(tmp_path / "absent.jsonl"))

    def test_header_required(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text(ledger_entry_to_line({"kind": "end"}) + "\n")
        with pytest.raises(ReproError, match="no campaign header"):
            load_ledger(str(path))

    def test_second_campaign_header_rejected(self, tmp_path):
        path = str(tmp_path / "twice.jsonl")
        jobs = [Job(job_id="lint:chain", kind="lint", system="chain")]
        with Ledger(path) as ledger:
            ledger.begin("one", jobs, {})
            ledger.begin("two", jobs, {})
        with pytest.raises(ReproError, match="more than one campaign"):
            load_ledger(str(path))

    def test_torn_tail_still_loads(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        jobs = [Job(job_id="lint:chain", kind="lint", system="chain")]
        with Ledger(path) as ledger:
            ledger.begin("cafe", jobs, {})
        with open(path, "a") as fh:
            fh.write('{"kind": "done", "job_id": "li')  # killed mid-write
        state = load_ledger(path)
        assert state.campaign_id == "cafe"
        assert [job.job_id for job in state.pending] == ["lint:chain"]


class TestResume:
    """Interrupt a campaign, resume from its ledger, and prove by
    ledger diff that only the unfinished jobs ran again."""

    def test_resume_reruns_only_pending_jobs(self, tmp_path):
        path = str(tmp_path / "resume.jsonl")
        jobs = default_jobs(systems=["chain", "rm"], kinds=["lint", "analyze"])
        assert len(jobs) == 4

        with Ledger(path) as ledger:
            first = Supervisor(
                jobs, workers=0, ledger=ledger, stop_after=2
            ).run()
        assert first.interrupted and len(first.outcomes) == 2

        mid = load_ledger(path)
        done_before = set(mid.outcomes)
        pending_ids = [job.job_id for job in mid.pending]
        assert len(done_before) == 2 and len(pending_ids) == 2
        attempts_before = [
            e["job_id"] for e in _entries(path) if e["kind"] == "attempt"
        ]

        with Ledger(path) as ledger:
            final = Supervisor(
                mid.pending,
                workers=0,
                ledger=ledger,
                campaign_id=mid.campaign_id,
                prior_outcomes=mid.outcomes,
                write_header=False,
            ).run()

        # The final report is complete: nothing lost, nothing doubled.
        assert not final.interrupted and final.ok
        assert sorted(o.job_id for o in final.outcomes) == sorted(
            job.job_id for job in jobs
        )

        # Ledger diff: the second leg only ever touched pending jobs.
        entries = _entries(path)
        kinds = [e["kind"] for e in entries]
        assert kinds.count("campaign") == 1  # resume appends, no new header
        assert kinds.count("resume") == 1
        resume_marker = next(e for e in entries if e["kind"] == "resume")
        assert resume_marker["campaign_id"] == mid.campaign_id
        assert sorted(resume_marker["pending"]) == sorted(pending_ids)

        new_attempts = [
            e["job_id"] for e in entries if e["kind"] == "attempt"
        ][len(attempts_before):]
        assert new_attempts and set(new_attempts) == set(pending_ids)
        assert not set(new_attempts) & done_before

        done_ids = [e["job_id"] for e in entries if e["kind"] == "done"]
        assert sorted(done_ids) == sorted(job.job_id for job in jobs)

        after = load_ledger(path)
        assert after.complete and after.ended

    def test_completed_ledger_has_nothing_pending(self, tmp_path):
        path = str(tmp_path / "full.jsonl")
        jobs = default_jobs(systems=["chain"], kinds=["lint"])
        with Ledger(path) as ledger:
            report = Supervisor(jobs, workers=0, ledger=ledger).run()
        assert report.ok
        state = load_ledger(path)
        assert state.complete
        assert state.pending == []


class TestWriterIdentity:
    """Schema 2: every entry is stamped with the writing host and pid,
    so a ledger moved between machines is detectable at resume time."""

    def test_entries_carry_host_and_pid(self, tmp_path):
        import os
        import socket

        path = str(tmp_path / "stamped.jsonl")
        jobs = [Job(job_id="lint:chain", kind="lint", system="chain")]
        with Ledger(path) as ledger:
            ledger.begin("cafe", jobs, {})
            ledger.attempt("lint:chain", 0, "ok", "")
            ledger.end({"ok": True})
        for entry in _entries(path):
            assert entry["host"] == socket.gethostname()
            assert entry["pid"] == os.getpid()

    def test_attempt_extra_fields_survive_but_cannot_shadow(self, tmp_path):
        path = str(tmp_path / "extra.jsonl")
        with Ledger(path) as ledger:
            ledger.begin(
                "cafe", [Job(job_id="lint:chain", kind="lint", system="chain")], {}
            )
            ledger.attempt(
                "lint:chain",
                0,
                "crash",
                "lost worker",
                extra={"worker": "w-1", "epoch": 3, "classification": "ok"},
            )
        attempt = next(e for e in _entries(path) if e["kind"] == "attempt")
        assert attempt["worker"] == "w-1"
        assert attempt["epoch"] == 3
        # Reserved keys win over extra: the classification is "crash".
        assert attempt["classification"] == "crash"

    def test_foreign_ledger_detected(self, tmp_path):
        path = str(tmp_path / "foreign.jsonl")
        jobs = [Job(job_id="lint:chain", kind="lint", system="chain")]
        with Ledger(path) as ledger:
            ledger.begin("cafe", jobs, {})
        state = load_ledger(path)
        assert state.host is not None and state.pid is not None
        assert not state.foreign_to()  # same machine
        assert state.foreign_to("some-other-box")
        assert not state.foreign_to(state.host)

    def test_schema_1_ledger_still_loads_and_is_never_foreign(self, tmp_path):
        # Pre-stamping ledgers carry no writer identity; they must load
        # (read compatibility) and never trigger the foreign-host path.
        path = tmp_path / "v1.jsonl"
        lines = [
            {
                "schema": 1,
                "kind": "campaign",
                "campaign_id": "old",
                "jobs": [{"job_id": "lint:chain", "kind": "lint",
                          "system": "chain", "params": {}}],
                "options": {},
            },
            {"schema": 1, "kind": "end", "summary": {"ok": True}},
        ]
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        state = load_ledger(str(path))
        assert state.campaign_id == "old"
        assert state.host is None and state.pid is None
        assert not state.foreign_to()
        assert not state.foreign_to("anything")

    def test_resume_on_foreign_host_warns(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        path = str(tmp_path / "moved.jsonl")
        assert main(["run", "chain", "--kinds", "lint", "--workers", "0",
                     "--ledger", path, "--no-cache"]) == 0
        capsys.readouterr()
        # Pretend this machine is not the one that wrote the ledger.
        monkeypatch.setattr("socket.gethostname", lambda: "elsewhere")
        assert main(["run", "chain", "--kinds", "lint", "--workers", "0",
                     "--resume", path, "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "different host" in err

    def test_resume_on_same_host_is_quiet(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "home.jsonl")
        assert main(["run", "chain", "--kinds", "lint", "--workers", "0",
                     "--ledger", path, "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["run", "chain", "--kinds", "lint", "--workers", "0",
                     "--resume", path, "--no-cache"]) == 0
        assert "different host" not in capsys.readouterr().err
