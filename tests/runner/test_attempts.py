"""The attempt automaton: one transition table, three transports.

``settle`` is checked cell by cell; then a property test scripts the
payloads ``execute_job`` returns and runs the same job through the
local supervisor, the dist coordinator and the serving pool, which must
agree on the outcome and (for the two ledger-keeping transports) on
every ``attempt``/``done`` line.
"""

import itertools
import os
import tempfile
import threading
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import DistConfig, DistCoordinator, DistWorker, parse_plan
from repro.obs.instrument import Recorder
from repro.runner import FAILURE_CLASSES, TRANSIENT_CLASSES, Job, Ledger, Supervisor
from repro.runner.attempts import (
    AttemptState,
    Retry,
    RetryPolicy,
    Terminal,
    classify_attempt,
    settle,
)
from repro.runner.jobs import RESULT_SCHEMA_VERSION
from repro.serialize import ledger_entries_from_jsonl
from repro.serve.journal import Journal
from repro.serve.queue import AdmissionQueue
from repro.serve.resilience import BreakerBoard
from repro.serve.workers import ServeJob, WorkerPool

JOB_ID = "lint:scripted"

#: Coordinator-only ledger fields: who ran the attempt, under which lease.
IDENTITY_KEYS = {"worker", "worker_host", "worker_pid", "address", "epoch"}


def payload_for(cls, job_id=JOB_ID):
    """A worker payload that classifies as ``cls`` (``None`` for
    ``crash``/``timeout``, which no payload can express)."""
    if cls in ("crash", "timeout"):
        return None
    if cls == "malformed":
        return ["not", "a", "payload"]
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "job_id": job_id,
        "ok": cls in ("ok", "budget"),
        "conclusive": cls != "budget",
        "exhausted_budget": cls == "budget",
        "detail": "scripted " + cls,
        "error": {"type": "ReproError", "message": "boom"} if cls == "error" else None,
    }


def scripted(script):
    """An ``execute_job`` stand-in replaying ``script`` (one class per
    call, then ``ok`` forever)."""
    calls = itertools.count()

    def execute_job(job):
        index = next(calls)
        return payload_for(script[index] if index < len(script) else "ok", job.job_id)

    return execute_job


def scripted_job(expect_failure=False):
    # ``cache: False`` opts the job out of the verdict cache, so no cache
    # layer can answer in place of the scripted execution.
    return Job(
        job_id=JOB_ID,
        kind="lint",
        system="rm",
        params={"cache": False},
        expect_failure=expect_failure,
    )


class TestTransitionTable:
    @pytest.mark.parametrize("classification", FAILURE_CLASSES)
    @pytest.mark.parametrize("retries_left", [True, False])
    @pytest.mark.parametrize("expect_failure", [False, True])
    def test_every_cell(self, classification, retries_left, expect_failure):
        payload = payload_for(classification)
        timed_out = classification == "timeout"
        assert classify_attempt(JOB_ID, payload, timed_out)[0] == classification
        state = AttemptState(
            job=scripted_job(expect_failure), attempt=3, retries=1, budget_scale=4,
            classifications=["crash", "budget", "timeout"],
        )
        policy = RetryPolicy(base=0.1, cap=2.0, jitter=0.0)
        decision = settle(
            state, classification, "d", payload, policy, 2 if retries_left else 1
        )
        if classification in TRANSIENT_CLASSES and retries_left:
            assert isinstance(decision, Retry)
            assert decision.backoff == pytest.approx(0.2)  # delay(retries=1)
            assert decision.budget_scale == (16 if classification == "budget" else 4)
            return
        assert isinstance(decision, Terminal)
        outcome = decision.outcome
        expected = {
            # class: (status, ok) without / with expect_failure
            "ok": (("ok", True), ("unexpected-pass", False)),
            "verdict": (("verdict", False), ("expected-failure", True)),
            "budget": (("budget", True), ("budget", True)),
        }.get(classification, ((classification, False), (classification, False)))
        assert (outcome.status, outcome.ok) == expected[expect_failure]
        assert outcome.conclusive == (classification != "budget")
        assert outcome.attempts == 4 and outcome.retries == 1
        assert outcome.classifications == ["crash", "budget", "timeout", classification]
        assert outcome.expect_failure == expect_failure
        assert (outcome.error is not None) == (classification == "error")
        # settle reads the state and never writes it.
        assert state.attempt == 3 and state.budget_scale == 4
        assert state.classifications == ["crash", "budget", "timeout"]

    def test_one_crash_detail_without_identity(self):
        assert classify_attempt(JOB_ID, None, False) == (
            "crash",
            "worker exited without a result",
        )

    def test_backoff_exponent_is_the_retry_count(self):
        state = AttemptState(job=scripted_job(), attempt=5, retries=0)
        policy = RetryPolicy(base=0.1, cap=10.0, jitter=0.0)
        decision = settle(state, "crash", "", None, policy, 2)
        assert decision.backoff == pytest.approx(0.1)  # delay(0), not delay(5)


@pytest.fixture(scope="module")
def dist_host():
    """One in-process dist worker serving every coordinator in turn."""
    ports = []
    worker = DistWorker(port=0, isolation=False, quiet=True, on_ready=ports.append)
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    deadline = time.monotonic() + 5.0
    while not ports and time.monotonic() < deadline:
        time.sleep(0.01)
    assert ports, "worker never bound"
    yield ("127.0.0.1", ports[0])
    worker.stop()


def config_for(host, **kwargs):
    return DistConfig(hosts=[host], lease_ms=4000, heartbeat_ms=400, **kwargs)


def ledger_lines(path):
    """The ``attempt``/``done`` lines, minus coordinator identity and
    the measured wall."""
    lines = []
    for entry in ledger_entries_from_jsonl(open(path).read()):
        if entry["kind"] == "attempt":
            lines.append({k: v for k, v in entry.items() if k not in IDENTITY_KEYS})
        elif entry["kind"] == "done":
            entry["outcome"].pop("wall")
            lines.append(entry)
    return lines


def outcome_dict(report):
    (outcome,) = report.outcomes
    body = outcome.to_dict()
    body.pop("wall")
    return body


CLASSES = ["ok", "verdict", "budget", "error", "malformed"]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    script=st.lists(st.sampled_from(CLASSES), min_size=1, max_size=5),
    max_retries=st.integers(min_value=0, max_value=3),
    expect_failure=st.booleans(),
)
def test_transports_agree(dist_host, script, max_retries, expect_failure):
    job = scripted_job(expect_failure)
    with tempfile.TemporaryDirectory() as tmp:
        local_path = os.path.join(tmp, "local.jsonl")
        dist_path = os.path.join(tmp, "dist.jsonl")
        with mock.patch("repro.runner.attempts.execute_job", scripted(script)):
            with Ledger(local_path) as ledger:
                local = Supervisor(
                    [job],
                    workers=0,
                    retry=RetryPolicy(max_retries=max_retries, base=0),
                    ledger=ledger,
                ).run()
        with mock.patch("repro.runner.attempts.execute_job", scripted(script)):
            with Ledger(dist_path) as ledger:
                dist = DistCoordinator(
                    [job],
                    config_for(dist_host),
                    retry=RetryPolicy(max_retries=max_retries, base=0),
                    ledger=ledger,
                    local_fallback=False,
                ).run()
        assert outcome_dict(dist) == outcome_dict(local)
        assert ledger_lines(dist_path) == ledger_lines(local_path)

        if expect_failure:
            return  # serving requests never carry expect_failure
        pool = WorkerPool(
            AdmissionQueue(max_depth=4),
            Journal(os.path.join(tmp, "journal.jsonl")),
            BreakerBoard(),
            Recorder(max_events=0),
            workers=1,
            isolation=False,
            retry=RetryPolicy(base=0),
        )
        served = ServeJob(job=job, max_retries=max_retries)
        with mock.patch("repro.runner.attempts.execute_job", scripted(script)):
            pool._process(served)
        pool.journal.close()
        (outcome,) = local.outcomes
        assert served.result["status"] == outcome.status
        assert served.attempts == outcome.attempts
        assert served.classifications == outcome.classifications


def test_reassignments_do_not_stretch_the_payload_backoff(tmp_path):
    # Two severed result frames reclaim the job twice (host losses);
    # the third attempt's payload is a crash.  Its backoff is the first
    # payload retry's — delay(0) — however many attempts came before.
    ports = []
    worker = DistWorker(
        port=0,
        isolation=False,
        quiet=True,
        on_ready=ports.append,
        chaos=parse_plan("sever@result:1,sever@result:2"),
    )
    threading.Thread(target=worker.serve_forever, daemon=True).start()
    deadline = time.monotonic() + 5.0
    while not ports and time.monotonic() < deadline:
        time.sleep(0.01)
    policy = RetryPolicy(max_retries=2, base=0.05, cap=2.0, jitter=0.25)
    path = str(tmp_path / "ledger.jsonl")
    try:
        with mock.patch(
            "repro.runner.attempts.execute_job", scripted(["ok", "ok", "crash"])
        ):
            with Ledger(path) as ledger:
                report = DistCoordinator(
                    [scripted_job()],
                    config_for(("127.0.0.1", ports[0]), reconnect_attempts=5),
                    retry=policy,
                    ledger=ledger,
                    local_fallback=False,
                ).run()
    finally:
        worker.stop()
    assert report.ok
    attempts = [
        e for e in ledger_entries_from_jsonl(open(path).read()) if e["kind"] == "attempt"
    ]
    assert [e["classification"] for e in attempts] == ["crash", "crash", "crash", "ok"]
    assert [e["backoff"] for e in attempts[:2]] == [None, None]  # host losses
    assert attempts[2]["detail"] == "worker exited without a result"
    assert 0.05 <= attempts[2]["backoff"] <= 0.05 * 1.25


class TestLargePayloads:
    """A payload far larger than the pipe buffer (~64 KB) must be read
    while the worker is still writing it; joining first would leave the
    worker blocked in ``put`` until the watchdog classified the attempt
    as a timeout."""

    #: ``execute_job`` echoes the job id into its payload.
    BIG_ID = "fuzz:large:" + "x" * (1 << 20)

    def big_job(self):
        return Job(
            job_id=self.BIG_ID,
            kind="fuzz",
            system="gen",
            params={"count": 1, "seed": 0, "cache": False},
        )

    def test_run_isolated_reads_a_megabyte_payload(self):
        from repro.runner.attempts import run_isolated

        payload, timed_out = run_isolated(self.big_job().to_dict(), 0, watchdog_s=30.0)
        assert not timed_out
        assert payload["job_id"] == self.BIG_ID and payload["ok"]
        assert classify_attempt(self.BIG_ID, payload, False)[0] == "ok"

    def test_supervisor_settles_a_megabyte_payload_ok(self):
        report = Supervisor(
            [self.big_job()], workers=1, timeout=30.0, retry=RetryPolicy(max_retries=0)
        ).run()
        (outcome,) = report.outcomes
        assert outcome.status == "ok", outcome.detail
        assert outcome.attempts == 1
