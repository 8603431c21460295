"""The attempt automaton: one transition table, three transports.

``settle`` is checked cell by cell; then a property test scripts the
payloads ``execute_job`` returns and runs the same job through the
local supervisor, the dist coordinator and the serving pool, which must
agree on the outcome and (for the two ledger-keeping transports) on
every ``attempt``/``done`` line.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
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


def _report_memos(queue):
    """An attempt-process body: what the fork inherited."""
    from repro.gen.families import build_bundle
    from repro.surface import _shipped

    queue.put(
        {
            "preloaded": "repro.runner.preload" in sys.modules,
            "shipped": _shipped.cache_info().currsize,
            "gen": build_bundle.cache_info().currsize,
        }
    )


#: Runs in a fresh interpreter over a copy of the package: one stored
#: verdict, an edit to a module in its closure, then two more attempts
#: at the same work; prints what each attempt returned and what the
#: cache holds under the edited code's key.
_GUARD_SCRIPT = r"""
import json, os, sys
from repro.cache.store import VerdictCache
from repro.runner.attempts import run_isolated
from repro.runner.jobs import Job, job_cache_parts

def attempt(n):
    job = Job(job_id="analyze:rm:%d" % n, kind="analyze", system="rm")
    payload, timed_out = run_isolated(job.to_dict(), 0, 60.0)
    assert not timed_out and payload["error"] is None, payload
    return {"detail": payload["detail"], "stale": payload.get("stale_code", False)}

first = attempt(0)
driver = os.path.join(sys.argv[1], "analyze", "driver.py")
with open(driver) as fh:
    source = fh.read()
with open(driver, "w") as fh:
    fh.write(source.replace("obligations discharged", "obligations discharged (edited)"))
second = attempt(1)
third = attempt(2)
parts = job_cache_parts(Job(job_id="any", kind="analyze", system="rm"))
entry = VerdictCache(os.environ["REPRO_CACHE_DIR"]).lookup("analyze", "rm", parts)
print(json.dumps({"runs": [first, second, third],
                  "stored": None if entry is None else entry["detail"]}))
"""

#: The in-process form of the same edit: one ``check all``-style loop
#: runs three systems in this interpreter, with the edit after the
#: first.
_INLINE_SCRIPT = r"""
import json, os, sys
from repro.runner.jobs import Job, execute_job

def run(system):
    payload = execute_job(Job(job_id="analyze:" + system, kind="analyze", system=system))
    assert payload["error"] is None, payload
    return {"detail": payload["detail"], "key": payload.get("verdict_key"),
            "stale": payload.get("stale_code", False)}

first = run("rm")
driver = os.path.join(sys.argv[1], "analyze", "driver.py")
with open(driver) as fh:
    source = fh.read()
with open(driver, "w") as fh:
    fh.write(source.replace("obligations discharged", "obligations discharged (edited)"))
print(json.dumps([first, run("relay"), run("chain")]))
"""

#: What a fresh interpreter, which hashes the package as it is now,
#: finds in the cache for ``analyze relay`` and ``analyze chain``.
_LOOKUP_SCRIPT = r"""
import json, os
from repro.cache.fingerprint import verdict_key
from repro.cache.store import VerdictCache
from repro.runner.jobs import Job, job_cache_parts

cache = VerdictCache(os.environ["REPRO_CACHE_DIR"])
found = []
for system in ("relay", "chain"):
    parts = job_cache_parts(Job(job_id="any", kind="analyze", system=system))
    entry = cache.lookup("analyze", system, parts)
    found.append({"key": verdict_key("analyze", system, parts),
                  "stored": None if entry is None else entry["detail"]})
print(json.dumps(found))
"""


def _package_copy(tmp_path):
    """A copy of the installed package to edit, and the environment
    that runs a script over it with a cache of its own."""
    import repro

    src = tmp_path / "src"
    shutil.copytree(
        os.path.dirname(os.path.abspath(repro.__file__)),
        src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        REPRO_CACHE="1",
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
    )
    return str(src / "repro"), env


def _run_script(script, root, env):
    done = subprocess.run(
        [sys.executable, "-c", script, root],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestForkserver:
    """Attempts fork from a forkserver that imported the job modules
    once; its code is frozen, so a verdict from code that changed on
    disk since must never be stored under the new code's key."""

    def test_forked_attempt_starts_with_empty_memos(self):
        from repro.runner import attempts

        queue = attempts._CONTEXT.SimpleQueue()
        process = attempts._CONTEXT.Process(target=_report_memos, args=(queue,))
        process.start()
        report = queue.get()
        process.join(10.0)
        assert report["shipped"] == 0 and report["gen"] == 0
        if attempts._CONTEXT.get_start_method() == "forkserver":
            assert report["preloaded"]

    def test_child_takes_the_parent_environment_of_the_moment(self, monkeypatch, tmp_path):
        from repro.runner.attempts import run_isolated

        run_isolated(scripted_job().to_dict(), 0, 30.0)  # the forkserver is up
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        job = Job(job_id="analyze:rm", kind="analyze", system="rm")
        payload, _ = run_isolated(job.to_dict(), 0, 60.0)
        assert payload["ok"] and not payload.get("stale_code")
        assert (tmp_path / "cache").is_dir()

    def test_stale_code_is_never_stored_under_the_new_key(self, tmp_path):
        root, env = _package_copy(tmp_path)
        report = _run_script(_GUARD_SCRIPT, root, env)
        first, second, third = report["runs"]
        assert "(edited)" not in first["detail"] and not first["stale"]
        # The forkserver still runs the old code: the attempt says so
        # and stores nothing; the next one forks from a fresh server.
        assert second["stale"] and "(edited)" not in second["detail"]
        assert "(edited)" in third["detail"] and not third["stale"]
        assert report["stored"] == third["detail"]

    def test_in_process_loop_keys_on_the_code_it_runs(self, tmp_path):
        root, env = _package_copy(tmp_path)
        _, *after_edit = _run_script(_INLINE_SCRIPT, root, env)
        # The loop imported the driver before the edit and keeps the
        # scan it hashed then: old code under the old key, every time.
        for ran, now in zip(after_edit, _run_script(_LOOKUP_SCRIPT, root, env)):
            assert "(edited)" not in ran["detail"] and not ran["stale"]
            assert ran["key"] is not None and ran["key"] != now["key"]
            assert now["stored"] is None


class TestStoresUseTheAttemptKey:
    """A transport stores a verdict under the key its attempt hashed,
    never under one it hashes itself, and nothing without one."""

    PAYLOAD = {
        "job_id": "analyze:rm",
        "ok": True,
        "conclusive": True,
        "exhausted_budget": False,
        "detail": "d",
        "error": None,
        "status": "ok",
    }

    def job(self):
        return Job(job_id="analyze:rm", kind="analyze", system="rm")

    def cache(self, tmp_path):
        from repro.cache.store import VerdictCache

        return VerdictCache(str(tmp_path / "cache"))

    def test_serve_stores_under_the_attempt_key(self, tmp_path):
        from repro.serve.app import VerificationService

        service = mock.Mock(cache=self.cache(tmp_path))
        keyed = dict(self.PAYLOAD, verdict_key="a" * 64)
        VerificationService._job_done(service, ServeJob(job=self.job(), result=keyed))
        assert service.cache.backend.get("a" * 64) is not None
        assert service.cache.lookup("analyze", "rm", {}) is None
        VerificationService._job_done(service, ServeJob(job=self.job(), result=self.PAYLOAD))
        assert service.cache.stores == 1

    def test_dist_stores_under_the_attempt_key(self, tmp_path):
        from repro.dist.cache_sync import cacheable_entry, store_entry

        cache = self.cache(tmp_path)
        assert cacheable_entry(self.job(), self.PAYLOAD) is None
        entry = cacheable_entry(self.job(), dict(self.PAYLOAD, verdict_key="b" * 64))
        assert store_entry(cache, self.job(), entry)
        assert cache.backend.get("b" * 64) is not None
        assert not store_entry(cache, self.job(), self.PAYLOAD)
