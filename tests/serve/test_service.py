"""VerificationService: admission, deadlines, caching, recovery.

All tests run inline workers (``isolation=False``) on cheap jobs so the
whole file stays fast; the subprocess-isolation path is covered by
``scripts/serve_chaos.py`` against real daemons.
"""

import time

import pytest

from repro.serve.app import ServeConfig, VerificationService


def make_service(tmp_path, **overrides):
    defaults = dict(
        workers=1,
        isolation=False,
        journal_path=str(tmp_path / "journal.jsonl"),
        backend="dir:" + str(tmp_path / "pool"),
        timeout_s=30.0,
        drain_grace_s=10.0,
    )
    defaults.update(overrides)
    return VerificationService(ServeConfig(**defaults))


def wait_done(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = service.get_job(job_id)
        if doc and doc["state"] == "done":
            return doc
        time.sleep(0.01)
    raise AssertionError("job {} did not settle".format(job_id))


@pytest.fixture
def service(tmp_path):
    svc = make_service(tmp_path)
    svc.start()
    yield svc
    svc.drain(grace_s=10.0)
    svc.journal.close()


def test_submit_and_poll_round_trip(service):
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    assert status == 202
    assert body["state"] == "queued"
    doc = wait_done(service, body["job_id"])
    assert doc["result"]["ok"] is True
    assert doc["result"]["status"] == "ok"
    assert doc["classifications"] == ["ok"]


def test_unknown_job_is_none(service):
    assert service.get_job("sv-nope") is None


@pytest.mark.parametrize(
    "body, fragment",
    [
        ({"kind": "zap", "system": "rm"}, "unknown kind"),
        ({"kind": "check", "system": "nope"}, "unknown system"),
        ({"kind": "analyze", "system": "rm", "deadline_ms": 0}, "deadline_ms"),
        ({"kind": "analyze", "system": "rm", "deadline_ms": "soon"}, "deadline_ms"),
        ({"kind": "analyze", "system": "rm", "max_retries": -1}, "max_retries"),
        ({"kind": "analyze", "system": "rm", "params": {"wat": 1}}, "unknown param"),
        ({"kind": "analyze", "system": "rm", "params": 7}, "params"),
        ({"kind": "analyze", "system": "rm", "chaos": "gremlins"}, "chaos"),
        # The retired perf-trajectory runner is no longer a job kind.
        ({"kind": "bench", "system": "rm"}, "unknown kind"),
        # Param *values* go through the kind's spec validators too, so
        # no malformed job is journaled or spawns a worker.
        ({"kind": "check", "system": "rm", "params": {"seeds": "x"}}, "seeds"),
        ({"kind": "check", "system": "rm", "params": {"seeds": -3, "steps": 1.5}}, "seeds"),
        ({"kind": "check", "system": "rm", "params": {"steps": 1.5}}, "steps"),
        ({"kind": "check", "system": "rm", "params": {"wall_time": "soon"}}, "wall_time"),
        ({"kind": "check", "system": "rm", "params": {"wall_time": 0}}, "wall_time"),
        ({"kind": "perturb", "system": "rm", "params": {"epsilon": "banana"}}, "epsilon"),
        ({"kind": "perturb", "system": "rm", "params": {"epsilon": -1}}, "epsilon"),
        ({"kind": "fuzz", "system": "gen", "params": {"start": -5}}, "start"),
        ({"kind": "fuzz", "system": "gen", "params": {"seed": "abc"}}, "seed"),
        ({"kind": "fuzz", "system": "gen", "params": {"count": 501}}, "cap"),
        ({"kind": "fuzz", "system": "gen", "params": {"count": True}}, "count"),
        ({"kind": "lint", "system": "rm", "params": {"max_states": -1}}, "max_states"),
        ({"kind": "lint", "system": "rm", "params": {"max_states": "many"}}, "max_states"),
        ({"kind": "analyze", "system": "rm", "params": {"strict": "yes"}}, "strict"),
        # Huge spellings are refused at once: no bigint power is built,
        # and no over-long int reaches the cache key's JSON.
        ({"kind": "check", "system": "rm", "params": {"seeds": "1e5000"}}, "seeds"),
        ({"kind": "check", "system": "rm", "params": {"seeds": "1e999999999"}}, "seeds"),
        ({"kind": "check", "system": "rm", "params": {"max_steps": 10**4000}}, "max_steps"),
        ({"kind": "perturb", "system": "rm", "params": {"epsilon": "1e-999999999"}}, "epsilon"),
        ({"kind": "analyze", "system": "rm", "deadline_ms": "1e999999999"}, "deadline_ms"),
        ({"kind": "analyze", "system": "rm", "max_retries": "1e5000"}, "max_retries"),
        # Generated names: only where the kind applies, only when valid.
        ({"kind": "fuzz", "system": "gen:fischer-3"}, "unknown system"),
        ({"kind": "lint", "system": "gen:fischer-99"}, "outside the feasible range"),
    ],
)
def test_bad_requests_are_400(service, body, fragment):
    status, payload = service.submit(body)
    assert status == 400
    assert fragment in payload["error"]
    assert service.jobs == {}  # nothing journaled, nothing queued


def test_warm_resubmit_is_a_cache_hit(service):
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    assert status == 202
    wait_done(service, body["job_id"])
    status, warm = service.submit({"kind": "analyze", "system": "rm"})
    assert status == 200  # answered at submit, no queueing
    assert warm["state"] == "done"
    assert warm["result"]["cached"] is True
    assert warm["result"]["job_id"] == warm["job_id"]  # rewritten to this request
    assert service.cache.stats()["hits"] == 1


def test_different_params_miss_the_cache(service):
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    wait_done(service, body["job_id"])
    status, other = service.submit(
        {"kind": "analyze", "system": "rm", "params": {"strict": True}}
    )
    assert status == 202  # different work, must run


def test_tight_deadline_degrades_to_partial_verdict(service):
    status, body = service.submit(
        {
            "kind": "check",
            "system": "rm",
            "params": {"seeds": 20, "steps": 400},
            "deadline_ms": 200,
        }
    )
    assert status == 202
    start = time.monotonic()
    doc = wait_done(service, body["job_id"], timeout=15.0)
    result = doc["result"]
    assert result["exhausted_budget"] is True
    assert result["conclusive"] is False
    assert result["status"] in ("budget", "deadline")
    assert time.monotonic() - start < 10.0


def test_deadline_partials_are_not_cached(service):
    body = {
        "kind": "check",
        "system": "rm",
        "params": {"seeds": 20, "steps": 400},
        "deadline_ms": 200,
    }
    status, doc = service.submit(body)
    wait_done(service, doc["job_id"], timeout=15.0)
    status, again = service.submit(body)
    assert status == 202  # a partial verdict must never be served warm


def test_queue_full_sheds_with_429(tmp_path):
    service = make_service(tmp_path, queue_depth=1)
    # Pool not started: the queue fills and stays full.
    statuses = [
        service.submit({"kind": "analyze", "system": "rm"})[0] for _ in range(3)
    ]
    assert statuses[0] == 202
    assert 429 in statuses
    shed_status, shed_body = service.submit({"kind": "analyze", "system": "rm"})
    assert shed_status == 429
    assert shed_body["retry_after_s"] >= 1.0
    # A shed job must not be resurrected by journal replay.
    from repro.serve.journal import load_journal

    state = load_journal(service.config.journal_path)
    assert len(state.pending) == 1
    service.journal.close()


def test_open_breaker_rejects_with_503(service):
    breaker = service.breakers.breaker("rm")
    for _ in range(service.config.breaker_threshold):
        breaker.record_failure()
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    assert status == 503
    assert body["retry_after_s"] > 0
    assert service.submit({"kind": "analyze", "system": "relay"})[0] == 202


def test_draining_rejects_submissions(service):
    service.draining = True
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    assert status == 503
    assert "draining" in body["error"]
    service.draining = False


def test_drain_settles_everything_and_returns_zero(tmp_path):
    service = make_service(tmp_path)
    service.start()
    ids = [
        service.submit({"kind": "analyze", "system": system})[1]["job_id"]
        for system in ("rm", "relay")
    ]
    assert service.drain(grace_s=30.0) == 0
    for job_id in ids:
        assert service.get_job(job_id)["state"] == "done"
    service.journal.close()


def test_drain_timeout_returns_4(tmp_path):
    from repro.serve.app import EXIT_DRAIN_TIMEOUT

    service = make_service(tmp_path, queue_depth=8)
    # Pool never started: queued jobs cannot finish inside any grace.
    service.submit({"kind": "analyze", "system": "rm"})
    assert service.drain(grace_s=0.1) == EXIT_DRAIN_TIMEOUT
    service.journal.close()


def test_stats_shape(service):
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    wait_done(service, body["job_id"])
    stats = service.stats()
    assert stats["jobs"] == {"done": 1}
    assert stats["queue"]["accepted"] == 1
    assert stats["backend"].startswith("dir:")
    assert stats["telemetry"]["counters"]["serve.completed"] == 1
    assert stats["recovered"] == 0
    assert not stats["draining"]


def test_finished_jobs_beyond_the_window_are_read_from_the_journal(
    service, monkeypatch
):
    from repro.serve import app

    monkeypatch.setattr(app, "KEPT_FINISHED_JOBS", 2)
    status, body = service.submit({"kind": "analyze", "system": "rm"})
    first = wait_done(service, body["job_id"])
    warm = [service.submit({"kind": "analyze", "system": "rm"})[1] for _ in range(3)]
    assert len(service.jobs) == 2
    assert set(service.jobs) == {warm[1]["job_id"], warm[2]["job_id"]}
    # The dropped jobs answer as a restarted daemon would: the
    # journaled request and result, without the attempt history.
    old = service.get_job(body["job_id"])
    assert old["state"] == "done" and old["result"] == first["result"]
    assert service.get_job(warm[0]["job_id"])["result"] == warm[0]["result"]
    assert service.get_job("sv-nope") is None
    assert service.stats()["jobs"] == {"done": 4}


def test_kill_and_replay_recovers_accepted_jobs(tmp_path):
    # Generation 1 accepts work and "dies" (journal never drained,
    # pool never ran).
    first = make_service(tmp_path)
    accepted = []
    for system in ("rm", "relay", "chain"):
        status, body = first.submit({"kind": "analyze", "system": system})
        assert status == 202
        accepted.append(body["job_id"])
    first.journal.close()  # kill -9: no drain entry

    # Generation 2 replays the journal and finishes every accepted job.
    second = make_service(tmp_path)
    second.start()
    try:
        assert second.recovered == len(accepted)
        for job_id in accepted:
            doc = wait_done(second, job_id)
            assert doc["recovered"] is True
            assert doc["result"]["ok"] is True
    finally:
        assert second.drain(grace_s=30.0) == 0
        second.journal.close()
    from repro.serve.journal import load_journal

    assert load_journal(str(tmp_path / "journal.jsonl")).complete


def test_replay_preserves_finished_results(tmp_path):
    first = make_service(tmp_path)
    first.start()
    status, body = first.submit({"kind": "analyze", "system": "rm"})
    done = wait_done(first, body["job_id"])
    assert first.drain(grace_s=30.0) == 0
    first.journal.close()

    second = make_service(tmp_path)
    second.start()
    try:
        assert second.recovered == 0
        replayed = second.get_job(body["job_id"])
        assert replayed["state"] == "done"
        assert replayed["result"]["ok"] == done["result"]["ok"]
    finally:
        second.drain(grace_s=10.0)
        second.journal.close()


@pytest.mark.parametrize("max_retries, attempts", [(0, 1), (2, 3)])
def test_request_max_retries_is_the_retry_allowance(
    tmp_path, monkeypatch, max_retries, attempts
):
    # Every attempt returns garbage (a transient ``malformed``): the
    # request's own max_retries, not the daemon's policy default,
    # decides how many attempts it gets.
    monkeypatch.setattr(
        "repro.runner.attempts.execute_job", lambda job: ["not", "a", "payload"]
    )
    service = make_service(tmp_path)
    service.start()
    try:
        status, body = service.submit(
            {"kind": "analyze", "system": "rm", "max_retries": max_retries}
        )
        assert status == 202
        doc = wait_done(service, body["job_id"])
        assert doc["attempts"] == attempts
        assert doc["classifications"] == ["malformed"] * attempts
        assert doc["result"]["status"] == "malformed"
    finally:
        service.drain(grace_s=10.0)
        service.journal.close()
