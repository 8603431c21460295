"""The wire protocol: routes, status codes, headers, JSON bodies."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.app import ServeConfig, VerificationService, build_server


@pytest.fixture
def daemon(tmp_path):
    """An in-process daemon on an ephemeral port with inline workers."""
    config = ServeConfig(
        port=0,
        workers=1,
        isolation=False,
        journal_path=str(tmp_path / "journal.jsonl"),
        backend="sqlite:" + str(tmp_path / "pool.db"),
    )
    service = VerificationService(config)
    service.start()
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:{}".format(server.server_address[1])

    def request(method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=15) as resp:
                return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode()), dict(exc.headers)

    request.base = base
    yield service, request
    service.drain(grace_s=10.0)
    server.shutdown()
    server.server_close()
    service.journal.close()


def _wait_done(request, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, doc, _ = request("GET", "/v1/jobs/" + job_id)
        if status == 200 and doc["state"] == "done":
            return doc
        time.sleep(0.02)
    raise AssertionError("job never settled over HTTP")


def test_healthz_and_readyz(daemon):
    _, request = daemon
    status, body, _ = request("GET", "/v1/healthz")
    assert status == 200 and body["ok"] is True
    status, body, _ = request("GET", "/v1/readyz")
    assert status == 200 and body["ready"] is True


def test_readyz_flips_when_draining(daemon):
    service, request = daemon
    service.draining = True
    status, body, _ = request("GET", "/v1/readyz")
    assert status == 503 and body["ready"] is False
    service.draining = False


def test_submit_poll_round_trip(daemon):
    _, request = daemon
    status, body, _ = request(
        "POST", "/v1/jobs", {"kind": "analyze", "system": "rm"}
    )
    assert status == 202
    doc = _wait_done(request, body["job_id"])
    assert doc["result"]["ok"] is True
    # the wire result is the public projection: no schema/telemetry
    assert "telemetry" not in doc["result"]
    assert "schema" not in doc["result"]


def test_warm_hit_answers_200_at_submit(daemon):
    _, request = daemon
    status, body, _ = request("POST", "/v1/jobs", {"kind": "analyze", "system": "rm"})
    _wait_done(request, body["job_id"])
    status, warm, _ = request("POST", "/v1/jobs", {"kind": "analyze", "system": "rm"})
    assert status == 200
    assert warm["state"] == "done"
    assert warm["result"]["cached"] is True


def test_unknown_job_404(daemon):
    _, request = daemon
    assert request("GET", "/v1/jobs/sv-missing")[0] == 404


def test_unknown_path_404(daemon):
    _, request = daemon
    assert request("GET", "/v2/everything")[0] == 404
    assert request("POST", "/v1/other", {})[0] == 404


def test_bad_body_400(daemon):
    _, request = daemon

    for kind in ("zap", "bench"):
        status, body, _ = request("POST", "/v1/jobs", {"kind": kind, "system": "rm"})
        assert status == 400
    # A malformed param value is a 400 with a reason, not a dropped
    # connection or a worker that fails later.
    for kind, system, params in (
        ("check", "rm", {"seeds": "x"}),
        ("fuzz", "gen", {"seed": "abc"}),
        # Too big to be a seed count: refused before any bigint work.
        ("check", "rm", {"seeds": "1e999999999"}),
    ):
        status, body, _ = request(
            "POST", "/v1/jobs", {"kind": kind, "system": system, "params": params}
        )
        assert status == 400
        assert "seed" in body["error"]
    # Non-object JSON
    req = urllib.request.Request(
        request.base + "/v1/jobs", data=b"[1, 2]", method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=15):
            raise AssertionError("expected 400")
    except urllib.error.HTTPError as exc:
        assert exc.code == 400


def test_429_carries_retry_after(tmp_path):
    config = ServeConfig(
        port=0,
        workers=1,
        isolation=False,
        queue_depth=1,
        journal_path=str(tmp_path / "journal.jsonl"),
        backend="dir:" + str(tmp_path / "pool"),
    )
    service = VerificationService(config)
    # Workers deliberately not started: the queue fills immediately.
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:{}".format(server.server_address[1])
    try:
        body = json.dumps({"kind": "analyze", "system": "rm"}).encode()
        codes = []
        retry_after = None
        for _ in range(3):
            req = urllib.request.Request(base + "/v1/jobs", data=body, method="POST")
            try:
                with urllib.request.urlopen(req, timeout=15) as resp:
                    codes.append(resp.status)
            except urllib.error.HTTPError as exc:
                codes.append(exc.code)
                retry_after = exc.headers.get("Retry-After")
        assert 202 in codes and 429 in codes
        assert retry_after is not None and int(retry_after) >= 1
    finally:
        server.shutdown()
        server.server_close()
        service.journal.close()


def test_stats_over_http(daemon):
    _, request = daemon
    status, body, _ = request("POST", "/v1/jobs", {"kind": "analyze", "system": "rm"})
    _wait_done(request, body["job_id"])
    status, stats, _ = request("GET", "/v1/stats")
    assert status == 200
    assert stats["queue"]["accepted"] == 1
    assert stats["backend"].startswith("sqlite:")
    assert stats["telemetry"]["counters"]["serve.completed"] == 1


def test_keep_alive_exchanges_do_not_stall(daemon):
    # Nagle's algorithm on the server socket held each response body
    # back for the client's delayed ACK: 40+ ms per keep-alive exchange.
    _, request = daemon
    port = int(request.base.rsplit(":", 1)[1])
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        walls = []
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]
            walls.append(time.perf_counter() - start)
    finally:
        conn.close()
    assert statistics.median(walls) < 0.020, walls
