#!/usr/bin/env python3
"""Chaos test for the serving daemon (`python -m repro serve`).

Asserts the five fault-tolerance guarantees docs/serving.md promises,
end to end over real HTTP against real daemon processes:

A. **kill -9 loses nothing** — a daemon under concurrent load is
   SIGKILLed mid-flight and restarted on the same journal; every
   accepted job must reach a terminal state (journal replay), and warm
   resubmits of settled work must be sub-100ms cache hits.
B. **circuit breakers** — a system whose workers always crash trips
   its breaker open (503 + Retry-After up front), and after the
   cool-down a half-open probe with a healthy worker closes it again.
C. **deadlines degrade, never hang** — a request with a tight
   ``deadline_ms`` settles quickly as a partial ``exhausted_budget``
   verdict instead of overrunning its deadline.
D. **malformed params are refused at admission** — on one keep-alive
   connection, requests whose param values fail their kind's
   validators (``repro.catalog.KIND_SPECS``) get a 400 body, spawn no
   attempt, and leave the connection serving the next valid request.
E. **no process outlives the daemon** — each daemon leads its own
   process group, which holds the attempt forkserver once an isolated
   attempt has run; 2 s after a SIGTERM drain no process of the group
   is alive, and after a kill -9 the forkserver exits too once its
   parent is gone.

Run from the repo root (CI's serve-smoke job does):

    python scripts/serve_chaos.py

Exits 0 when every scenario holds, 1 with a FAIL line otherwise.
Stdlib only, like everything else in this repo.
"""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

FAILURES = []


def check(ok, label):
    line = "{}: {}".format("ok" if ok else "FAIL", label)
    print(line)
    if not ok:
        FAILURES.append(label)
    return ok


class Daemon:
    """One `repro serve` process bound to an ephemeral port."""

    def __init__(self, workdir, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,  # its own process group
        )
        line = self.proc.stdout.readline()
        if "serving on" not in line:
            rest = self.proc.stdout.read()
            raise RuntimeError("daemon failed to start: {}{}".format(line, rest))
        self.port = int(line.split("serving on ", 1)[1].split(" ")[0].rsplit(":", 1)[1])
        self.base = "http://127.0.0.1:{}".format(self.port)

    def request(self, method, path, body=None, timeout=30):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode()), dict(exc.headers)

    def wait_done(self, job_id, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, doc, _ = self.request("GET", "/v1/jobs/" + job_id)
            if status == 200 and doc.get("state") == "done":
                return doc
            time.sleep(0.05)
        raise RuntimeError("job {} not done within {}s".format(job_id, timeout))

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def sigterm(self, timeout=60):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:  # the group is already empty
            pass


def live_group_members(pgid):
    """Pids of the processes of group ``pgid`` that are alive (zombies
    wait only for a reaper), or ``None`` where there is no ``/proc``."""
    if not os.path.isdir("/proc/self"):
        return None
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def group_empty_within(pgid, grace_s):
    """True once no process of group ``pgid`` is alive, polling up to
    ``grace_s`` seconds."""
    deadline = time.monotonic() + grace_s
    while True:
        members = live_group_members(pgid)
        if members is None:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return True
        elif not members:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


def scenario_crash_recovery(root):
    """A: SIGKILL under load; restart replays the journal; warm hits."""
    print("--- scenario A: kill -9 recovery + warm cache")
    workdir = os.path.join(root, "a")
    os.makedirs(workdir)
    args = ("--inline", "--workers", "2", "--journal", "j.jsonl",
            "--backend", "sqlite:verdicts.db")
    daemon = Daemon(workdir, *args)
    accepted = []
    try:
        # A mix of quick and slow jobs so the kill lands mid-flight.
        batch = (
            [{"kind": "analyze", "system": s} for s in ("rm", "relay", "chain")]
            + [{"kind": "check", "system": "rm", "params": {"seeds": 2, "steps": 60}}
               for _ in range(4)]
            + [{"kind": "check", "system": "relay", "params": {"seeds": 2, "steps": 60}}
               for _ in range(3)]
        )
        for body in batch:
            status, doc, _ = daemon.request("POST", "/v1/jobs", body)
            check(status in (200, 202), "submit accepted (got {})".format(status))
            accepted.append(doc["job_id"])
        # Kill as soon as the first job has finished, so some are done
        # and the rest are still queued or in flight whatever the host's
        # speed (a fixed sleep let every job finish first on fast hosts).
        daemon.wait_done(accepted[0])
        daemon.sigkill()
    finally:
        daemon.stop()

    daemon = Daemon(workdir, *args)  # same journal, same cache
    try:
        docs = {job_id: daemon.wait_done(job_id) for job_id in accepted}
        check(
            all(doc["state"] == "done" for doc in docs.values()),
            "all {} accepted jobs terminal after kill -9 + replay".format(len(accepted)),
        )
        check(
            any(doc.get("recovered") for doc in docs.values()),
            "at least one job was finished by journal replay",
        )
        # Warm resubmits: identical work settled above must come straight
        # from the verdict cache, fast.
        for body in batch[:3]:
            start = time.monotonic()
            status, doc, _ = daemon.request("POST", "/v1/jobs", body)
            elapsed_ms = (time.monotonic() - start) * 1000
            cached = doc.get("result", {}).get("cached")
            check(
                status == 200 and cached and elapsed_ms < 100,
                "warm resubmit {}/{} cache hit in {:.1f}ms".format(
                    body["kind"], body["system"], elapsed_ms),
            )
        code = daemon.sigterm()
        check(code == 0, "graceful drain exits 0 (got {})".format(code))
    finally:
        daemon.stop()


def scenario_circuit_breaker(root):
    """B: always-crashing workers trip the breaker; probe recovers it."""
    print("--- scenario B: circuit breaker trip + half-open recovery")
    workdir = os.path.join(root, "b")
    os.makedirs(workdir)
    daemon = Daemon(
        workdir, "--workers", "1", "--journal", "j.jsonl",
        "--breaker-threshold", "2", "--breaker-cooldown", "2",
        "--timeout", "30",
    )
    try:
        # chaos=crash fires on attempt 0; max_retries 0 makes each job a
        # terminal crash classification.
        for _ in range(2):
            status, doc, _ = daemon.request(
                "POST", "/v1/jobs",
                {"kind": "analyze", "system": "relay", "chaos": "crash",
                 "max_retries": 0},
            )
            check(status == 202, "crash-chaos job accepted")
            doc = daemon.wait_done(doc["job_id"])
            check(
                doc["result"]["status"] == "crash",
                "chaos job classified crash (got {})".format(doc["result"]["status"]),
            )
        status, doc, headers = daemon.request(
            "POST", "/v1/jobs", {"kind": "analyze", "system": "relay"})
        check(status == 503, "breaker open rejects up front (got {})".format(status))
        check("Retry-After" in headers, "503 carries Retry-After")
        _, stats, _ = daemon.request("GET", "/v1/stats")
        check(
            stats["breakers"]["relay"]["state"] == "open",
            "stats report breaker open",
        )
        # Other systems are unaffected by relay's quarantine.
        status, doc, _ = daemon.request("POST", "/v1/jobs",
                                        {"kind": "analyze", "system": "rm"})
        check(status in (200, 202), "other systems still admitted")
        if status == 202:
            daemon.wait_done(doc["job_id"])

        time.sleep(2.2)  # past the cool-down: next request is the probe
        status, doc, _ = daemon.request("POST", "/v1/jobs",
                                        {"kind": "analyze", "system": "relay"})
        check(status in (200, 202), "half-open probe admitted (got {})".format(status))
        if status == 202:
            doc = daemon.wait_done(doc["job_id"])
            check(doc["result"]["ok"], "probe succeeded")
        _, stats, _ = daemon.request("GET", "/v1/stats")
        breaker = stats["breakers"]["relay"]
        check(breaker["state"] == "closed", "breaker closed after probe")
        check(breaker["trips"] >= 1, "breaker recorded its trip")
    finally:
        daemon.stop()


def scenario_deadlines(root):
    """C: tight deadline_ms settles as a partial verdict, fast."""
    print("--- scenario C: deadlines degrade to exhausted_budget")
    workdir = os.path.join(root, "c")
    os.makedirs(workdir)
    daemon = Daemon(workdir, "--inline", "--workers", "1", "--journal", "j.jsonl")
    try:
        start = time.monotonic()
        status, doc, _ = daemon.request(
            "POST", "/v1/jobs",
            {"kind": "check", "system": "rm",
             "params": {"seeds": 20, "steps": 400}, "deadline_ms": 300},
        )
        check(status == 202, "deadline job accepted")
        doc = daemon.wait_done(doc["job_id"], timeout=15)
        elapsed = time.monotonic() - start
        result = doc["result"]
        check(
            result["exhausted_budget"] and not result["conclusive"],
            "tight deadline yields a partial exhausted_budget verdict "
            "(status {})".format(result["status"]),
        )
        check(
            elapsed < 5.0,
            "deadline job settled in {:.2f}s, not at its own pace".format(elapsed),
        )
        code = daemon.sigterm()
        check(code == 0, "drain exits 0 (got {})".format(code))
    finally:
        daemon.stop()


def scenario_param_validation(root):
    """D: malformed param values are 400s; the connection lives on."""
    print("--- scenario D: param validation on one keep-alive connection")
    workdir = os.path.join(root, "d")
    os.makedirs(workdir)
    daemon = Daemon(workdir, "--workers", "1", "--journal", "j.jsonl")
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)

    def exchange(method, path, body=None):
        data = None if body is None else json.dumps(body)
        conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())

    def attempts():
        _, stats = exchange("GET", "/v1/stats")
        timers = stats["telemetry"].get("timers", {})
        return sum(t["calls"] for n, t in timers.items() if n.startswith("serve.attempt."))

    try:
        before = attempts()
        for body, param in (
            ({"kind": "check", "system": "rm", "params": {"seeds": "x"}}, "seeds"),
            ({"kind": "lint", "system": "rm", "params": {"max_states": "many"}}, "max_states"),
            ({"kind": "fuzz", "system": "gen", "params": {"seed": "abc"}}, "seed"),
            # Refused at once, not after a billion-digit power.
            ({"kind": "perturb", "system": "rm", "params": {"epsilon": "1e-999999999"}},
             "epsilon"),
        ):
            status, doc = exchange("POST", "/v1/jobs", body)
            check(
                status == 400 and param in doc.get("error", ""),
                "malformed {} params answered 400 naming {!r} (got {})".format(
                    body["kind"], param, status),
            )
        _, stats = exchange("GET", "/v1/stats")
        check(stats["jobs"] == {}, "rejected requests left no job behind")
        check(attempts() == before, "rejected requests spawned no attempt")
        status, doc = exchange("POST", "/v1/jobs", {"kind": "analyze", "system": "chain"})
        check(status in (200, 202), "valid request on the same connection admitted "
              "(got {})".format(status))
        deadline = time.monotonic() + 60
        while doc.get("state") != "done" and time.monotonic() < deadline:
            time.sleep(0.05)
            _, doc = exchange("GET", "/v1/jobs/" + doc["job_id"])
        check(doc.get("state") == "done" and doc["result"]["ok"],
              "valid request answered ok on the same connection")
        check(attempts() == before + 1, "only the valid request spawned an attempt")
        conn.close()
        code = daemon.sigterm()
        check(code == 0, "drain exits 0 (got {})".format(code))
    finally:
        conn.close()
        daemon.stop()


def scenario_no_process_left(root):
    """E: the forkserver and its attempts go when the daemon goes."""
    print("--- scenario E: no process outlives the daemon")
    for how in ("drain", "kill -9"):
        workdir = os.path.join(root, "e-" + how.replace(" ", ""))
        os.makedirs(workdir)
        daemon = Daemon(workdir, "--workers", "1", "--journal", "j.jsonl")
        group = daemon.proc.pid
        try:
            status, doc, _ = daemon.request("POST", "/v1/jobs", {"kind": "analyze", "system": "rm"})
            check(status == 202, "cold job queued for an isolated attempt (got {})".format(status))
            doc = daemon.wait_done(doc["job_id"])
            check(doc["result"]["ok"], "isolated attempt answered ok")
            members = live_group_members(group)
            if members is not None:
                check(
                    len(members) >= 2,
                    "the daemon's group holds the forkserver too ({} live)".format(len(members)),
                )
            if how == "drain":
                code = daemon.sigterm()
                check(code == 0, "drain exits 0 (got {})".format(code))
            else:
                daemon.sigkill()
            check(
                group_empty_within(group, 2.0),
                "no process of the daemon's group alive 2s after {} (left: {})".format(
                    how, live_group_members(group)),
            )
        finally:
            daemon.stop()


def main():
    root = tempfile.mkdtemp(prefix="repro-serve-chaos-", dir=os.getcwd())
    try:
        scenario_crash_recovery(root)
        scenario_circuit_breaker(root)
        scenario_deadlines(root)
        scenario_param_validation(root)
        scenario_no_process_left(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if FAILURES:
        print("{} scenario assertion(s) FAILED".format(len(FAILURES)))
        return 1
    print("all serve chaos scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
