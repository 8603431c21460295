#!/usr/bin/env python3
"""Chaos test for distributed campaigns (`repro run --dist`).

Asserts the fault-tolerance guarantees docs/distribution.md promises,
end to end over real sockets against real worker processes:

A. **kill -9 loses nothing** — a two-worker loopback campaign has one
   worker SIGKILLed mid-flight; the coordinator reclaims its leases and
   the campaign still settles every job, with verdicts identical to a
   single-host run of the same job list.
B. **torn frames are detected and survived** — a worker that severs its
   socket mid-result-frame (deterministic injection) costs exactly one
   reassignment; the ledger shows one ``done`` entry per job, the
   infrastructure attempt is on the record with the worker's identity,
   and no job is ever double-recorded.
C. **no fleet, no loss** — with every worker address dead the campaign
   degrades to the local pool and completes with the same verdicts.
D. **distribution pays** — a check+perturb campaign over every shipped
   system, verdict cache off, runs at least 1.5x faster on a standing
   fleet of two inline workers than inline on one host (best of three
   alternating runs each), with identical verdicts and no fallback to
   the local pool.  Worker start-up and a warm-up campaign stay outside
   the timed window: a campaign joins a standing fleet, it does not
   boot one.  The ratio needs two cores.

Run from the repo root (CI's dist-smoke job does):

    python scripts/dist_chaos.py

Exits 0 when every scenario holds, 1 with a FAIL line otherwise.
Stdlib only, like everything else in this repo.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# A job list with enough meat that a mid-campaign SIGKILL lands while
# work is genuinely in flight.
CAMPAIGN = ["rm", "relay", "--kinds", "lint,analyze,check",
            "--seeds", "2", "--steps", "60"]

FAILURES = []


def check(ok, label):
    line = "{}: {}".format("ok" if ok else "FAIL", label)
    print(line)
    if not ok:
        FAILURES.append(label)
    return ok


def repro(args, workdir, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE"] = "0"  # honest executions, no verdict pool
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc


class Worker:
    """One `repro dist worker` process on an ephemeral loopback port."""

    def __init__(self, workdir, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE"] = "0"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "dist", "worker",
             "--port", "0", *extra_args],
            cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = self.proc.stdout.readline()
        if "dist worker ready on" not in line:
            rest = self.proc.stdout.read()
            raise RuntimeError("worker failed to start: {}{}".format(line, rest))
        self.port = int(line.split("ready on ", 1)[1].split(" ")[0].rsplit(":", 1)[1])
        self.address = "127.0.0.1:{}".format(self.port)

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def verdicts(report_json):
    """The host-independent projection of a campaign report: job id,
    status, ok, detail — what "byte-identical verdicts" means across
    machines (walls and worker identities legitimately differ)."""
    report = json.loads(report_json)
    return sorted(
        (j["job_id"], j["status"], j["ok"], j["detail"]) for j in report["jobs"]
    )


def ledger_entries(path):
    sys.path.insert(0, SRC)
    from repro.serialize import ledger_entries_from_jsonl

    with open(path) as fh:
        return ledger_entries_from_jsonl(fh.read())


def baseline(root):
    """The single-host truth every distributed run is compared to."""
    workdir = os.path.join(root, "baseline")
    os.makedirs(workdir)
    proc = repro(["run", *CAMPAIGN, "--workers", "0", "--json"], workdir)
    assert proc.returncode == 0, "baseline campaign failed: " + proc.stderr
    return verdicts(proc.stdout)


def scenario_kill_nine(root, base):
    """A: SIGKILL one of two workers mid-campaign; zero lost jobs."""
    print("--- scenario A: kill -9 one worker mid-campaign")
    workdir = os.path.join(root, "a")
    os.makedirs(workdir)
    victim, survivor = Worker(workdir, "--inline"), Worker(workdir, "--inline")
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE"] = "0"
        campaign = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", *CAMPAIGN,
             "--dist", victim.address + "," + survivor.address,
             "--ledger", "dist.jsonl", "--json"],
            cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # Wait until the victim has a session (the campaign dialed in),
        # then a beat longer so leases are granted — and murder it.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.exists(os.path.join(workdir, "dist.jsonl")):
                break
            if campaign.poll() is not None:
                break
            time.sleep(0.05)
        time.sleep(0.5)
        victim.sigkill()
        stdout, stderr = campaign.communicate(timeout=300)
        check(campaign.returncode == 0,
              "campaign exited 0 (got {}): {}".format(
                  campaign.returncode, stderr.strip()[-200:]))
        report = json.loads(stdout)
        planned = len(base)
        check(not report["interrupted"], "campaign not interrupted")
        check(len(report["jobs"]) == planned,
              "all {} jobs settled after kill -9".format(planned))
        check(verdicts(stdout) == base,
              "verdicts identical to the single-host run")
        entries = ledger_entries(os.path.join(workdir, "dist.jsonl"))
        done = [e["job_id"] for e in entries if e["kind"] == "done"]
        check(len(done) == len(set(done)) == planned,
              "exactly one done entry per job (no loss, no double-record)")
    finally:
        victim.stop()
        survivor.stop()


def scenario_severed_frame(root, base):
    """B: a deterministic mid-frame sever costs one reassignment."""
    print("--- scenario B: socket severed mid-result-frame")
    workdir = os.path.join(root, "b")
    os.makedirs(workdir)
    # The chaotic worker tears the connection partway through shipping
    # its first result; the clean worker keeps the campaign honest.
    chaotic = Worker(workdir, "--inline", "--chaos", "sever@result:1")
    clean = Worker(workdir, "--inline")
    try:
        proc = repro(
            ["run", *CAMPAIGN, "--dist", chaotic.address + "," + clean.address,
             "--ledger", "dist.jsonl", "--json"],
            workdir,
        )
        check(proc.returncode == 0,
              "campaign exited 0 (got {}): {}".format(
                  proc.returncode, proc.stderr.strip()[-200:]))
        check(verdicts(proc.stdout) == base,
              "verdicts identical to the single-host run")
        entries = ledger_entries(os.path.join(workdir, "dist.jsonl"))
        done = [e["job_id"] for e in entries if e["kind"] == "done"]
        check(len(done) == len(set(done)) == len(base),
              "one done entry per job despite the torn frame")
        infra = [e for e in entries
                 if e["kind"] == "attempt" and e.get("worker")
                 and e["classification"] == "crash"]
        check(len(infra) == 1,
              "exactly one reclaimed attempt, stamped with worker identity "
              "(got {})".format(len(infra)))
        check(all("epoch" in e for e in infra),
              "reclaimed attempt carries its lease epoch")
    finally:
        chaotic.stop()
        clean.stop()


def scenario_degraded(root, base):
    """C: every worker address dead → local fallback, same verdicts."""
    print("--- scenario C: dead fleet degrades to the local pool")
    workdir = os.path.join(root, "c")
    os.makedirs(workdir)
    # Bind-and-release two ports so nothing is listening on them.
    import socket as socket_mod

    dead = []
    for _ in range(2):
        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        dead.append("127.0.0.1:{}".format(probe.getsockname()[1]))
        probe.close()
    proc = repro(
        ["run", *CAMPAIGN, "--dist", ",".join(dead), "--json"], workdir)
    check(proc.returncode == 0, "degraded campaign exited 0")
    check("degraded" in proc.stderr or "falling back" in proc.stderr,
          "operator was told about the fallback")
    check(verdicts(proc.stdout) == base,
          "degraded verdicts identical to the single-host run")


def scenario_dist_scaling(root):
    """D: two inline workers beat one host by >= 1.5x, same verdicts."""
    print("--- scenario D: two-worker speedup over a single host")
    sys.path.insert(0, SRC)
    from fractions import Fraction

    from repro.dist import DistConfig, DistCoordinator
    from repro.runner import Supervisor, default_jobs

    def job_mix(systems=None, seeds=4, steps=80):
        jobs = default_jobs(
            systems=systems, kinds=["check", "perturb"], seeds=seeds,
            steps=steps, seed=0, epsilon=Fraction(1, 32),
        )
        # rm's jobs first: a heavy job assigned last would serialise
        # the whole tail of the campaign.
        jobs.sort(key=lambda job: (job.system != "rm", job.job_id))
        return jobs

    def projection(report):
        return sorted(
            (o.job_id, o.status, o.ok, o.detail) for o in report.outcomes
        )

    workdir = os.path.join(root, "d")
    os.makedirs(workdir)
    fleet = [Worker(workdir, "--inline"), Worker(workdir, "--inline")]
    try:
        config = DistConfig(
            hosts=[("127.0.0.1", worker.port) for worker in fleet],
            lease_ms=10_000, heartbeat_ms=1_000, timeout=120.0,
        )
        # Untimed warm-up: tiny jobs pull the engines' lazy imports into
        # each worker and into this process, the way a standing fleet
        # and a long-lived host are already warm.
        warm_up = job_mix(systems=["peterson", "tournament"], seeds=1, steps=10)
        Supervisor(warm_up, workers=0, cache=False).run()
        DistCoordinator(warm_up, config, job_cache=False).run()
        # A campaign is ~1 s of work, so one run is at the mercy of a
        # noisy host: alternate the legs and compare the best of three.
        serial_walls, dist_walls, reports = [], [], []
        for _round in range(3):
            start = time.perf_counter()
            serial = Supervisor(job_mix(), workers=0, cache=False).run()
            serial_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            dist = DistCoordinator(job_mix(), config, job_cache=False).run()
            dist_walls.append(time.perf_counter() - start)
            reports.append((serial, dist))
    finally:
        for worker in fleet:
            worker.stop()
    speedup = min(serial_walls) / min(dist_walls)
    print("serial={:.3f}s dist={:.3f}s speedup={:.2f}x jobs={} cpus={}".format(
        min(serial_walls), min(dist_walls), speedup, len(serial.outcomes),
        os.cpu_count()))
    truth = projection(reports[0][0])
    check(all(projection(s) == projection(d) == truth for s, d in reports),
          "verdicts identical to the single-host run")
    check(all(s.ok and d.ok and not d.interrupted for s, d in reports),
          "every campaign completed ok")
    check(not any(d.telemetry.get("counters", {}).get("dist.degraded", 0)
                  for _s, d in reports),
          "no fallback to the local pool")
    check(speedup >= 1.5, "two workers at least 1.5x faster "
          "(got {:.2f}x)".format(speedup))


def main():
    root = tempfile.mkdtemp(prefix="repro-dist-chaos-", dir=os.getcwd())
    try:
        base = baseline(root)
        print("baseline: {} jobs".format(len(base)))
        scenario_kill_nine(root, base)
        scenario_severed_frame(root, base)
        scenario_degraded(root, base)
        scenario_dist_scaling(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if FAILURES:
        print("{} scenario assertion(s) FAILED".format(len(FAILURES)))
        return 1
    print("all dist chaos scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
