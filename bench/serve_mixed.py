"""serve-mixed: independent users against ``python -m repro serve``.

One generator process with two threads, each owning one keep-alive
HTTP connection to a ``repro serve --workers 2`` subprocess (defaults
otherwise, so every cold attempt runs in a spawned, isolated worker).
Before timing, every warm op is submitted once so its verdict is in the
server's cache.  The mix is four warm ops (a cache hit answered 200 at
admission) to one cold op (``check`` with a never-repeated
``params.seed``: queued, run in a spawned worker, polled until done),
drawn in seed-shuffled blocks so every run holds the same mix.

Phases, all in one server:

1. saturation — both connections in a closed loop for the run's
   seconds less :data:`OPEN_LOOP_S`, each a user who sends the next
   request as soon as the last verdict is in.  The end-to-end metrics come from here:
   median warm and cold latency and completed requests per second.
   Back-to-back requests on a keep-alive connection are what expose
   the ~44 ms stall.
2. nominal — open loop, seed-driven exponential arrivals at
   :data:`NOMINAL_RPS`, :data:`NOMINAL_REQUESTS` requests, each timed
   from when it was due to when its verdict arrived, so a stalled
   connection delays the requests behind it;
3. steps — the same open loop at each of :data:`STEP_RATES`.  With the
   nominal step they give the highest rate whose p90 meets
   :data:`LIMIT_S`.  That is a per-layer number: open-loop steps this
   short repeat too poorly to gate on.
"""

from __future__ import annotations

import heapq
import http.client
import json
import math
import random
import select
import signal
import subprocess
import threading
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional, Tuple

import answers
import harness
import stats
import tracing
from cli_oneshot import LINT_SYSTEMS, SHIPPED

WARM_OPS: Tuple[Tuple[str, str], ...] = (
    tuple(("lint", s) for s in LINT_SYSTEMS)
    + tuple(("analyze", s) for s in SHIPPED)
    + tuple(("check", s) for s in SHIPPED)
)
#: One cold op in every block of this many.
BLOCK = 5
#: The run's seconds left to the open-loop phases (NOMINAL_REQUESTS at
#: NOMINAL_RPS, then STEP_S at each step rate); the closed saturation
#: phase gets the rest.
OPEN_LOOP_S = 12.0
NOMINAL_RPS = 8.0
NOMINAL_REQUESTS = 48
STEP_RATES = (16.0, 24.0, 32.0)
STEP_S = 2.0
LIMIT_S = 1.0
#: Seconds after a phase's last request was due before whatever has no
#: verdict yet counts as failed.
GIVE_UP_S = 30.0
#: Mean pause before polling a cold job again.  Each pause is drawn
#: from [0.5, 1.5] x POLL_S: with fixed pauses every cold latency would
#: land on a multiple of (pause + one stalled exchange), and medians
#: would jump between those levels from run to run.
POLL_S = 0.05
#: Server starts per set-up measurement.
STARTS = 3
#: Traced run: the nominal phase alternates untraced and traced blocks
#: this long; requests due in the first GUARD_S of a block, or still
#: running when it ends, belong to neither side.
TRACE_BLOCK_S = 2.0
GUARD_S = 0.25


# ----------------------------------------------------------------------
# The seeded schedule
# ----------------------------------------------------------------------


def op_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """The endless, seed-determined op sequence: blocks of
    :data:`BLOCK` with one cold op at a shuffled position, warm ops
    cycling through shuffled rounds of :data:`WARM_OPS`, cold ops
    cycling through shuffled rounds of the shipped systems."""
    rng = random.Random("serve-mixed:ops:{}".format(seed))
    warm: List[Tuple[str, str]] = []
    cold: List[str] = []
    serial = 0
    while True:
        block = [True] + [False] * (BLOCK - 1)
        rng.shuffle(block)
        for is_cold in block:
            serial += 1
            if is_cold:
                if not cold:
                    cold = list(SHIPPED)
                    rng.shuffle(cold)
                params = {"seed": 1_000_000 + serial}
                yield {"cold": True, "kind": "check", "system": cold.pop(), "params": params}
            else:
                if not warm:
                    warm = list(WARM_OPS)
                    rng.shuffle(warm)
                kind, system = warm.pop()
                yield {"cold": False, "kind": kind, "system": system, "params": {}}


def arrivals(seed: int, phase: str, rate: float, count: Optional[int] = None,
             duration: Optional[float] = None) -> List[float]:
    """Offsets of exponential arrivals at ``rate``: ``count`` of them,
    or as many as fall inside ``duration`` seconds."""
    rng = random.Random("serve-mixed:arrivals:{}:{}".format(seed, phase))
    out: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if (count is not None and len(out) >= count) or (
            duration is not None and t >= duration
        ):
            return out
        out.append(t)


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess leading its own process group."""

    def __init__(self, run: harness.Run, name: str, traced: bool):
        journal = run.path(name + "-journal.jsonl")
        entry = (
            [harness.PYTHON, harness.BENCH + "/shim_serve.py"]
            if traced
            else [harness.PYTHON, "-m", "repro", "serve"]
        )
        argv = entry + [
            "--port", "0", "--journal", journal, "--backend", "dir:" + run.path("serve-cache"),
        ]
        self.spans_path = run.path(name + ".spans")
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=run.env(BENCH_SPANS=self.spans_path),
            cwd=harness.ROOT,
            start_new_session=True,
        )
        try:
            self.port = self._ready_port()
            self.ready_s = self._readyz() - self.t_spawn
        except BaseException:
            self.stop()
            raise

    def _ready_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], harness.CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError("server did not print its ready line: {!r}".format(line))
        return int(line.split()[2].rsplit(":", 1)[1].rstrip(","))

    def _readyz(self) -> float:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            conn = connect(self.port)
            try:
                if exchange(conn, "GET", "/v1/readyz")[0] == 200:
                    return time.monotonic()
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/readyz 200")

    def peak_rss_mb(self) -> float:
        with open("/proc/{}/status".format(self.proc.pid)) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        harness.stop_group(self.proc)
        self.proc.stdout.close()


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def exchange(conn: http.client.HTTPConnection, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
    payload = None if body is None else json.dumps(body)
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


class LoadGen:
    """Two threads, two connections, one shared schedule of submits and
    polls ordered by due time."""

    def __init__(self, port: int, seed: int):
        self.port = port
        self.ops = op_stream(seed)
        self.pauses = random.Random("serve-mixed:polls:{}".format(seed))
        self.conns = [connect(port), connect(port)]
        self.cond = threading.Condition()
        self.heap: List[Tuple[float, int, Dict[str, Any]]] = []
        self.serial = 0
        self.outstanding = 0
        self.give_up_at = math.inf
        self.records: List[Dict[str, Any]] = []

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _pause(self) -> float:
        return self.pauses.uniform(0.5, 1.5) * POLL_S

    def _push(self, due: float, task: Dict[str, Any]) -> None:
        self.serial += 1
        heapq.heappush(self.heap, (due, self.serial, task))
        self.cond.notify()

    def _finish(self, record: Dict[str, Any], done: float, ok: bool) -> None:
        record.setdefault("sent", done)  # never sent: late until it gave up
        record.setdefault("polls", 0)
        record["done"] = done
        record["latency"] = done - record["sched"] if ok else math.inf
        record["ok"] = ok
        with self.cond:
            self.records.append(record)
            self.outstanding -= 1
            self.cond.notify_all()

    def _request(self, index: int, method: str, path: str, body=None):
        """One exchange on connection ``index``, reconnecting once after
        a dropped keep-alive connection."""
        t0 = time.monotonic()
        try:
            status, payload = exchange(self.conns[index], method, path, body)
        except (OSError, http.client.HTTPException, ValueError):
            self.conns[index].close()
            self.conns[index] = connect(self.port)
            status, payload = 0, {}
        return status, payload, (t0, time.monotonic())

    def _submit(self, index: int, record: Dict[str, Any], poll_later) -> None:
        op = record["op"]
        body = {"kind": op["kind"], "system": op["system"], "params": op["params"]}
        status, payload, span = self._request(index, "POST", "/v1/jobs", body)
        record.update(sent=span[0], status=status, exchanges=[span], polls=0)
        record["job_id"] = payload.get("job_id")
        if status == 200:
            self._settle(record, payload, span[1])
        elif status == 202:
            poll_later(record, span[1])
        else:
            self._finish(record, span[1], False)

    def _poll(self, index: int, record: Dict[str, Any], poll_later) -> None:
        status, payload, span = self._request(index, "GET", "/v1/jobs/" + record["job_id"])
        record["exchanges"].append(span)
        record["polls"] += 1
        if status == 200 and payload.get("state") == "done":
            self._settle(record, payload, span[1])
        elif status == 200:
            poll_later(record, span[1])
        else:
            self._finish(record, span[1], False)

    def _settle(self, record: Dict[str, Any], payload: Dict[str, Any], done: float) -> None:
        result = payload.get("result") or {}
        op = record["op"]
        record["exec_s"] = result.get("wall")
        self._finish(record, done, answers.served_verdict_ok(op["kind"], op["system"], result))

    # -- phases --------------------------------------------------------

    def _run(self, target) -> None:
        threads = [threading.Thread(target=target, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _guarded(self, record: Dict[str, Any], step) -> None:
        """Run one step of a request; the generator must outlive a reply
        it cannot read, which then counts as failed."""
        try:
            step()
        except Exception:
            traceback.print_exc()
            if "done" not in record:
                self._finish(record, time.monotonic(), False)

    def open_loop(self, phase: str, offsets: List[float]) -> List[Dict[str, Any]]:
        """Send one op at each offset from now, whatever is in flight;
        returns this phase's records once every op has its verdict (or
        :data:`GIVE_UP_S` after the last was due, failing the rest)."""
        start = time.monotonic() + 0.05
        self.give_up_at = start + (offsets[-1] if offsets else 0.0) + GIVE_UP_S
        scheduled = [
            {"phase": phase, "op": next(self.ops), "sched": start + offset}
            for offset in offsets
        ]
        with self.cond:
            for record in scheduled:
                self._push(record["sched"], {"kind": "submit", "record": record})
            self.outstanding = len(scheduled)
        self._run(self._open_worker)
        with self.cond:
            self.heap.clear()
        for record in scheduled:
            if "done" not in record:
                self._finish(record, time.monotonic(), False)
        return scheduled

    def _open_worker(self, index: int) -> None:
        def poll_later(record, now):
            if now > self.give_up_at:
                self._finish(record, now, False)
                return
            with self.cond:
                self._push(now + self._pause(), {"kind": "poll", "record": record})

        while True:
            with self.cond:
                while True:
                    if self.outstanding == 0 or time.monotonic() > self.give_up_at:
                        return
                    if not self.heap:
                        self.cond.wait(0.05)
                        continue
                    due, _, task = self.heap[0]
                    wait = due - time.monotonic()
                    if wait > 0:
                        self.cond.wait(min(wait, 0.05))
                        continue
                    heapq.heappop(self.heap)
                    break
            record = task["record"]
            step = self._submit if task["kind"] == "submit" else self._poll
            self._guarded(record, lambda: step(index, record, poll_later))

    def closed_loop(self, seconds: float) -> Tuple[List[Dict[str, Any]], float, float]:
        """Both connections back to back until ``seconds`` pass (ops in
        flight then finish); returns the records and the window."""
        start = time.monotonic()
        deadline = start + seconds
        self.give_up_at = deadline + GIVE_UP_S
        records: List[Dict[str, Any]] = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            polls: List[float] = []  # when the last reply said "not done"

            def poll_later(_record, now):
                polls.append(now)

            while time.monotonic() < deadline:
                with lock:
                    record = {"phase": "saturation", "op": next(self.ops)}
                    records.append(record)
                record["sched"] = time.monotonic()
                self._guarded(record, lambda: self._submit(index, record, poll_later))
                while polls:
                    now = polls.pop()
                    if now > self.give_up_at:
                        self._finish(record, now, False)
                        break
                    time.sleep(max(0.0, now + self._pause() - time.monotonic()))
                    self._guarded(record, lambda: self._poll(index, record, poll_later))

        self._run(worker)
        return records, start, deadline


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _stats(port: int) -> Dict[str, Any]:
    conn = connect(port)
    try:
        status, payload = exchange(conn, "GET", "/v1/stats")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError("/v1/stats answered {}".format(status))
    return payload


def _timer_s(snapshot: Dict[str, Any], name: str) -> float:
    return snapshot["telemetry"]["timers"].get(name, {}).get("total_s", 0.0)


def _prime(port: int) -> None:
    """Submit every warm op once and wait until each is settled (and
    therefore cached); a wrong verdict here is a failed run."""
    conn = connect(port)
    pending = {}
    for kind, system in WARM_OPS:
        status, payload = exchange(conn, "POST", "/v1/jobs", {"kind": kind, "system": system})
        if status == 202:
            pending[payload["job_id"]] = (kind, system)
        elif status != 200:
            raise RuntimeError("priming {} {} answered {}".format(kind, system, status))
    deadline = time.monotonic() + 60.0
    while pending and time.monotonic() < deadline:
        for job_id, (kind, system) in list(pending.items()):
            _status, payload = exchange(conn, "GET", "/v1/jobs/" + job_id)
            if payload.get("state") == "done":
                if not answers.served_verdict_ok(kind, system, payload.get("result") or {}):
                    raise RuntimeError("priming {} {}: wrong verdict".format(kind, system))
                del pending[job_id]
        time.sleep(POLL_S)
    conn.close()
    if pending:
        raise RuntimeError("priming did not finish")


def _sizes(run: harness.Run) -> Dict[str, Any]:
    if run.smoke:
        return {"nominal": 10, "step_s": 1.0, "starts": 1, "saturation_s": 2.0}
    return {"nominal": NOMINAL_REQUESTS, "step_s": STEP_S, "starts": STARTS,
            "saturation_s": max(4.0, run.seconds - OPEN_LOOP_S)}


def execute(run: harness.Run) -> Dict[str, Any]:
    """Start (and time) the server, prime it, run the three phases and
    stop it; returns the raw records and server-side numbers."""
    sizes = _sizes(run)
    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for start in range(sizes["starts"]):
            if server is not None:
                server.stop()
            server = Server(run, "server{}".format(start), traced=run.trace)
            setups.append(server.ready_s)
        _prime(server.port)
        gen = LoadGen(server.port, run.seed)
        blocks: Optional[TraceBlocks] = None
        try:
            saturation = gen.closed_loop(sizes["saturation_s"])
            before = _stats(server.port)
            blocks = TraceBlocks(server) if run.trace else None
            nominal = gen.open_loop(
                "nominal", arrivals(run.seed, "nominal", NOMINAL_RPS, count=sizes["nominal"])
            )
            if blocks is not None:
                blocks.stop()
                server.proc.send_signal(signal.SIGUSR1)
            after = _stats(server.port)
            steps = []
            for rate in STEP_RATES:
                offsets = arrivals(run.seed, str(rate), rate, duration=sizes["step_s"])
                steps.append((rate, gen.open_loop("step-{}".format(rate), offsets)))
            final = _stats(server.port)
            peak_rss_mb = server.peak_rss_mb()
        finally:
            if blocks is not None:
                blocks.stop()
            gen.close()
    finally:
        if server is not None:
            server.stop()
    return {
        "setups": setups,
        "nominal": nominal,
        "steps": steps,
        "saturation": saturation,
        "records": gen.records,
        "stats": {"before": before, "after": after, "final": final},
        "peak_rss_mb": peak_rss_mb,
        "blocks": blocks.blocks if blocks is not None else [],
        "spans_path": server.spans_path,
    }


class TraceBlocks:
    """Traced run: switch the server's wrappers off and on (SIGUSR2 /
    SIGUSR1) every :data:`TRACE_BLOCK_S` until stopped, recording the
    ``(t0, t1, traced)`` blocks."""

    def __init__(self, server: Server):
        self.server = server
        self.blocks: List[Tuple[float, float, bool]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()

    def _loop(self) -> None:
        traced = False
        while True:
            self.server.proc.send_signal(signal.SIGUSR1 if traced else signal.SIGUSR2)
            t0 = time.monotonic()
            stopped = self._stop.wait(TRACE_BLOCK_S)
            self.blocks.append((t0, time.monotonic(), traced))
            if stopped:
                return
            traced = not traced

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def _p90_or_limit_miss(records: List[Dict[str, Any]]) -> float:
    """A step's tail for :func:`stats.max_rps`: nearest-rank p90 of its
    latencies, or infinity when over 1% failed or the backlog grew (the
    second half of the step sent later than the first)."""
    if not records:
        return math.inf
    failed = sum(1 for r in records if not r["ok"])
    ordered = sorted(records, key=lambda r: r["sched"])
    half = len(ordered) // 2

    def lag(part) -> float:
        return stats.median([r["sent"] - r["sched"] for r in part]) if part else 0.0

    if failed > 0.01 * len(records) or lag(ordered[half:]) > lag(ordered[:half]) + 0.1:
        return math.inf
    return stats.percentile([r["latency"] for r in records], 90.0)


def end_to_end(run: harness.Run) -> Dict[str, Any]:
    raw = execute(run)
    saturated, start, deadline = raw["saturation"]
    cold = [r["latency"] for r in saturated if r["op"]["cold"]]
    warm = [r["latency"] for r in saturated if not r["op"]["cold"]]
    completed = sum(1 for r in saturated if r["ok"] and r["done"] <= deadline)
    records = raw["records"]
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "samples": {"cold": len(cold), "warm": len(warm), "setup": len(raw["setups"]),
                    "nominal": len(raw["nominal"])},
        "tails": {"cold": stats.tail(cold), "warm": stats.tail(warm)},
        "metrics": {
            "setup_s": stats.median(raw["setups"]),
            "cold_p50_s": stats.median(cold),
            "warm_p50_s": stats.median(warm),
            "ops_per_s": completed / (deadline - start),
            "peak_rss_mb": raw["peak_rss_mb"],
        },
    }


def _detail(raw: Dict[str, Any]) -> Dict[str, float]:
    """Server-side and open-loop numbers for the traced run."""
    nominal = raw["nominal"]
    cold = [r for r in nominal if r["op"]["cold"]]
    warm_submits = [r for r in raw["records"] if not r["op"]["cold"]]
    before, after, final = raw["stats"]["before"], raw["stats"]["after"], raw["stats"]["final"]
    attempt_total = _timer_s(after, "serve.attempt.check") - _timer_s(before, "serve.attempt.check")
    exec_total = sum(r.get("exec_s") or 0.0 for r in cold)
    cold_total = sum(r["latency"] for r in cold if r["ok"])
    steps = [(NOMINAL_RPS, _p90_or_limit_miss(nominal))]
    steps += [(rate, _p90_or_limit_miss(records)) for rate, records in raw["steps"]]
    detail = {
        "serve.max_rps": stats.max_rps(steps, LIMIT_S),
        "runner.spawn_frac": (attempt_total - exec_total) / attempt_total if attempt_total else 0.0,
        "serve.wait_frac": (cold_total - attempt_total) / cold_total if cold_total else 0.0,
        "serve.polls_per_cold": stats.mean([r["polls"] for r in cold]),
        "serve.queue_depth_max": final["telemetry"]["gauges"]
        .get("serve.queue_depth", {})
        .get("max", 0),
        "cache.hit_ratio": sum(1 for r in warm_submits if r.get("status") == 200)
        / max(1, len(warm_submits)),
        "loadgen.lag_p99_s": stats.percentile([r["sent"] - r["sched"] for r in nominal], 99.0),
    }
    for code in (200, 202, 429, 503):
        detail["serve.status.{}".format(code)] = sum(
            1 for r in raw["records"] if r.get("status") == code
        )
    return detail


def traced(run: harness.Run) -> Dict[str, Any]:
    """Per-layer numbers from a run against the traced server."""
    raw = execute(run)
    spans, _meta, counts = tracing.load_spans(raw["spans_path"])
    # A served job's life in the server, admission to settle, is one
    # more span of that job: it covers queue wait and the attempt.
    journal: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["layer"] == "serve.journal":
            journal.setdefault(span["op"], []).append(span)
    for op, entries in journal.items():
        spans.append(tracing.span_record(
            "serve.job", op, min(s["t0"] for s in entries), max(s["t1"] for s in entries)
        ))
    windows = [(t0 + GUARD_S, t1) for t0, t1, on in raw["blocks"] if on]
    plain = [(t0 + GUARD_S, t1) for t0, t1, on in raw["blocks"] if not on]

    def inside(record, blocks) -> bool:
        return any(a <= record["sched"] and record["done"] <= b for a, b in blocks)

    nominal = [r for r in raw["nominal"] if r["ok"]]
    traced_records = [r for r in nominal if inside(r, windows)]
    traced_records += [r for r in raw["records"] if r["phase"] != "nominal" and r["ok"]]
    measured = [(t0, t1) for t0, t1, on in raw["blocks"] if on]
    for phase in {r["phase"] for r in raw["records"]} - {"nominal"}:
        records = [r for r in raw["records"] if r["phase"] == phase]
        measured.append((min(r["sched"] for r in records), max(r["done"] for r in records)))
    window_s = sum(b - a for a, b in measured)
    in_window = [s for s in spans if any(a <= s["t0"] < b for a, b in measured)]
    ops, lag_spans = [], []
    for record in traced_records:
        if record.get("job_id") is None:
            continue
        ops.append((record["job_id"], record["sched"], record["done"]))
        lag_spans.append(tracing.span_record("loadgen.lag", record["job_id"], record["sched"], record["sent"]))
    unattributed = tracing.unattributed_s(ops, spans + lag_spans)
    busy_of = {}
    for span in spans:
        if span["layer"] == "serve.http":
            busy_of[span["op"]] = busy_of.get(span["op"], 0.0) + span["t1"] - span["t0"]
    warm = [r for r in traced_records if not r["op"]["cold"] and r["job_id"] in busy_of]
    exchanged = sum(r["exchanges"][0][1] - r["exchanges"][0][0] for r in warm)
    warm_on = [r["latency"] for r in nominal if not r["op"]["cold"] and inside(r, windows)]
    warm_off = [r["latency"] for r in nominal if not r["op"]["cold"] and inside(r, plain)]
    extra = _detail(raw)
    extra.update({
        "serve.transport_frac": (
            (exchanged - sum(busy_of[r["job_id"]] for r in warm)) / exchanged if exchanged else 0.0
        ),
        "unattributed_s": unattributed / max(1, len(ops)),
        "unattributed_frac": unattributed / max(1e-9, sum(t1 - t0 for _op, t0, t1 in ops)),
        "trace.overhead_frac": (
            stats.median(warm_on) / stats.median(warm_off) - 1.0 if warm_on and warm_off else 0.0
        ),
    })
    return {
        "attempted": len(raw["records"]),
        "failed": sum(1 for r in raw["records"] if not r["ok"]),
        "spans": in_window,
        "counts": counts,
        "wall": window_s,
        "extra": extra,
        "problems": [],
    }
