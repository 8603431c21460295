"""The verification-as-a-service daemon: HTTP front end + service core.

``python -m repro serve`` turns the toolbox into a long-running JSON
API over the stdlib :class:`~http.server.ThreadingHTTPServer` — no new
dependencies, one process, many worker threads:

- ``POST /v1/jobs``      — submit a job (``kind`` x ``system`` +
  params, optional ``deadline_ms``); answers ``202`` with a job id,
  ``200`` immediately on a warm verdict-cache hit, ``400`` on a bad
  request, ``429`` + ``Retry-After`` when the bounded queue sheds load,
  ``503`` + ``Retry-After`` when the system's circuit breaker is open
  or the daemon is draining;
- ``GET /v1/jobs/<id>``  — poll state and the terminal result;
- ``GET /v1/healthz``    — liveness (200 while the process runs);
- ``GET /v1/readyz``     — readiness (503 once draining);
- ``GET /v1/stats``      — queue depth, breaker states, cache stats,
  and the full ``serve.*`` telemetry snapshot.

Every request's ``deadline_ms`` becomes a
:class:`~repro.faults.budget.Budget` wall-time cap plus a watchdog cap
(see :mod:`repro.serve.workers`), so overload degrades to partial
``exhausted_budget`` verdicts — the daemon honours the same timing
discipline it verifies.  SIGTERM starts a graceful drain (stop
accepting, finish what is queued, journal everything); ``kill -9`` is
recovered on restart by replaying the request journal.
"""

from __future__ import annotations

import collections
import json
import signal
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.catalog import KIND_SPECS, nonneg_int, positive_int
from repro.errors import ReproError
from repro.obs.instrument import Recorder
from repro.runner.jobs import JOB_KINDS, Job, job_cache_parts
from repro.runner.attempts import RetryPolicy
from repro.serve.backends import backend_cache
from repro.serve.journal import Journal, load_journal
from repro.serve.queue import AdmissionQueue
from repro.serve.resilience import BreakerBoard
from repro.serve.workers import ServeJob, WorkerPool

__all__ = [
    "ServeConfig",
    "VerificationService",
    "build_server",
    "serve_main",
    "EXIT_DRAIN_TIMEOUT",
]

#: Exit code when a graceful drain could not finish inside
#: ``drain_grace_s`` — unfinished jobs stay journaled for recovery.
EXIT_DRAIN_TIMEOUT = 4

#: Finished jobs the daemon keeps in memory, newest first.  A client
#: polls a job while it runs and reads it once done, and at most
#: ``queue_depth`` + ``workers`` jobs are in flight, so the window only
#: has to outlast a client's last poll; a poll of an older finished job
#: reads it back from the journal.  Without the bound a daemon's memory
#: grows with every request it ever answered.
KEPT_FINISHED_JOBS = 256


@dataclass
class ServeConfig:
    """Everything the daemon needs, in one serializable bundle."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2
    queue_depth: int = 64
    timeout_s: float = 30.0
    max_retries: int = 1
    journal_path: str = "repro-serve-journal.jsonl"
    backend: str = "dir:.repro-cache"
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    drain_grace_s: float = 30.0
    isolation: bool = True
    seed: int = 0

    def options(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "backend": self.backend,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "isolation": self.isolation,
        }


class RequestError(ReproError):
    """A client request the daemon refuses (maps to HTTP 400)."""


def _envelope_value(body: Dict[str, Any], name: str, validate) -> Any:
    """An optional envelope field through its catalog validator."""
    value = body.get(name)
    try:
        return None if value is None else validate(value)
    except ValueError as exc:
        raise RequestError("{}: {}".format(name, exc))


class VerificationService:
    """The composition root: journal + queue + breakers + pool + cache."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.generation = uuid.uuid4().hex[:12]
        self.recorder = Recorder(name="serve." + self.generation, max_events=0)
        self.journal = Journal(config.journal_path)
        self.queue = AdmissionQueue(max_depth=config.queue_depth)
        self.breakers = BreakerBoard(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.cache = backend_cache(config.backend)
        #: unfinished jobs, and the newest finished ones
        self.jobs: Dict[str, ServeJob] = {}
        #: ids of the finished jobs in ``jobs``, oldest first
        self._finished: Deque[str] = collections.deque()
        #: ids of finished jobs dropped from ``jobs``: a poll of one
        #: reads the journal, a poll of any other unknown id does not
        self._evicted: Set[str] = set()
        self._jobs_lock = threading.Lock()
        self.pool = WorkerPool(
            self.queue,
            self.journal,
            self.breakers,
            self.recorder,
            workers=config.workers,
            isolation=config.isolation,
            retry=RetryPolicy(max_retries=config.max_retries, seed=config.seed),
            on_done=self._job_done,
        )
        self.draining = False
        self.recovered = 0
        self.started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Recover the journal, mark a new generation, start workers."""
        self._recover()
        self.journal.start(self.generation, self.config.options())
        self.pool.start()

    def _recover(self) -> None:
        state = load_journal(self.config.journal_path)
        if state is None:
            return
        # Finished jobs stay pollable across restarts; unfinished jobs
        # are re-enqueued and run exactly like `run --resume` re-runs
        # an interrupted campaign.
        for job_id, result in state.results.items():
            entry = state.jobs.get(job_id)
            if entry is None:
                continue
            with self._jobs_lock:
                self.jobs[job_id] = self._finished_job(entry, result)
            self._settled(job_id)
        for entry in state.pending:
            serve_job = self._rebuild(entry)
            serve_job.recovered = True
            with self._jobs_lock:
                self.jobs[serve_job.job.job_id] = serve_job
            self.queue.offer(serve_job) or self._force_enqueue(serve_job)
            self.recovered += 1
            self.recorder.incr("serve.recovered")

    def _force_enqueue(self, serve_job: ServeJob) -> bool:
        # Recovery must never shed an already-accepted job, even when
        # the configured queue is smaller than the backlog.
        with self.queue._lock:
            self.queue._items.append(serve_job)
            self.queue._not_empty.notify()
        return True

    def _rebuild(self, entry: Dict[str, Any]) -> ServeJob:
        envelope = entry.get("envelope", {})
        deadline_ms = envelope.get("deadline_ms")
        return ServeJob(
            job=Job.from_dict(entry["job"]),
            # A recovered deadline restarts its window: the original
            # monotonic instant died with the old process.
            deadline_ms=deadline_ms,
            max_retries=int(envelope.get("max_retries", self.config.max_retries)),
            timeout_s=float(envelope.get("timeout_s", self.config.timeout_s)),
        )

    def _finished_job(self, entry: Dict[str, Any], result: Dict[str, Any]) -> ServeJob:
        """A finished job as its journal entries record it (attempts and
        their classifications are not journaled)."""
        serve_job = self._rebuild(entry)
        serve_job.state = "done"
        serve_job.result = result
        return serve_job

    def _settled(self, job_id: str) -> None:
        """Count ``job_id`` among the newest finished jobs, and drop the
        oldest beyond :data:`KEPT_FINISHED_JOBS` from memory.  A job is
        dropped only once its state reads ``done``, which it does after
        its result is journaled."""
        with self._jobs_lock:
            self._finished.append(job_id)
            while len(self._finished) > KEPT_FINISHED_JOBS:
                oldest = self.jobs.get(self._finished[0])
                if oldest is not None and oldest.state != "done":
                    break  # a later call drops it
                self._finished.popleft()
                if oldest is not None:
                    del self.jobs[oldest.job.job_id]
                    self._evicted.add(oldest.job.job_id)

    def drain(self, grace_s: Optional[float] = None) -> int:
        """Graceful shutdown: stop admission, finish or journal work.

        Returns the process exit code: 0 when every accepted job
        reached a terminal state, :data:`EXIT_DRAIN_TIMEOUT` when the
        grace ran out (unfinished jobs stay journaled for the next
        generation's recovery).
        """
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self.draining = True
        self.queue.close()
        drained = self.pool.join(timeout=grace)
        with self._jobs_lock:
            unfinished = [j.job.job_id for j in self.jobs.values() if j.state != "done"]
        summary = {
            "generation": self.generation,
            "drained": drained and not unfinished,
            "unfinished": unfinished,
            "jobs": len(self.jobs) + len(self._evicted),
        }
        if drained and not unfinished:
            self.journal.drain(summary)
            return 0
        return EXIT_DRAIN_TIMEOUT

    # -- submission ----------------------------------------------------

    def _build_job(self, body: Dict[str, Any]) -> Tuple[Job, Dict[str, Any]]:
        kind = body.get("kind")
        if kind not in JOB_KINDS:
            raise RequestError(
                "unknown kind {!r}; expected one of {}".format(kind, ", ".join(JOB_KINDS))
            )
        spec = KIND_SPECS[kind]
        raw = body.get("params") or {}
        if not isinstance(raw, dict):
            raise RequestError("params must be an object")
        try:
            system = spec.admit_system(body.get("system"))
            params = spec.admit(raw)
        except (ValueError, ReproError) as exc:
            raise RequestError("{}: {}".format(kind, exc))
        # The serving layer owns caching (one backend, parent-side
        # lookups/stores); workers must not consult their own.
        params["cache"] = False
        chaos = body.get("chaos")
        if chaos is not None and chaos not in ("crash", "hang", "malformed"):
            raise RequestError("chaos must be crash/hang/malformed")
        job = Job(
            job_id="sv-" + uuid.uuid4().hex[:16],
            kind=kind,
            system=system,
            params=params,
            chaos=chaos,
        )
        max_retries = _envelope_value(body, "max_retries", nonneg_int)
        envelope = {
            "deadline_ms": _envelope_value(body, "deadline_ms", positive_int),
            "max_retries": self.config.max_retries if max_retries is None else max_retries,
        }
        return job, envelope

    def submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Admit one request; returns ``(http_status, response_body)``."""
        self.recorder.incr("serve.submissions")
        if self.draining:
            return 503, {
                "error": "draining: not accepting new jobs",
                "retry_after_s": None,
            }
        try:
            job, envelope = self._build_job(body)
        except RequestError as exc:
            self.recorder.incr("serve.rejected")
            return 400, {"error": str(exc)}
        serve_job = ServeJob(
            job=job,
            deadline_ms=envelope["deadline_ms"],
            max_retries=envelope["max_retries"],
            timeout_s=self.config.timeout_s,
        )
        # Warm path: a settled verdict for identical work is served
        # straight from the shared cache — no queue, no worker, no
        # breaker (reading a verdict cannot hurt a quarantined system).
        parts = job_cache_parts(job)
        if parts is not None:
            hit = self.cache.lookup(job.kind, job.system, parts)
            if isinstance(hit, dict) and hit.get("ok") is not None:
                result = {k: v for k, v in hit.items() if k != "telemetry"}
                result["job_id"] = job.job_id
                result["cached"] = True
                result.setdefault("status", "ok" if result.get("ok") else "verdict")
                serve_job.state = "done"
                serve_job.result = result
                with self._jobs_lock:
                    self.jobs[job.job_id] = serve_job
                self.journal.job(job.to_dict(), serve_job.envelope())
                self.journal.done(job.job_id, result)
                self._settled(job.job_id)
                self.recorder.incr("serve.cache_hits")
                return 200, serve_job.to_public_dict()
        breaker = self.breakers.breaker(job.system)
        if not breaker.allow():
            self.recorder.incr("serve.breaker_rejections")
            return 503, {
                "error": "circuit breaker open for system {!r}".format(job.system),
                "system": job.system,
                "breaker": breaker.snapshot(),
                "retry_after_s": round(breaker.retry_after_s(), 3),
            }
        # Journal before enqueue: an accepted job must survive kill -9
        # from the instant the client could learn its id.
        with self._jobs_lock:
            self.jobs[job.job_id] = serve_job
        self.journal.job(job.to_dict(), serve_job.envelope())
        if not self.queue.offer(serve_job):
            # Shed: roll back the acceptance so the journal replay does
            # not resurrect a job the client was told to retry.
            with self._jobs_lock:
                self.jobs.pop(job.job_id, None)
            self.journal.done(
                job.job_id,
                {
                    "job_id": job.job_id,
                    "status": "shed",
                    "ok": False,
                    "conclusive": False,
                    "exhausted_budget": False,
                    "detail": "queue full (depth {})".format(self.queue.max_depth),
                    "error": None,
                },
            )
            self.recorder.incr("serve.shed")
            return 429, {
                "error": "queue full",
                "retry_after_s": round(self.queue.retry_after_s(), 3),
            }
        self.recorder.incr("serve.accepted")
        return 202, serve_job.to_public_dict()

    def _job_done(self, serve_job: ServeJob) -> None:
        """Worker-pool callback: store settled verdicts in the shared
        cache so the next identical request is a warm hit, under the key
        its attempt hashed (the key of the code that computed it)."""
        self._settled(serve_job.job.job_id)
        result = serve_job.result or {}
        key = result.get("verdict_key")
        if (
            key is not None
            and result.get("error") is None
            and result.get("conclusive")
            and not result.get("exhausted_budget")
            and result.get("status") in ("ok", "verdict")
        ):
            job = serve_job.job
            stored = {k: v for k, v in result.items() if k != "wall"}
            self.cache.store(job.kind, job.system, job_cache_parts(job), stored, key=key)

    # -- reads ---------------------------------------------------------

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._jobs_lock:
            serve_job = self.jobs.get(job_id)
            evicted = job_id in self._evicted
        if evicted:
            state = load_journal(self.journal.path, job_id)
            if state is not None and job_id in state.jobs and job_id in state.results:
                serve_job = self._finished_job(state.jobs[job_id], state.results[job_id])
        return None if serve_job is None else serve_job.to_public_dict()

    def stats(self) -> Dict[str, Any]:
        with self._jobs_lock:
            states: Dict[str, int] = {}
            for serve_job in self.jobs.values():
                states[serve_job.state] = states.get(serve_job.state, 0) + 1
            if self._evicted:
                states["done"] = states.get("done", 0) + len(self._evicted)
        return {
            "generation": self.generation,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "draining": self.draining,
            "recovered": self.recovered,
            "jobs": states,
            "queue": self.queue.stats(),
            "breakers": self.breakers.snapshot(),
            "cache": self.cache.stats(),
            "backend": self.cache.backend.describe(),
            "telemetry": self.recorder.snapshot(),
        }


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes the v1 API onto a :class:`VerificationService`."""

    service: VerificationService = None  # set by serve_main
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response goes out as headers then body, and Nagle's
    # algorithm would hold the body until the client's delayed ACK of
    # the headers — ~40 ms on every keep-alive exchange.
    disable_nagle_algorithm = True
    quiet = True

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        if not self.quiet:
            sys.stderr.write("%s - %s\n" % (self.address_string(), fmt % args))

    def _respond(self, status: int, body: Dict[str, Any], retry_after=None) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", str(max(1, int(round(retry_after)))))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802
        service = self.service
        service.recorder.incr("serve.requests")
        path = self.path.rstrip("/") or "/"
        if path == "/v1/healthz":
            self._respond(200, {"ok": True, "generation": service.generation})
        elif path == "/v1/readyz":
            if service.draining:
                self._respond(503, {"ready": False, "reason": "draining"})
            else:
                self._respond(200, {"ready": True})
        elif path == "/v1/stats":
            self._respond(200, service.stats())
        elif path.startswith("/v1/jobs/"):
            body = service.get_job(path[len("/v1/jobs/"):])
            if body is None:
                self._respond(404, {"error": "unknown job"})
            else:
                self._respond(200, body)
        else:
            self._respond(404, {"error": "unknown path {!r}".format(self.path)})

    def do_POST(self) -> None:  # noqa: N802
        service = self.service
        service.recorder.incr("serve.requests")
        path = self.path.rstrip("/")
        if path != "/v1/jobs":
            self._respond(404, {"error": "unknown path {!r}".format(self.path)})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length).decode("utf-8") or "{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._respond(400, {"error": "bad request body: {}".format(exc)})
            return
        status, payload = service.submit(body)
        self._respond(status, payload, retry_after=payload.get("retry_after_s"))


def build_server(service: VerificationService) -> ThreadingHTTPServer:
    """Bind the HTTP front end for ``service`` (port 0 = ephemeral);
    split out of :func:`serve_main` so tests can run the wire protocol
    without the signal plumbing."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer(
        (service.config.host, service.config.port), handler
    )
    server.daemon_threads = True
    return server


def serve_main(config: ServeConfig, ready_line: bool = True) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain; returns the
    process exit code (0 clean drain, :data:`EXIT_DRAIN_TIMEOUT` when
    the grace expired with jobs still unfinished)."""
    service = VerificationService(config)
    service.start()

    server = build_server(service)
    host, port = server.server_address[:2]
    if ready_line:
        print("serving on {}:{} (journal {}, backend {})".format(
            host, port, config.journal_path, config.backend
        ))
        sys.stdout.flush()

    exit_code: List[int] = []

    def _drain(signum, frame):
        # Runs the drain off the signal handler so serve_forever's
        # own thread can be shut down cleanly.
        def _do():
            exit_code.append(service.drain())
            server.shutdown()

        threading.Thread(target=_do, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        service.journal.close()
    return exit_code[0] if exit_code else 0
