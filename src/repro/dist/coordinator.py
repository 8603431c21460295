"""The multi-host campaign coordinator behind ``repro run --dist``.

Scheduling model: the coordinator owns the job list, the checkpoint
ledger, and the truth about which attempt counts; workers own nothing
but the attempt in flight.  Jobs are handed out under **time-bounded
leases** (:mod:`repro.dist.leases`) renewed by worker heartbeats, so
every failure mode reduces to one of two observable events:

- **connection lost** (crash, kill -9, severed socket) — the reader
  thread sees EOF/torn-frame; every lease the worker held is reclaimed
  immediately, classified ``crash`` in the attempt taxonomy, and the
  jobs are reassigned;
- **lease expired** (hung host, network partition — the connection
  *looks* alive but heartbeats stopped) — the watchdog reclaims the
  lease, classifies the attempt ``timeout``, drops the suspect
  connection, and reassigns.

Reassignment bumps the job's **epoch**; a partitioned worker that
later delivers the stale attempt's result is detected by its old epoch
and the result is discarded — counted, never merged — so the ledger
records exactly one terminal outcome per job no matter how many hosts
raced on it.  Worker *identity* (host/pid/worker id) rides on every
attempt entry, making the ledger a cross-host audit trail.

Failures the job itself causes (``malformed``/``budget``/``verdict``/
``error`` payload classifications, and crash/timeout of the worker's
*subprocess* with the host still healthy) are settled by the attempt
automaton every transport shares (:mod:`repro.runner.attempts`).  Host
loss is tracked separately (``max_reassigns``) so a kill -9'd worker
host costs reassignment latency, never a job.

Per-host **circuit breakers** (:mod:`repro.serve.resilience`) stop the
coordinator from feeding jobs to a host that keeps eating them; dead
hosts are re-dialed with backoff (a severed connection to a live
worker heals).  If every host is lost and reconnection is exhausted,
the coordinator **falls back to the local pool** for whatever is left
— ``repro run --dist`` never strands a campaign, it just stops being
fast.  Verdicts are byte-identical to a single-host run throughout:
jobs are pure functions of (system, claim, budget), so distribution
may lose time, never truth.
"""

from __future__ import annotations

import queue as _queue_mod
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.dist import protocol
from repro.dist.cache_sync import cacheable_entry, lookup_entry, store_entry
from repro.dist.leases import Lease, LeaseTable
from repro.dist.protocol import ConnectionClosed, FrameConnection, ProtocolError
from repro.errors import ReproError
from repro.obs.instrument import Recorder
from repro.runner.attempts import (
    AttemptState,
    Bookkeeper,
    RetryPolicy,
    Terminal,
    attempt_body,
    settle,
    take_eligible,
)
from repro.runner.jobs import Job
from repro.runner.ledger import Ledger
from repro.runner.report import CampaignReport, JobOutcome
from repro.serve.resilience import BreakerBoard

__all__ = ["DistConfig", "DistCoordinator", "parse_hosts"]


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,host:port,...`` into address tuples.

    Raises :class:`ReproError` on anything malformed — a typo'd worker
    list must exit 2, not silently shrink the fleet.
    """
    hosts: List[Tuple[str, int]] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        host, sep, port_text = chunk.rpartition(":")
        if not sep or not host:
            raise ReproError(
                "malformed worker address {!r}; expected host:port".format(chunk)
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ReproError(
                "worker address {!r}: port {!r} is not an integer".format(
                    chunk, port_text
                )
            )
        if not (1 <= port <= 65535):
            raise ReproError(
                "worker address {!r}: port {} out of range 1-65535".format(chunk, port)
            )
        hosts.append((host, port))
    if not hosts:
        raise ReproError("empty worker address list")
    return hosts


@dataclass
class DistConfig:
    """Knobs of one distributed campaign."""

    hosts: List[Tuple[str, int]]
    lease_ms: int = 5000
    heartbeat_ms: int = 1000
    timeout: float = 30.0
    connect_timeout: float = 3.0
    reconnect_attempts: int = 3
    max_reassigns: Optional[int] = None  # default: 3 * hosts + 3
    fallback_workers: int = 2

    def __post_init__(self):
        if self.lease_ms <= 0 or self.heartbeat_ms <= 0:
            raise ReproError("lease_ms and heartbeat_ms must be positive")
        if self.heartbeat_ms >= self.lease_ms:
            raise ReproError(
                "heartbeat_ms ({}) must be shorter than lease_ms ({}) — a "
                "lease that expires between beats reclaims healthy jobs".format(
                    self.heartbeat_ms, self.lease_ms
                )
            )
        if self.max_reassigns is None:
            self.max_reassigns = 3 * len(self.hosts) + 3


@dataclass
class _DistJobState(AttemptState):
    """A job's attempt state plus its host-level history."""

    reassigns: int = 0
    started_at: Optional[float] = None


class _RemoteWorker:
    """One worker address as the coordinator sees it."""

    CONNECTING, READY, BUSY, DEAD, GONE = "connecting", "ready", "busy", "dead", "gone"

    def __init__(self, address: Tuple[str, int]):
        self.address = address
        self.label = "{}:{}".format(*address)
        self.state = _RemoteWorker.DEAD
        self.conn: Optional[FrameConnection] = None
        self.worker_id: Optional[str] = None
        self.host: Optional[str] = None
        self.pid: Optional[int] = None
        self.dials = 0
        self.next_dial_at = 0.0
        self.reader: Optional[threading.Thread] = None

    def identity(self) -> Dict[str, Any]:
        return {
            "worker": self.worker_id,
            "worker_host": self.host,
            "worker_pid": self.pid,
            "address": self.label,
        }


class DistCoordinator:
    """Drives a job list to a complete :class:`CampaignReport` over a
    fleet of remote workers; never raises for anything a worker, a
    socket, or a partition did."""

    def __init__(
        self,
        jobs: List[Job],
        config: DistConfig,
        retry: Optional[RetryPolicy] = None,
        ledger: Optional[Ledger] = None,
        campaign_id: Optional[str] = None,
        prior_outcomes: Optional[Dict[str, JobOutcome]] = None,
        write_header: bool = True,
        recorder: Optional[Recorder] = None,
        cache=None,
        job_cache: Optional[bool] = None,
        local_fallback: bool = True,
        breakers: Optional[BreakerBoard] = None,
        poll_interval: float = 0.02,
    ):
        self.jobs = list(jobs)
        self.config = config
        self.retry = retry if retry is not None else RetryPolicy()
        self.ledger = ledger
        self.campaign_id = campaign_id or uuid.uuid4().hex[:12]
        self.prior_outcomes = dict(prior_outcomes or {})
        self.write_header = write_header
        self.cache = cache
        self.job_cache = job_cache
        self.local_fallback = local_fallback
        self.poll_interval = poll_interval
        self.recorder = recorder if recorder is not None else Recorder(
            name="dist." + self.campaign_id, max_events=0
        )
        self.breakers = breakers if breakers is not None else BreakerBoard(
            failure_threshold=3, cooldown_s=max(2.0, config.lease_ms / 1000.0)
        )
        self.leases = LeaseTable()
        self._books = Bookkeeper(self.retry, self.recorder, "dist.", ledger)
        self._events: "_queue_mod.Queue" = _queue_mod.Queue()
        self._workers = [_RemoteWorker(addr) for addr in config.hosts]
        self._pending: List[_DistJobState] = []
        self._assigned: Dict[str, _DistJobState] = {}
        self._settled: Dict[str, JobOutcome] = {}
        self.degraded = False

    # -- connection management -----------------------------------------

    def _dial(self, worker: _RemoteWorker) -> bool:
        """Connect + handshake one worker; synchronous, bounded by
        ``connect_timeout``."""
        worker.dials += 1
        try:
            sock = socket.create_connection(
                worker.address, timeout=self.config.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = FrameConnection(sock)
            conn.send(
                {
                    "kind": "hello",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "campaign_id": self.campaign_id,
                    "lease_ms": self.config.lease_ms,
                    "heartbeat_ms": self.config.heartbeat_ms,
                }
            )
            deadline = time.monotonic() + self.config.connect_timeout
            register = None
            while time.monotonic() < deadline:
                register = conn.recv(timeout=self.config.connect_timeout)
                if register is not None:
                    break
            if (
                register is None
                or register.get("kind") != "register"
                or register.get("protocol") != protocol.PROTOCOL_VERSION
            ):
                conn.close()
                raise ProtocolError(
                    "worker {} did not register (got {!r})".format(
                        worker.label, None if register is None else register.get("kind")
                    )
                )
        except (OSError, ProtocolError) as exc:
            self.recorder.incr("dist.dial_failures")
            worker.state = _RemoteWorker.DEAD
            worker.next_dial_at = time.monotonic() + min(
                2.0, 0.2 * (2 ** min(worker.dials, 4))
            )
            self._log("worker {} unreachable: {}".format(worker.label, exc))
            return False
        worker.conn = conn
        worker.worker_id = register.get("worker_id", worker.label)
        worker.host = register.get("host")
        worker.pid = register.get("pid")
        worker.state = _RemoteWorker.READY
        worker.reader = threading.Thread(
            target=self._reader_loop, args=(worker, conn), daemon=True
        )
        worker.reader.start()
        self.recorder.incr("dist.connects")
        return True

    def _reader_loop(self, worker: _RemoteWorker, conn: FrameConnection) -> None:
        """Pump one connection's inbound frames into the event queue;
        a closed/torn connection becomes a ``lost`` event."""
        while True:
            try:
                frame = conn.recv(timeout=0.25)
            except (ConnectionClosed, ProtocolError) as exc:
                self._events.put(("lost", worker, str(exc)))
                return
            if frame is not None:
                self._events.put(("frame", worker, frame))

    def _drop_worker(self, worker: _RemoteWorker, why: str, reclass: str) -> None:
        """Lose a worker: reclaim every lease it held (classified
        ``reclass``: crash for a dead connection, timeout for a lapsed
        lease) and schedule a re-dial."""
        if worker.state == _RemoteWorker.GONE:
            return
        conn, worker.conn = worker.conn, None
        if conn is not None:
            conn.close()
        held = self.leases.held_by(worker.worker_id or worker.label)
        exhausted = worker.dials > self.config.reconnect_attempts
        worker.state = _RemoteWorker.GONE if exhausted else _RemoteWorker.DEAD
        worker.next_dial_at = time.monotonic() + min(
            2.0, 0.2 * (2 ** min(worker.dials, 4))
        )
        self.recorder.incr("dist.workers_lost")
        self._log("worker {} lost ({}); {} lease(s) reclaimed".format(
            worker.label, why, len(held)
        ))
        for lease in held:
            self._reclaim(lease, worker, reclass, why)

    # -- lease lifecycle -----------------------------------------------

    def _reclaim(
        self, lease: Lease, worker: _RemoteWorker, classification: str, why: str
    ) -> None:
        """One reclaimed lease: ledger the infrastructure attempt and
        requeue (or, past ``max_reassigns``, settle) the job."""
        self.leases.release(lease.job_id)
        state = self._assigned.pop(lease.job_id, None)
        if state is None:
            return
        if state.started_at is not None:
            state.wall += time.monotonic() - state.started_at
            state.started_at = None
        state.reassigns += 1
        self.recorder.incr("dist.reassigned")
        self.breakers.breaker(worker.label).record(classification)
        detail = "host lost: {}".format(why)
        decision = None
        if state.reassigns > self.config.max_reassigns:
            # This job has out-lived every allowance; record the loss
            # honestly rather than looping forever.
            detail = "exhausted {} reassignments: {}".format(
                self.config.max_reassigns, detail
            )
            decision = settle(state, classification, detail, None, self.retry, 0)
        extra = dict(worker.identity(), epoch=lease.epoch)
        self._books.commit(state, classification, detail, None, decision, extra)
        if decision is not None:
            self._settle_outcome(decision.outcome)
            return
        state.eligible_at = time.monotonic() + self.retry.delay(
            min(state.reassigns - 1, 4)
        )
        self._pending.append(state)

    def _expire_leases(self, now: float) -> None:
        for lease in self.leases.expired(now):
            self.recorder.incr("dist.lease_expired")
            worker = self._worker_by_id(lease.worker_id)
            if worker is not None:
                # The host is suspect (hung or partitioned): drop the
                # whole connection; its other state is reclaimed too.
                self._drop_worker(
                    worker,
                    "lease on {} expired without a heartbeat".format(lease.job_id),
                    "timeout",
                )
            else:
                self._reclaim(
                    lease,
                    _RemoteWorker(("?", 0)),
                    "timeout",
                    "lease expired; worker unknown",
                )

    def _worker_by_id(self, worker_id: str) -> Optional[_RemoteWorker]:
        for worker in self._workers:
            if worker.worker_id == worker_id or worker.label == worker_id:
                return worker
        return None

    # -- assignment ----------------------------------------------------

    def _assign(self, worker: _RemoteWorker, state: _DistJobState) -> bool:
        now = time.monotonic()
        lease = self.leases.grant(
            state.job.job_id,
            worker.worker_id or worker.label,
            self.config.lease_ms / 1000.0,
            now,
        )
        state.started_at = now
        frame = {
            "kind": "assign",
            "job": attempt_body(
                state.job,
                state.budget_scale,
                self.config.timeout,
                cache=self.job_cache,
            ),
            "epoch": lease.epoch,
            "attempt": state.attempt,
            "cache_entry": lookup_entry(self.cache, state.job),
        }
        if frame["cache_entry"] is not None:
            self.recorder.incr("dist.cache_pushed")
        try:
            worker.conn.send(frame)
        except (ConnectionClosed, ProtocolError) as exc:
            # The grant is rolled back before anyone saw the epoch...
            # except the epoch counter itself, which only ever grows.
            self.leases.release(state.job.job_id)
            state.started_at = None
            self._pending.append(state)
            self._drop_worker(worker, "assign failed: {}".format(exc), "crash")
            return False
        self._assigned[state.job.job_id] = state
        worker.state = _RemoteWorker.BUSY
        self.recorder.incr("dist.assigned")
        return True

    # -- inbound frames ------------------------------------------------

    def _on_frame(self, worker: _RemoteWorker, frame: Dict[str, Any]) -> None:
        kind = frame.get("kind")
        if kind == "heartbeat":
            self.recorder.incr("dist.heartbeats")
            renewed = self.leases.renew(
                str(frame.get("job_id")),
                str(frame.get("worker_id")),
                int(frame.get("epoch", -1)),
                time.monotonic(),
            )
            if not renewed:
                self.recorder.incr("dist.stale_heartbeats")
        elif kind == "result":
            self._on_result(worker, frame)
        elif kind == "pong":
            pass
        # unknown kinds skipped (forward compatibility)

    def _on_result(self, worker: _RemoteWorker, frame: Dict[str, Any]) -> None:
        """The idempotent ledger merge: admit a result only when its
        (job, epoch, worker) triple is the *latest grant* of a job that
        has not already settled — everything else is a stale or
        duplicate delivery from a raced or partitioned worker, counted
        and discarded."""
        job_id = str(frame.get("job_id"))
        epoch = int(frame.get("epoch", -1))
        sender = str(frame.get("worker_id"))
        if job_id in self._settled or not self.leases.is_current(
            job_id, epoch, sender
        ):
            self.recorder.incr("dist.stale_results")
            self._log(
                "discarded stale result for {} (epoch {} from {}; current epoch {})".format(
                    job_id, epoch, sender, self.leases.epoch(job_id)
                )
            )
            return
        self.leases.release(job_id)
        state = self._assigned.pop(job_id, None)
        if state is None:
            self.recorder.incr("dist.stale_results")
            return
        if worker.state == _RemoteWorker.BUSY:
            worker.state = _RemoteWorker.READY
        if state.started_at is not None:
            state.wall += time.monotonic() - state.started_at
            state.started_at = None
        self.recorder.incr("dist.results")
        payload = frame.get("payload")
        if store_entry(self.cache, state.job, frame.get("cache_entry")):
            self.recorder.incr("dist.cache_pulled")
        extra = dict(worker.identity(), epoch=epoch)
        timed_out = bool(frame.get("timed_out"))
        decision = self._books.advance(
            state, payload, timed_out, self.retry.max_retries, extra
        )
        self.breakers.breaker(worker.label).record(state.classifications[-1])
        if isinstance(decision, Terminal):
            self._settle_outcome(decision.outcome)
        else:
            self._pending.append(state)

    def _settle_outcome(self, outcome: JobOutcome) -> None:
        """Register a terminal outcome (its ledger ``done`` line is
        already written, by this coordinator or the local fallback)."""
        if outcome.job_id in self._settled:
            # Double-settle would be a merge bug; keep the first, loudly.
            self.recorder.incr("dist.duplicate_outcomes")
            return
        self._settled[outcome.job_id] = outcome

    # -- the main loop -------------------------------------------------

    def run(self) -> CampaignReport:
        started = time.monotonic()
        self._books.begin(
            self.campaign_id,
            self.jobs,
            {
                "dist": True,
                "hosts": [list(h) for h in self.config.hosts],
                "lease_ms": self.config.lease_ms,
                "heartbeat_ms": self.config.heartbeat_ms,
                "timeout": self.config.timeout,
                "max_retries": self.retry.max_retries,
            },
            self.write_header,
        )
        self._pending = [_DistJobState(job=job) for job in self.jobs]
        # Initial fleet: dial every configured host once, in parallel
        # threads so one black-holed address cannot serialise the rest.
        threads = [
            threading.Thread(target=self._dial, args=(w,), daemon=True)
            for w in self._workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.config.connect_timeout + 1.0)
        connected = [w for w in self._workers if w.state == _RemoteWorker.READY]
        self.recorder.gauge("dist.workers_connected", len(connected))
        if not connected:
            return self._degrade(started, reason="no dist workers reachable")
        interrupted = False
        try:
            while self._pending or self._assigned:
                now = time.monotonic()
                self._expire_leases(now)
                self._redial_due(now)
                if not self._live_workers():
                    if not self._pending and not self._assigned:
                        break
                    # Every host is gone: pull back what is still
                    # assigned (leases die with their workers above),
                    # then finish locally.
                    return self._finish_locally(started)
                self._assign_eligible(now)
                self._drain_events()
        except KeyboardInterrupt:
            interrupted = True
        self._shutdown_workers()
        return self._report(started, interrupted)

    # -- loop pieces ---------------------------------------------------

    def _live_workers(self) -> List[_RemoteWorker]:
        return [
            w
            for w in self._workers
            if w.state in (_RemoteWorker.READY, _RemoteWorker.BUSY, _RemoteWorker.DEAD)
        ]

    def _redial_due(self, now: float) -> None:
        for worker in self._workers:
            if (
                worker.state == _RemoteWorker.DEAD
                and now >= worker.next_dial_at
                and worker.dials <= self.config.reconnect_attempts
            ):
                if self._dial(worker):
                    self.recorder.incr("dist.reconnects")
                elif worker.dials > self.config.reconnect_attempts:
                    worker.state = _RemoteWorker.GONE

    def _assign_eligible(self, now: float) -> None:
        for worker in self._workers:
            if worker.state != _RemoteWorker.READY or not self._pending:
                continue
            breaker = self.breakers.breaker(worker.label)
            if not breaker.allow():
                self.recorder.incr("dist.breaker_rejections")
                continue
            state = take_eligible(self._pending, now)
            if state is not None:
                self._assign(worker, state)

    def _drain_events(self) -> None:
        try:
            event = self._events.get(timeout=self.poll_interval)
        except _queue_mod.Empty:
            return
        while True:
            kind, worker, body = event
            if kind == "frame":
                self._on_frame(worker, body)
            elif kind == "lost":
                self._drop_worker(worker, body, "crash")
            try:
                event = self._events.get_nowait()
            except _queue_mod.Empty:
                return

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            if worker.conn is not None:
                try:
                    worker.conn.send({"kind": "bye"})
                except (ConnectionClosed, ProtocolError):
                    pass
                worker.conn.close()
                worker.conn = None

    # -- degraded paths ------------------------------------------------

    def _local_supervisor(self, jobs: List[Job], write_header: bool):
        from repro.runner.supervisor import Supervisor

        return Supervisor(
            jobs,
            workers=self.config.fallback_workers,
            timeout=self.config.timeout,
            retry=self.retry,
            ledger=self.ledger,
            campaign_id=self.campaign_id,
            write_header=write_header,
            recorder=self.recorder,
            cache=self.job_cache,
        )

    def _degrade(self, started: float, reason: str) -> CampaignReport:
        """No fleet at all: run the whole campaign on the local pool —
        ``--dist`` is an accelerator, never a precondition."""
        self.degraded = True
        self.recorder.incr("dist.degraded")
        self._log("{}; falling back to the local worker pool".format(reason))
        if not self.local_fallback:
            return self._report(started, interrupted=True)
        supervisor = self._local_supervisor(
            [s.job for s in self._pending], write_header=False
        )
        supervisor.prior_outcomes = dict(self.prior_outcomes)
        report = supervisor.run()
        report.wall = time.monotonic() - started
        return report

    def _finish_locally(self, started: float) -> CampaignReport:
        """Every host died mid-campaign: finish the remaining jobs on
        the local pool and fold the two halves into one report."""
        self.degraded = True
        self.recorder.incr("dist.degraded")
        remaining = [s.job for s in self._pending] + [
            s.job for s in self._assigned.values()
        ]
        self._pending = []
        self._assigned.clear()
        self._log(
            "all dist workers lost; finishing {} job(s) locally".format(len(remaining))
        )
        if remaining and self.local_fallback:
            supervisor = self._local_supervisor(remaining, write_header=False)
            local = supervisor.run()
            for outcome in local.outcomes:
                self._settle_outcome(outcome)
        return self._report(started, interrupted=bool(remaining) and not self.local_fallback)

    # -- reporting -----------------------------------------------------

    def _report(self, started: float, interrupted: bool) -> CampaignReport:
        outcomes = list(self.prior_outcomes.values()) + [
            o
            for o in self._settled.values()
            if o.job_id not in self.prior_outcomes
        ]
        return self._books.report(
            self.campaign_id,
            outcomes,
            interrupted or bool(self._pending or self._assigned),
            time.monotonic() - started,
            dist=True,
            degraded=self.degraded,
        )

    def _log(self, line: str) -> None:
        import sys

        print("dist: {}".format(line), file=sys.stderr)
