"""The remote campaign worker (``python -m repro dist worker``).

A dist worker is a long-lived daemon that listens on a TCP port and
serves coordinators one connection at a time.  Per session it:

1. answers the coordinator's ``hello`` with a ``register`` frame
   (worker id, hostname, pid — the identity every ledger entry and
   result it produces is stamped with);
2. executes ``assign`` frames one job at a time, each attempt in an
   **isolated subprocess** with a wall-clock watchdog (the same
   crash/hang containment ``repro run`` gives local jobs; ``--inline``
   trades that isolation for speed in benchmarks and tests);
3. **heartbeats** the job's lease from a background thread while the
   attempt runs, so a healthy-but-slow job is distinguishable from a
   dead host;
4. ships a ``result`` frame stamped with the lease epoch and its own
   identity — evidence the coordinator's idempotent merge can date.

The worker is deliberately stateless across sessions: it holds no
campaign state, so killing it (the chaos tests do, with SIGKILL) loses
nothing but the attempt in flight, which the coordinator's lease
machinery reclaims and reassigns.  A worker that loses its coordinator
goes straight back to ``accept`` — partitions end sessions, never the
daemon.

Exit codes: ``0`` on a clean shutdown (``--once`` session completed,
or SIGINT), :data:`EXIT_DIST_TRANSPORT` (``5``) when the listen socket
cannot be established — the one failure a worker cannot serve through.
"""

from __future__ import annotations

import os
import socket
import threading
import uuid
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dist import protocol
from repro.dist.cache_sync import cacheable_entry, lookup_entry, store_entry
from repro.dist.netfaults import FaultPlan, FaultyConnection
from repro.dist.protocol import ConnectionClosed, FrameConnection, ProtocolError
from repro.runner.attempts import run_inline, run_isolated
from repro.runner.jobs import Job

__all__ = ["DistWorker", "EXIT_DIST_TRANSPORT"]

#: Exit code for an unrecoverable transport failure (bind refused).
EXIT_DIST_TRANSPORT = 5


class DistWorker:
    """One remote worker daemon: listen, register, execute, heartbeat.

    ``isolation=True`` (the daemon default) runs every attempt in an
    isolated subprocess with a watchdog; ``isolation=False`` executes
    attempts inline in this process — no hang protection, for tests
    and throughput benchmarks.  ``chaos`` takes a
    :class:`~repro.dist.netfaults.FaultPlan` applied to this worker's
    outbound frames.  ``on_ready(port)`` fires once the socket is
    bound (how in-process tests learn an ephemeral port).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        isolation: bool = True,
        once: bool = False,
        chaos: Optional[FaultPlan] = None,
        cache=None,
        worker_id: Optional[str] = None,
        on_ready: Optional[Callable[[int], None]] = None,
        quiet: bool = False,
    ):
        self.host = host
        self.port = port
        self.isolation = isolation
        self.once = once
        self.chaos = chaos
        self.cache = cache
        self.worker_id = worker_id or "w-" + uuid.uuid4().hex[:8]
        self.on_ready = on_ready
        self.quiet = quiet
        self.hostname = socket.gethostname()
        self.pid = os.getpid()
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self.sessions = 0
        self.jobs_executed = 0
        # Daemon-lifetime chaos state: fault ordinals count across
        # sessions, so a one-shot fault (sever@result:2) fires once and
        # the worker serves clean after the coordinator re-dials.
        self._chaos_counts: Dict[str, int] = {}
        self.chaos_injected: List[str] = []

    # -- lifecycle -----------------------------------------------------

    def stop(self) -> None:
        """Ask the accept loop to exit (tests; SIGINT does the same)."""
        self._stop.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def serve_forever(self) -> int:
        """Bind, announce readiness, and serve sessions until stopped.

        Returns a process exit code; never raises for anything a
        coordinator (or the network) did.
        """
        try:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(4)
        except OSError as exc:
            self._say("dist worker failed to bind {}:{}: {}".format(
                self.host, self.port, exc
            ))
            return EXIT_DIST_TRANSPORT
        self._listener = listener
        self.port = listener.getsockname()[1]
        if self.on_ready is not None:
            self.on_ready(self.port)
        self._say(
            "dist worker ready on {}:{} pid={} id={}".format(
                self.host, self.port, self.pid, self.worker_id
            )
        )
        try:
            while not self._stop.is_set():
                listener.settimeout(0.25)
                try:
                    sock, _addr = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed by stop()
                self.sessions += 1
                ended_clean = self._session(sock)
                if self.once and ended_clean:
                    return 0
        except KeyboardInterrupt:
            pass
        finally:
            try:
                listener.close()
            except OSError:
                pass
        return 0

    # -- one coordinator session ---------------------------------------

    def _session(self, sock: socket.socket) -> bool:
        """Serve one coordinator connection; ``True`` when it ended
        with a clean ``bye`` (vs a lost/severed connection)."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.chaos is not None:
            conn: FrameConnection = FaultyConnection(
                sock, self.chaos, counts=self._chaos_counts,
                injected=self.chaos_injected,
            )
        else:
            conn = FrameConnection(sock)
        heartbeat_s = 1.0
        try:
            hello = conn.recv(timeout=10.0)
            if hello is None or hello.get("kind") != "hello":
                conn.close()
                return False
            if hello.get("protocol") != protocol.PROTOCOL_VERSION:
                conn.send(
                    {
                        "kind": "error",
                        "detail": "unsupported protocol {!r} (speaking {})".format(
                            hello.get("protocol"), protocol.PROTOCOL_VERSION
                        ),
                    }
                )
                conn.close()
                return False
            heartbeat_s = max(0.05, float(hello.get("heartbeat_ms", 1000)) / 1000.0)
            conn.send(
                {
                    "kind": "register",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "worker_id": self.worker_id,
                    "host": self.hostname,
                    "pid": self.pid,
                    "slots": 1,
                    "isolation": self.isolation,
                }
            )
            while not self._stop.is_set():
                frame = conn.recv(timeout=0.5)
                if frame is None:
                    continue
                kind = frame.get("kind")
                if kind == "assign":
                    self._handle_assign(conn, frame, heartbeat_s)
                elif kind == "ping":
                    conn.send({"kind": "pong"})
                elif kind == "bye":
                    conn.close()
                    return True
                # unknown kinds are skipped: future coordinators may
                # send informational frames old workers ignore.
            conn.close()
            return True
        except (ConnectionClosed, ProtocolError):
            conn.close()
            return False

    # -- one assignment ------------------------------------------------

    def _handle_assign(
        self, conn: FrameConnection, frame: Dict[str, Any], heartbeat_s: float
    ) -> None:
        job = Job.from_dict(frame["job"])
        epoch = int(frame.get("epoch", 0))
        attempt = int(frame.get("attempt", 0))
        store_entry(self.cache, job, frame.get("cache_entry"))
        stop_beats = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, job.job_id, epoch, heartbeat_s, stop_beats),
            daemon=True,
        )
        beats.start()
        try:
            payload, timed_out = self._execute(job, attempt)
        finally:
            stop_beats.set()
            beats.join(timeout=2.0)
        self.jobs_executed += 1
        entry = None if timed_out else cacheable_entry(job, payload)
        if entry is not None:
            store_entry(self.cache, job, entry)
        conn.send(
            {
                "kind": "result",
                "job_id": job.job_id,
                "epoch": epoch,
                "attempt": attempt,
                "payload": payload,
                "timed_out": timed_out,
                "worker_id": self.worker_id,
                "host": self.hostname,
                "pid": self.pid,
                "cache_entry": entry,
            }
        )

    def _heartbeat_loop(
        self,
        conn: FrameConnection,
        job_id: str,
        epoch: int,
        heartbeat_s: float,
        stop: threading.Event,
    ) -> None:
        while not stop.wait(heartbeat_s):
            try:
                conn.send(
                    {
                        "kind": "heartbeat",
                        "job_id": job_id,
                        "epoch": epoch,
                        "worker_id": self.worker_id,
                    }
                )
            except (ConnectionClosed, ProtocolError):
                return  # session is gone; the executor will notice on send

    def _execute(self, job: Job, attempt: int) -> Tuple[Optional[Dict[str, Any]], bool]:
        """One attempt: ``(payload_or_None, timed_out)``.

        A warm hit in the worker's own pool (possibly just seeded by
        the coordinator) short-circuits execution entirely.
        """
        hit = lookup_entry(self.cache, job)
        if hit is not None:
            payload = dict(hit)
            payload["cached"] = True
            return payload, False
        body = job.to_dict()
        if not self.isolation:
            return run_inline(body)
        return run_isolated(body, attempt, float(job.params.get("timeout", 30.0)))

    def _say(self, line: str) -> None:
        if not self.quiet:
            print(line, flush=True)

