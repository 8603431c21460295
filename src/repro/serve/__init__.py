"""Verification-as-a-service: the fault-tolerant serving layer.

``repro.serve`` wraps the toolbox's verification engines (check, lint,
perturb, analyze, fuzz) in a long-running daemon with the robustness
properties the paper's algorithms assume of their platforms:

- **admission control** — a bounded queue that sheds overload with
  fast 429s instead of unbounded latency (:mod:`.queue`);
- **deadlines** — every request's ``deadline_ms`` becomes a budget cap
  so overload degrades to partial ``exhausted_budget`` verdicts, never
  hangs (:mod:`.workers`);
- **circuit breakers** — systems whose workers keep crashing are
  quarantined with a half-open probe on cool-down (:mod:`.resilience`);
- **crash recovery** — every accepted job is journaled before the
  client hears about it; ``kill -9`` is recovered by replay
  (:mod:`.journal`);
- **pluggable verdict-cache backends** — directory or sqlite, shared
  across daemon replicas (:mod:`.backends`).

Entry point: ``python -m repro serve`` (see :mod:`.app`).
"""

from repro.serve.app import (
    EXIT_DRAIN_TIMEOUT,
    ServeConfig,
    VerificationService,
    serve_main,
)
from repro.serve.backends import BACKEND_KINDS, SqliteBackend, backend_cache, open_backend
from repro.serve.journal import Journal, JournalState, load_journal
from repro.serve.queue import AdmissionQueue
from repro.serve.resilience import (
    BREAKER_FAILURE_CLASSES,
    BreakerBoard,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.workers import ServeJob, WorkerPool

__all__ = [
    "EXIT_DRAIN_TIMEOUT",
    "ServeConfig",
    "VerificationService",
    "serve_main",
    "BACKEND_KINDS",
    "SqliteBackend",
    "backend_cache",
    "open_backend",
    "Journal",
    "JournalState",
    "load_journal",
    "AdmissionQueue",
    "BREAKER_FAILURE_CLASSES",
    "BreakerBoard",
    "CircuitBreaker",
    "RetryPolicy",
    "ServeJob",
    "WorkerPool",
]
