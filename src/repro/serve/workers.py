"""The serving worker pool: crash-isolated attempts under deadlines.

Each worker thread pulls scheduled jobs off the admission queue and
drives one job at a time to a terminal result through the attempt
automaton campaigns use (:mod:`repro.runner.attempts`):

- attempts run in an **isolated subprocess** under a watchdog (isolated
  mode, the daemon default) or inline (test and benchmark mode — no
  hang protection, budgets only);
- classification, retry/backoff and 4x budget escalation are the
  campaign's, with the request's ``max_retries`` as the allowance —
  but a retry **never runs past the request's deadline**;
- every classified attempt feeds the system's circuit breaker.

Deadline semantics: a request's ``deadline_ms`` is converted to a
monotonic-clock deadline at admission.  The remaining time caps both
the in-job :class:`~repro.faults.budget.Budget` *wall_time* (so checks
degrade to partial ``exhausted_budget`` verdicts) and the subprocess
watchdog (so even a hung worker cannot overrun the deadline by more
than a kill's grace).  A job that runs out of deadline — queued or
mid-attempt — settles as a partial verdict with status ``deadline``,
``exhausted_budget: true`` and ``conclusive: false``; it never hangs
and never counts against the system's breaker (the *client's* clock
ran out, not the system).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.obs.instrument import Recorder
from repro.runner.attempts import (
    AttemptState,
    Bookkeeper,
    Retry,
    RetryPolicy,
    attempt_body,
    classify_attempt,
    run_inline,
    run_isolated,
    settle,
)
from repro.runner.jobs import RESULT_SCHEMA_VERSION, Job
from repro.runner.report import JobOutcome
from repro.serve.journal import Journal
from repro.serve.queue import AdmissionQueue
from repro.serve.resilience import BreakerBoard

__all__ = ["ServeJob", "WorkerPool"]

#: Floor on any watchdog/budget window — a zero window would make even
#: the degradation path unreachable.
_MIN_WINDOW_S = 0.05


@dataclass
class ServeJob:
    """One accepted request, from admission to terminal result."""

    job: Job
    deadline_ms: Optional[int] = None
    max_retries: int = 1
    timeout_s: float = 30.0
    submitted_at: float = field(default_factory=time.monotonic)
    #: Monotonic instant the deadline expires (None: no deadline).
    deadline_at: Optional[float] = None
    state: str = "queued"  # queued | running | done
    result: Optional[Dict[str, Any]] = None
    recovered: bool = False
    #: Progress through the attempt automaton.
    progress: AttemptState = field(init=False, repr=False)

    def __post_init__(self):
        if self.deadline_ms is not None and self.deadline_at is None:
            self.deadline_at = self.submitted_at + self.deadline_ms / 1000.0
        self.progress = AttemptState(job=self.job)

    @property
    def attempts(self) -> int:
        return self.progress.attempt

    @property
    def classifications(self) -> List[str]:
        return self.progress.classifications

    def remaining_s(self) -> Optional[float]:
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.monotonic()

    def envelope(self) -> Dict[str, Any]:
        """The serving parameters journaled alongside the job body."""
        return {
            "deadline_ms": self.deadline_ms,
            "max_retries": self.max_retries,
            "timeout_s": self.timeout_s,
            "recovered": self.recovered,
        }

    def to_public_dict(self) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` projection."""
        body = {
            "job_id": self.job.job_id,
            "kind": self.job.kind,
            "system": self.job.system,
            "state": self.state,
            "deadline_ms": self.deadline_ms,
            "attempts": self.attempts,
            "classifications": list(self.classifications),
            "recovered": self.recovered,
        }
        if self.result is not None:
            body["result"] = {
                k: v for k, v in self.result.items() if k not in ("schema", "telemetry")
            }
        return body


def _synthetic_result(
    job: ServeJob, status: str, detail: str, error: Optional[Dict[str, str]] = None
) -> Dict[str, Any]:
    """A terminal result no worker payload backs: a lost attempt
    (``crash``/``timeout``/``malformed``), a serving ``error``, or a
    ``deadline`` partial verdict — the Budget-discipline answer to an
    expired deadline: degrade, flag, never hang."""
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "job_id": job.job.job_id,
        "status": status,
        "ok": False,
        "conclusive": status != "deadline",
        "exhausted_budget": status == "deadline",
        "detail": detail,
        "error": error,
    }


class WorkerPool:
    """``workers`` threads drain the admission queue to terminal results.

    ``isolation=True`` (daemon default) runs each attempt in its own
    subprocess with a watchdog; ``isolation=False`` executes attempts
    inline in the worker thread — fast, but hangs are only contained by
    in-job budgets, so it is for tests and benchmarks.

    ``on_done(serve_job)`` fires when a job settles, just before its
    journal ``done`` record, letting the service layer store warm-cache
    entries and wake pollers.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        journal: Journal,
        breakers: BreakerBoard,
        recorder: Recorder,
        workers: int = 2,
        isolation: bool = True,
        retry: Optional[RetryPolicy] = None,
        on_done=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = queue
        self.journal = journal
        self.breakers = breakers
        self.recorder = recorder
        self.workers = workers
        self.isolation = isolation
        self.retry = retry if retry is not None else RetryPolicy()
        self.on_done = on_done
        self._books = Bookkeeper(self.retry, recorder, "serve.")
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name="serve-worker-{}".format(index), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for every worker thread to exit (queue must be closed);
        ``False`` when ``timeout`` elapsed first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            if thread.is_alive():
                return False
        return True

    def stop(self) -> None:
        """Ask workers to exit after their current job (drain assist)."""
        self._stop.set()

    def _loop(self) -> None:
        while True:
            item = self.queue.take(timeout=0.1)
            if item is None:
                if self._stop.is_set() or (
                    self.queue.closed() and self.queue.depth() == 0
                ):
                    return
                continue
            self.recorder.gauge("serve.queue_depth", self.queue.depth())
            try:
                self._process(item)
            except Exception as exc:  # the pool must survive anything
                self.recorder.incr("serve.worker_errors")
                self.recorder.incr("serve.failed")
                self._finish(
                    item,
                    _synthetic_result(
                        item,
                        "error",
                        "serving error: {}: {}".format(type(exc).__name__, exc),
                        {"type": type(exc).__name__, "message": str(exc)},
                    ),
                )

    # -- one job -------------------------------------------------------

    def _process(self, job: ServeJob) -> None:
        job.state = "running"
        state = job.progress
        while True:
            remaining = job.remaining_s()
            if remaining is not None and remaining <= 0:
                self._expire(job, "queued" if state.attempt == 0 else "running")
                return
            watchdog = self.timeout_for(job, remaining)
            deadline_bound = remaining is not None and remaining <= watchdog
            body = attempt_body(job.job, state.budget_scale, job.timeout_s)
            if remaining is not None:
                # The remaining deadline caps the in-job budget so the
                # check degrades to a partial verdict before the
                # watchdog fires.
                params = body["params"]
                cap = params.get("wall_time")
                window = max(_MIN_WINDOW_S, remaining * 0.9)
                params["wall_time"] = window if cap is None else min(float(Fraction(cap)), window)
            started = time.perf_counter()
            if self.isolation:
                payload, timed_out = run_isolated(body, state.attempt, watchdog)
            else:
                payload, timed_out = run_inline(body)
            wall = time.perf_counter() - started
            self.recorder.merge(
                {"timers": {"serve.attempt." + job.job.kind: {"total_s": wall, "calls": 1}}}
            )
            classification, detail = classify_attempt(job.job.job_id, payload, timed_out)
            if classification == "timeout" and deadline_bound:
                # The deadline, not the service watchdog, killed it: a
                # partial verdict, not an infrastructure timeout.
                self._books.commit(state, classification, detail, payload, None)
                self._expire(job, "running")
                return
            decision = settle(
                state, classification, detail, payload, self.retry, job.max_retries
            )
            if (
                isinstance(decision, Retry)
                and remaining is not None
                and decision.backoff + _MIN_WINDOW_S >= job.remaining_s()
            ):
                # No room left to retry inside the deadline.
                decision = settle(state, classification, detail, payload, self.retry, 0)
            self._books.commit(state, classification, detail, payload, decision)
            self.breakers.breaker(job.job.system).record(classification)
            if isinstance(decision, Retry):
                time.sleep(decision.backoff)
                continue
            self._finish(job, self._result(job, decision.outcome, payload))
            return

    def timeout_for(self, job: ServeJob, remaining: Optional[float]) -> float:
        """The attempt watchdog: the configured per-job timeout, capped
        by the request's remaining deadline (plus a floor so the kill
        path stays reachable)."""
        if remaining is None:
            return job.timeout_s
        return max(_MIN_WINDOW_S, min(job.timeout_s, remaining))

    @staticmethod
    def _result(job: ServeJob, outcome: JobOutcome, payload) -> Dict[str, Any]:
        """The client-facing result of a settled job: the worker's own
        payload when it produced one, else a synthetic one."""
        if isinstance(payload, dict) and outcome.status in ("ok", "verdict", "budget", "error"):
            result = {k: v for k, v in payload.items() if k != "telemetry"}
            result["status"] = outcome.status
            return result
        return _synthetic_result(job, outcome.status, outcome.detail)

    def _expire(self, job: ServeJob, where: str) -> None:
        """Settle a job whose deadline expired ``where`` (``queued`` or
        ``running``); never counted against the system's breaker."""
        self.recorder.incr("serve.deadline_expired")
        self.recorder.incr("serve.failed")
        self._finish(
            job,
            _synthetic_result(
                job, "deadline", "deadline_ms={} expired while {}".format(job.deadline_ms, where)
            ),
        )

    def _finish(self, job: ServeJob, result: Dict[str, Any]) -> None:
        job.result = result
        if self.on_done is not None:
            # Before the journal's ``done`` and the state flip: a job
            # killed in between is replayed and stored again, and a
            # poller never sees "done" and warm-misses.
            try:
                self.on_done(job)
            except Exception:
                self.recorder.incr("serve.on_done_errors")
        self.journal.done(job.job.job_id, result)
        self.recorder.incr("serve.completed")
        latency = time.monotonic() - job.submitted_at
        self.recorder.merge(
            {"timers": {"serve.job": {"total_s": latency, "calls": 1}}}
        )
        job.state = "done"
