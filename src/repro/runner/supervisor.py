"""The campaign supervisor: isolated workers, watchdogs, retry/backoff.

Long verification campaigns die in boring ways — one worker segfaults,
one zone build hangs, one result gets garbled — and a campaign that
dies with them wastes everything already proved.  The
:class:`Supervisor` makes the fleet survive its members:

- every attempt runs in **its own subprocess**, forked from a
  forkserver that preloaded the job modules (a worker can die
  arbitrarily without touching the supervisor);
- every attempt has a **wall-clock watchdog**; an overdue worker is
  killed and the attempt classified ``timeout``;
- every attempt is **classified and settled** by
  :mod:`repro.runner.attempts` (the one retry policy ``repro run``,
  ``repro run --dist`` and ``repro serve`` share): transient classes
  retry with capped exponential backoff + deterministic jitter,
  ``budget`` retries escalate the job's
  :class:`~repro.faults.budget.Budget`, and deterministic classes
  (``verdict``, ``error``) are quarantined;
- progress streams to a :class:`~repro.runner.ledger.Ledger`, so a
  killed campaign resumes from its checkpoint instead of restarting;
- worker telemetry snapshots are folded into the supervisor's
  :class:`~repro.obs.instrument.Recorder` (``runner.*`` counters,
  per-job timers) — cross-process aggregation via ``Recorder.merge``.

``run()`` always returns a complete :class:`CampaignReport`; it never
raises for anything a worker did.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.instrument import Recorder
from repro.runner.attempts import (
    AttemptState,
    Bookkeeper,
    RetryPolicy,
    Terminal,
    attempt_body,
    attempt_ready,
    collect,
    run_inline,
    spawn_attempt,
    take_eligible,
)
from repro.runner.jobs import Job
from repro.runner.ledger import Ledger
from repro.runner.report import CampaignReport, JobOutcome

__all__ = [
    "RetryPolicy",
    "Supervisor",
    "CHAOS_MODES",
]

#: The chaos self-test battery: with ``chaos=True`` the supervisor
#: assigns one mode per job, cycling, to the first three jobs — one
#: guaranteed crash, hang, and malformed result per campaign.
CHAOS_MODES = ("crash", "hang", "malformed")


@dataclass
class _Running:
    state: AttemptState
    process: Any
    queue: Any
    deadline: float
    started: float


class Supervisor:
    """Runs a job list to a complete :class:`CampaignReport`.

    ``workers >= 1`` is the supervised mode (subprocess isolation +
    watchdogs).  ``workers == 0`` executes jobs inline in this process —
    no isolation, no hang protection, chaos refused — which exists for
    debugging and fast tests of the classification logic only.
    """

    def __init__(
        self,
        jobs: List[Job],
        workers: int = 2,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        ledger: Optional[Ledger] = None,
        chaos: bool = False,
        campaign_id: Optional[str] = None,
        prior_outcomes: Optional[Dict[str, JobOutcome]] = None,
        write_header: bool = True,
        stop_after: Optional[int] = None,
        poll_interval: float = 0.02,
        recorder: Optional[Recorder] = None,
        cache: Optional[bool] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if chaos and workers == 0:
            raise ReproError("chaos needs isolated workers (workers >= 1)")
        self.jobs = list(jobs)
        self.workers = workers
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.ledger = ledger
        self.chaos = chaos
        self.campaign_id = campaign_id or uuid.uuid4().hex[:12]
        self.prior_outcomes = dict(prior_outcomes or {})
        self.write_header = write_header
        self.stop_after = stop_after
        self.poll_interval = poll_interval
        self.cache = cache
        self.recorder = recorder if recorder is not None else Recorder(
            name="runner." + self.campaign_id, max_events=0
        )
        if chaos:
            self.jobs = [
                job.with_chaos(CHAOS_MODES[i % len(CHAOS_MODES)]) if i < len(CHAOS_MODES) else job
                for i, job in enumerate(self.jobs)
            ]
        self._books = Bookkeeper(self.retry, self.recorder, "runner.", ledger)

    # -- attempt lifecycle ---------------------------------------------

    def _body(self, state: AttemptState) -> Dict[str, Any]:
        return attempt_body(
            state.job,
            state.budget_scale,
            self.timeout,
            cache=self.cache,
        )

    def _settle(self, state: AttemptState, payload, timed_out: bool, extra=None):
        """Settle one finished attempt: the terminal outcome, or
        ``None`` when the job was rescheduled for retry."""
        decision = self._books.advance(
            state, payload, timed_out, self.retry.max_retries, extra
        )
        return decision.outcome if isinstance(decision, Terminal) else None

    # -- execution -----------------------------------------------------

    def _launch(self, state: AttemptState) -> _Running:
        process, queue = spawn_attempt(self._body(state), state.attempt)
        self.recorder.incr("runner.launched")
        now = time.monotonic()
        return _Running(
            state=state,
            process=process,
            queue=queue,
            deadline=now + self.timeout,
            started=now,
        )

    def _reap(self, running: _Running, timed_out: bool) -> Optional[JobOutcome]:
        """Collect a finished (or overdue) worker and settle its attempt."""
        state = running.state
        state.wall += time.monotonic() - running.started
        payload = collect(running.process, running.queue, timed_out)
        return self._settle(
            state, payload, timed_out, {"exitcode": running.process.exitcode}
        )

    def _run_inline(self, state: AttemptState) -> Optional[JobOutcome]:
        start = time.monotonic()
        payload, timed_out = run_inline(self._body(state))
        state.wall += time.monotonic() - start
        return self._settle(state, payload, timed_out)

    def run(self) -> CampaignReport:
        """Drive every job to a terminal outcome; never raises for
        worker behaviour.  ``stop_after=N`` (and Ctrl-C) interrupt the
        campaign after ``N`` terminal outcomes — the ledger then holds
        a resumable checkpoint and the report says ``interrupted``."""
        started = time.monotonic()
        self._books.begin(
            self.campaign_id,
            self.jobs,
            {
                "workers": self.workers,
                "timeout": self.timeout,
                "max_retries": self.retry.max_retries,
                "chaos": self.chaos,
            },
            self.write_header,
        )
        pending: List[AttemptState] = [AttemptState(job=job) for job in self.jobs]
        running: List[_Running] = []
        outcomes: List[JobOutcome] = list(self.prior_outcomes.values())
        settled = 0
        interrupted = False

        def land(state: AttemptState, outcome: Optional[JobOutcome]) -> None:
            nonlocal settled
            if outcome is None:
                pending.append(state)
            else:
                outcomes.append(outcome)
                settled += 1

        try:
            while pending or running:
                stop_launching = (
                    self.stop_after is not None and settled >= self.stop_after
                )
                if stop_launching and not running:
                    interrupted = bool(pending)
                    break
                now = time.monotonic()
                while not stop_launching and len(running) < self.workers:
                    state = take_eligible(pending, now)
                    if state is None:
                        break
                    running.append(self._launch(state))
                if self.workers == 0 and not stop_launching:
                    state = take_eligible(pending, now)
                    if state is not None:
                        land(state, self._run_inline(state))
                        continue
                reaped = False
                for entry in list(running):
                    finished = attempt_ready(entry.process, entry.queue)
                    overdue = not finished and time.monotonic() >= entry.deadline
                    if finished or overdue:
                        running.remove(entry)
                        reaped = True
                        land(entry.state, self._reap(entry, timed_out=overdue))
                if not reaped and (running or pending):
                    time.sleep(self.poll_interval)
        except KeyboardInterrupt:
            interrupted = True
            for entry in running:
                entry.process.terminate()
                entry.process.join(0.5)
        return self._books.report(
            self.campaign_id, outcomes, interrupted, time.monotonic() - started
        )
