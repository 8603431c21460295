"""The job-attempt automaton: one retry policy for every transport.

The local :class:`~repro.runner.supervisor.Supervisor`, the multi-host
:class:`~repro.dist.coordinator.DistCoordinator` and the serving
:class:`~repro.serve.workers.WorkerPool` all drive jobs through
attempts; this module is the only one that knows what an attempt
*means*.  Each transport keeps its own spawn, lease or HTTP concerns
and a counter prefix (``runner.``, ``dist.``, ``serve.``):

1. :func:`attempt_body` — the job body one attempt runs;
2. :func:`run_isolated` (:func:`spawn_attempt`, :func:`attempt_ready`
   and :func:`collect` for a caller that polls) or :func:`run_inline`
   — run it;
3. :func:`classify_attempt` — a class of
   :data:`~repro.runner.report.FAILURE_CLASSES` plus a one-line detail;
4. :func:`settle` — the transition: :class:`Retry` while a transient
   class has retries left, else :class:`Terminal` with the
   :class:`JobOutcome`;
5. :class:`Bookkeeper` — apply it: ledger lines, counters, telemetry,
   and the :class:`AttemptState` advance.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import forkserver, util
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs import instrument as _telemetry
from repro.runner.jobs import RESULT_SCHEMA_VERSION, Job, execute_job
from repro.runner.report import TRANSIENT_CLASSES, CampaignReport, JobOutcome

__all__ = [
    "RetryPolicy",
    "AttemptState",
    "Retry",
    "Terminal",
    "Bookkeeper",
    "attempt_body",
    "classify_attempt",
    "settle",
    "take_eligible",
    "spawn_attempt",
    "attempt_ready",
    "collect",
    "run_isolated",
    "run_inline",
]

#: Seconds a killed attempt gets to exit on SIGTERM before SIGKILL.
KILL_GRACE_S = 0.5

#: Seconds a worker that delivered its payload gets to exit on its own.
EXIT_GRACE_S = 5.0


def _attempt_context():
    """Where isolated attempts run: a *forkserver* that has imported the
    job modules once (:mod:`repro.runner.preload`), started lazily by
    the first attempt, or fresh *spawn* interpreters on a platform
    without one."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.runner.preload"])
    return context


_CONTEXT = _attempt_context()

#: Serialises attempt starts with :func:`_retire_forkserver`, which
#: closes the descriptor a start sends to the forkserver.
_START_LOCK = threading.Lock()

#: Pids of retired forkservers not yet reaped.
_RETIRED: List[int] = []

#: Per-class counters, bumped under the transport's prefix.
_CLASS_COUNTERS = {
    "crash": "crashes",
    "timeout": "timeouts",
    "malformed": "malformed",
    "budget": "budget_cuts",
}


class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(n)`` for the ``n``-th retry (0-based) is
    ``min(cap, base · 2ⁿ)`` stretched by up to ``jitter`` fraction —
    jitter is drawn from a seeded RNG so campaigns are reproducible and
    retry storms still decorrelate.  ``max_retries`` is the campaign
    default allowance; :func:`settle` takes the allowance as an argument.
    """

    def __init__(
        self,
        max_retries: int = 2,
        base: float = 0.1,
        cap: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if base < 0 or cap < 0 or jitter < 0:
            raise ValueError("base, cap and jitter must be >= 0")
        self.max_retries = max_retries
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.seed = seed
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        return min(self.cap, self.base * (2 ** attempt)) * (
            1.0 + self.jitter * self._rng.random()
        )


@dataclass
class AttemptState:
    """One job's progress through its attempts."""

    job: Job
    #: Attempts made so far, whatever ended them (the next one's index).
    attempt: int = 0
    #: Retries granted so far: gates the next one and is its backoff
    #: exponent.  A dist host loss is an attempt but not a retry.
    retries: int = 0
    budget_scale: int = 1
    classifications: List[str] = field(default_factory=list)
    wall: float = 0.0
    #: Monotonic instant before which the next attempt must not start.
    eligible_at: float = 0.0


@dataclass(frozen=True)
class Retry:
    """Run the job again after ``backoff`` seconds at ``budget_scale``."""

    backoff: float
    budget_scale: int


@dataclass(frozen=True)
class Terminal:
    """The job is done; ``outcome`` is its record."""

    outcome: JobOutcome


Decision = Union[Retry, Terminal]


def attempt_body(
    job: Job,
    budget_scale: int,
    timeout: float,
    cache: Optional[bool] = None,
) -> Dict[str, Any]:
    """The ``Job.to_dict()`` body one attempt runs."""
    body = job.to_dict()
    params = dict(body["params"])
    params["budget_scale"] = budget_scale
    params["timeout"] = timeout
    # The campaign-wide cache choice travels as a job param so it
    # survives the process boundary.
    if cache is not None:
        params["cache"] = cache
    body["params"] = params
    return body


def classify_attempt(job_id: str, payload, timed_out: bool) -> Tuple[str, str]:
    """``(classification, detail)`` for one attempt's (possibly absent
    or garbled) result: ``malformed`` is anything but a current-schema
    payload for this job, ``error`` an escaped library error,
    ``verdict`` a failed check, ``budget`` a partial verdict."""
    if timed_out:
        return "timeout", "watchdog killed the attempt: no result in time"
    if payload is None:
        return "crash", "worker exited without a result"
    if not isinstance(payload, dict):
        return "malformed", "unintelligible worker result: {!r}".format(payload)[:200]
    detail = str(payload.get("detail", ""))
    if payload.get("schema") != RESULT_SCHEMA_VERSION or payload.get("job_id") != job_id:
        return "malformed", detail
    if payload.get("error"):
        return "error", detail
    if not payload.get("ok"):
        return "verdict", detail
    if payload.get("exhausted_budget") and not payload.get("conclusive", True):
        return "budget", detail
    return "ok", detail


def settle(
    state: AttemptState,
    classification: str,
    detail: str,
    payload,
    policy: RetryPolicy,
    max_retries: int,
) -> Decision:
    """The automaton's one transition, for the attempt just classified.

    Transient classes retry while ``state.retries < max_retries``, with
    backoff ``policy.delay(state.retries)``; a ``budget`` retry
    quadruples the budget scale.  Everything else is terminal.  Pure
    apart from the jitter draw: ``state`` is read, never written
    (:meth:`Bookkeeper.commit` applies the decision).
    """
    if classification in TRANSIENT_CLASSES and state.retries < max_retries:
        scale = state.budget_scale * (4 if classification == "budget" else 1)
        return Retry(backoff=policy.delay(state.retries), budget_scale=scale)
    job = state.job
    status, ok = classification, False
    if classification == "ok":
        # A deliberately-broken system (expect_failure) that passes is
        # the failure; one that fails on the merits is the success.
        ok = not job.expect_failure
        if job.expect_failure:
            status = "unexpected-pass"
            detail = detail or "expected this system to fail; it passed"
    elif classification == "verdict":
        ok = job.expect_failure
        if job.expect_failure:
            status = "expected-failure"
    elif classification == "budget":
        # Retries (with escalated budgets) ran out: keep the partial
        # verdict, flagged inconclusive, rather than losing the job.
        ok = bool(isinstance(payload, dict) and payload.get("ok"))
    return Terminal(
        JobOutcome(
            job_id=job.job_id,
            kind=job.kind,
            system=job.system,
            status=status,
            ok=ok,
            attempts=state.attempt + 1,
            retries=state.retries,
            detail=detail,
            wall=state.wall,
            conclusive=classification != "budget",
            expect_failure=job.expect_failure,
            classifications=state.classifications + [classification],
            error=payload.get("error") if isinstance(payload, dict) else None,
        )
    )


def take_eligible(pending: List[AttemptState], now: float) -> Optional[AttemptState]:
    """Pop the first pending state whose backoff has elapsed."""
    for index, state in enumerate(pending):
        if state.eligible_at <= now:
            return pending.pop(index)
    return None


class Bookkeeper:
    """One transport's books: its ledger (if it keeps one), its
    ``prefix``-namespaced counters, and merged worker telemetry."""

    def __init__(self, policy: RetryPolicy, recorder, prefix: str, ledger=None):
        self.policy = policy
        self.recorder = recorder
        self.prefix = prefix
        self.ledger = ledger

    def advance(self, state, payload, timed_out: bool, max_retries: int, extra=None) -> Decision:
        """Classify, settle and commit one finished attempt (a
        :class:`Retry` is already scheduled via ``state.eligible_at``)."""
        classification, detail = classify_attempt(state.job.job_id, payload, timed_out)
        decision = settle(state, classification, detail, payload, self.policy, max_retries)
        self.commit(state, classification, detail, payload, decision, extra)
        return decision

    def commit(self, state, classification, detail, payload, decision, extra=None) -> None:
        """Apply one classified attempt.  ``decision=None`` records an
        attempt that earned no verdict (a dist host loss) and leaves the
        requeue to the caller.  ``extra`` rides on the ledger line
        (worker identity, lease epoch, exit code)."""
        retry = decision if isinstance(decision, Retry) else None
        if self.ledger is not None:
            self.ledger.attempt(
                state.job.job_id,
                state.attempt,
                classification,
                detail,
                backoff=None if retry is None else retry.backoff,
                budget_scale=state.budget_scale,
                extra=extra,
            )
        counter = _CLASS_COUNTERS.get(classification)
        if counter is not None:
            self._incr(counter)
        if isinstance(payload, dict) and isinstance(payload.get("telemetry"), dict):
            self.recorder.merge(payload["telemetry"])
        state.classifications.append(classification)
        state.attempt += 1
        if retry is not None:
            if classification == "budget":
                self._incr("budget_escalations")
            state.budget_scale = retry.budget_scale
            state.retries += 1
            state.eligible_at = time.monotonic() + retry.backoff
            self._incr("retries")
        elif isinstance(decision, Terminal):
            outcome = decision.outcome
            if not outcome.ok:
                self._incr("failed")
            if classification in ("verdict", "error") and not outcome.expect_failure:
                self._incr("quarantined")
            if self.ledger is not None:
                self.ledger.done(outcome)

    def begin(
        self, campaign_id: str, jobs: List[Job], options: Dict[str, Any], write_header: bool
    ) -> None:
        """Open the campaign's ledger (or re-open it, resuming)."""
        self._incr("jobs", len(jobs))
        if self.ledger is None:
            return
        if write_header:
            self.ledger.begin(campaign_id, jobs, options)
        else:
            self.ledger.resume(campaign_id, [job.job_id for job in jobs])

    def report(
        self,
        campaign_id: str,
        outcomes: List[JobOutcome],
        interrupted: bool,
        wall: float,
        **summary: Any,
    ) -> CampaignReport:
        """Fold terminal outcomes into the campaign report: per-job
        timers, telemetry (also into any active parent recorder), and
        the ledger's ``end`` line (plus ``summary`` fields)."""
        report = CampaignReport(
            campaign_id=campaign_id, outcomes=outcomes, interrupted=interrupted, wall=wall
        )
        for outcome in outcomes:
            timer = {"total_s": outcome.wall, "calls": 1}
            self.recorder.merge({"timers": {self.prefix + "job." + outcome.job_id: timer}})
        report.telemetry = self.recorder.snapshot()
        parent = _telemetry.active()
        if parent is not None and parent is not self.recorder:
            parent.merge(self.recorder)
        if self.ledger is not None:
            summary.update(ok=report.ok, interrupted=interrupted, jobs=len(outcomes))
            summary.update(retries=report.total_retries(), counts=report.counts())
            self.ledger.end(summary)
        return report

    def _incr(self, name: str, amount: int = 1) -> None:
        self.recorder.incr(self.prefix + name, amount)


# -- running one attempt ---------------------------------------------


def spawn_attempt(body: Dict[str, Any], attempt: int):
    """Start one attempt in its own process: forked from the forkserver,
    whose preload already imported the job modules (*spawn*, a fresh
    interpreter, where there is no forkserver).  Returns ``(process,
    queue)`` for :func:`attempt_ready` and :func:`collect`.

    The child takes this process's environment as it is now, not as it
    was when the forkserver started.  Its code is the package as the
    forkserver imported it: frozen, so a verdict it computes after its
    sources changed on disk comes back marked ``stale_code`` and is
    never stored (:func:`repro.runner.jobs.execute_job`), and
    :func:`collect` retires the forkserver so that the next attempt
    forks from one that imported the new code."""
    from repro.runner.worker import worker_main

    queue = _CONTEXT.SimpleQueue()
    process = _CONTEXT.Process(
        target=worker_main, args=(body, attempt, queue, dict(os.environ)), daemon=True
    )
    with _START_LOCK:
        process.start()
    # The child holds its own copy of the write end.  Dropping ours
    # turns a worker that dies mid-payload into EOF instead of a read
    # that waits forever for the rest of the message.
    queue._writer.close()
    return process, queue


def _retire_forkserver() -> None:
    """Detach the running forkserver, so the next attempt starts one
    that scans and imports the package afresh.  The old server exits
    by itself once the attempts it forked are gone (each holds its end
    of the server's "alive" pipe); its pid is reaped by a later retire
    or at exit."""
    if _CONTEXT.get_start_method() != "forkserver":
        return
    server = forkserver._forkserver
    with _START_LOCK, server._lock:
        if server._forkserver_pid is None:
            return
        os.close(server._forkserver_alive_fd)
        _RETIRED.append(server._forkserver_pid)
        server._forkserver_pid = None
        server._forkserver_alive_fd = None
        server._forkserver_address = None
    _reap(os.WNOHANG)


def _reap(options: int) -> None:
    for pid in list(_RETIRED):
        try:
            done = os.waitpid(pid, options)[0]
        except ChildProcessError:
            done = pid
        if done:
            _RETIRED.remove(pid)


def _stop_forkservers() -> None:
    """At exit, after ``multiprocessing`` has ended this process's
    attempts: retire the forkserver and wait for it and any earlier
    one, so none outlives this process."""
    _retire_forkserver()
    _reap(0)


util.Finalize(None, _stop_forkservers, exitpriority=-1)


def attempt_ready(process, queue, timeout: float = 0.0) -> bool:
    """True once the attempt has exited or started writing its payload,
    waiting up to ``timeout`` seconds.

    The payload must be read before the process is joined: a payload
    larger than the pipe buffer blocks the worker in ``put`` until
    someone reads it, so waiting for the exit alone would stall it
    until the watchdog fires.
    """
    from multiprocessing.connection import wait

    return bool(wait([process.sentinel, queue._reader], timeout))


def collect(process, queue, timed_out: bool) -> Optional[Dict[str, Any]]:
    """Reap an attempt that is ready (:func:`attempt_ready`) or overdue:
    unless ``timed_out``, read its payload first (``None`` when it died
    without one), then end the process, killing it when it does not
    exit on its own.  A ``stale_code`` payload retires the forkserver,
    and this process's own scan with it: the next attempt runs the code
    on disk, so this process's next lookup must key on that code too."""
    payload = None
    if not timed_out:
        try:
            payload = None if queue.empty() else queue.get()
        except Exception:  # torn pipe write from a dying worker
            payload = None
        process.join(EXIT_GRACE_S)  # a worker exits right after its put
    if process.is_alive():
        process.terminate()
        process.join(KILL_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join(1.0)
    queue.close()
    if isinstance(payload, dict) and payload.get("stale_code"):
        from repro.cache.fingerprint import forget_scan

        _retire_forkserver()
        forget_scan()
    return payload


def run_isolated(body: Dict[str, Any], attempt: int, watchdog_s: float):
    """One isolated attempt under a ``watchdog_s`` watchdog: returns
    ``(payload_or_None, timed_out)``."""
    process, queue = spawn_attempt(body, attempt)
    timed_out = not attempt_ready(process, queue, watchdog_s)
    return collect(process, queue, timed_out), timed_out


def run_inline(body: Dict[str, Any]):
    """One attempt in this process — no isolation, no watchdog, for
    tests and benchmarks: returns ``(payload, False)``."""
    return execute_job(Job.from_dict(body)), False
