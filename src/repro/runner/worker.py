"""The crash-isolated side of a supervised campaign.

:func:`worker_main` is the sole entry point a worker subprocess runs.
Each attempt is its own process, forked from a ``multiprocessing``
*forkserver* that imported the job modules once and built nothing
(:mod:`repro.runner.preload`; a fresh *spawn* interpreter where there
is no forkserver), so one worker's segfault or runaway recursion cannot
corrupt its siblings or the supervisor, and no engine state is carried
over between attempts.  The forkserver's code is frozen when it
starts: a verdict computed after a source file of its closure changed
on disk is marked ``stale_code`` and never stored.  The worker executes
one job via :func:`repro.runner.jobs.execute_job` and ships the result
payload back over a queue.

Chaos self-test modes (``--chaos``) are injected *here*, below the
supervisor's recovery machinery, so the recovery paths are proven
against real process misbehaviour rather than mocks:

- ``crash``     — hard ``os._exit`` before producing a result;
- ``hang``      — sleep far past the job's watchdog timeout;
- ``malformed`` — ship a payload the supervisor cannot interpret.

Each mode fires on the first attempt only (``attempt == 0``), so a
retried chaos job demonstrates the full classify → backoff → retry →
success loop.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from repro.runner.jobs import Job, execute_job

__all__ = ["worker_main", "CRASH_EXIT_CODE"]

#: Deliberate exit code for chaos crashes (distinguishable from a
#: Python traceback's exit 1 in the supervisor's logs, classified the
#: same way).
CRASH_EXIT_CODE = 23


def worker_main(
    job_body: Dict[str, Any],
    attempt: int,
    queue,
    environ: Optional[Dict[str, str]] = None,
) -> None:
    """Run one job and put the result payload on ``queue``.

    ``job_body`` is ``Job.to_dict()`` output (plain JSON — only
    builtins cross the process boundary).  ``environ`` replaces the
    environment the worker inherited: a forkserver's is the one its
    parent had when the forkserver started.  Exceptions never
    propagate: :func:`execute_job` converts them into failing payloads,
    so a worker that *exits* without a payload really did die
    abnormally.
    """
    if environ is not None:
        os.environ.clear()
        os.environ.update(environ)
    job = Job.from_dict(job_body)
    if job.chaos and attempt == 0:
        if job.chaos == "crash":
            os._exit(CRASH_EXIT_CODE)
        if job.chaos == "hang":
            # Sleep far past any sane watchdog; the supervisor kills us.
            timeout = float(job.params.get("timeout", 5.0))
            time.sleep(max(60.0, timeout * 20))
            os._exit(CRASH_EXIT_CODE)
        if job.chaos == "malformed":
            queue.put(["not", "a", "result", "payload"])
            return
    queue.put(execute_job(job))
