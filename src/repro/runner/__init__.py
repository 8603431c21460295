"""repro.runner — supervised, crash-isolated verification campaigns.

The substrate for running the repo's whole verification surface —
mapping checks, perturbation batteries, lints, fuzz shards — as a fleet
of isolated jobs that survives worker crashes, hangs, and garbled
results (``python -m repro run``):

- :mod:`repro.runner.jobs` — the serializable :class:`Job` catalog and
  in-process execution;
- :mod:`repro.runner.worker` — the attempt-subprocess entry point and
  chaos self-test modes;
- :mod:`repro.runner.preload` — what the attempt forkserver hashes and
  imports once, before it forks any attempt;
- :mod:`repro.runner.attempts` — the attempt automaton every transport
  shares: classification, retry/backoff, budget escalation, quarantine;
- :mod:`repro.runner.supervisor` — isolated local workers under
  watchdogs;
- :mod:`repro.runner.ledger` — the JSONL checkpoint ledger behind
  ``repro run --resume``;
- :mod:`repro.runner.report` — per-job outcomes and the always-complete
  :class:`CampaignReport`.
"""

from repro.runner.attempts import RetryPolicy
from repro.runner.jobs import JOB_KINDS, Job, default_jobs, execute_job
from repro.runner.ledger import Ledger, LedgerState, load_ledger
from repro.runner.report import (
    FAILURE_CLASSES,
    TRANSIENT_CLASSES,
    CampaignReport,
    JobOutcome,
)
from repro.runner.supervisor import CHAOS_MODES, Supervisor

__all__ = [
    "JOB_KINDS",
    "FAILURE_CLASSES",
    "TRANSIENT_CLASSES",
    "CHAOS_MODES",
    "Job",
    "default_jobs",
    "execute_job",
    "Ledger",
    "LedgerState",
    "load_ledger",
    "JobOutcome",
    "CampaignReport",
    "RetryPolicy",
    "Supervisor",
]
