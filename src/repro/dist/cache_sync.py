"""Two-way verdict-cache sync between coordinator and dist workers.

The content-addressed verdict cache (:mod:`repro.cache`) already makes
re-verification free *within* a host; distribution wants the same
across hosts without shipping whole cache directories around.  The
dist layer syncs entries opportunistically, riding frames that flow
anyway:

- **coordinator → worker** — an ``assign`` frame carries the
  coordinator's cached verdict for that exact job (when it has one);
  the worker seeds its local pool before executing, so the attempt
  resolves as a warm hit instead of recomputing;
- **worker → coordinator** — a ``result`` frame carries the entry the
  worker stored (when the verdict was cacheable); the coordinator
  folds it into its own pool, so the *next* campaign — or a sibling
  daemon sharing the same dir/sqlite backend from
  :mod:`repro.serve.backends` — starts warm.

Cacheability follows :func:`repro.runner.jobs.execute_job` exactly —
conclusive, error-free, budget-uncut verdicts only, keyed by
:func:`repro.runner.jobs.job_cache_parts` — so a verdict entering the
pool through the dist path is indistinguishable from one computed
locally.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.runner.jobs import Job, job_cache_parts

__all__ = ["cacheable_entry", "lookup_entry", "store_entry"]

#: Payload keys never synced: ``wall`` is host-local timing,
#: ``telemetry`` is merged separately, ``cached`` is per-lookup state.
_UNSYNCED_KEYS = frozenset({"wall", "telemetry", "cached"})


def cacheable_entry(job: Job, payload: Any) -> Optional[Dict[str, Any]]:
    """The syncable entry for this attempt, or ``None`` when the
    verdict must not enter any pool (inconclusive, errored, budget-cut,
    uncacheable job kind, chaos attempt, computed by code that has
    since changed: no ``verdict_key``)."""
    if job_cache_parts(job) is None:
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("error") is not None:
        return None
    if not payload.get("conclusive", False) or payload.get("exhausted_budget"):
        return None
    if payload.get("verdict_key") is None:
        return None
    return {k: v for k, v in payload.items() if k not in _UNSYNCED_KEYS}


def lookup_entry(cache, job: Job) -> Optional[Dict[str, Any]]:
    """The pool's stored verdict for ``job``, or ``None`` on a miss
    (including the no-cache configuration)."""
    if cache is None:
        return None
    parts = job_cache_parts(job)
    if parts is None:
        return None
    hit = cache.lookup(job.kind, job.system, parts)
    if hit is None or hit.get("job_id") != job.job_id:
        return None
    return hit


def store_entry(cache, job: Job, entry: Optional[Dict[str, Any]]) -> bool:
    """Fold a synced entry into the pool under the key the host that
    computed it hashed (its ``verdict_key``: the key of the code that
    ran); ``True`` when stored."""
    if cache is None or not isinstance(entry, dict):
        return False
    key = entry.get("verdict_key")
    parts = job_cache_parts(job)
    if key is None or parts is None:
        return False
    cache.store(job.kind, job.system, parts, entry, key=key)
    return True
