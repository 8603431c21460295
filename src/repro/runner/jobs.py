"""Serializable verification jobs over every shipped system.

A :class:`Job` is the unit a supervised campaign schedules: one check
kind applied to one system, with plain-JSON parameters so it can cross
a process boundary (an isolated attempt) and a checkpoint ledger
unchanged.  Each kind's params, defaults, validators and systems are
declared once, in :data:`repro.catalog.KIND_SPECS`.  Five kinds
decompose the repo's whole verification surface:

- ``check``   — the system's full nominal proof battery (mapping/chain
  checks on adversarial runs, Lemma 2.1 acceptance, exact zone bounds)
  via :func:`repro.faults.build_perturb_target` at ε = 0;
- ``perturb`` — the same battery under one fixed drift ε;
- ``lint``    — the static diagnostics pass of :mod:`repro.lint`;
- ``analyze`` — the symbolic obligation proofs of :mod:`repro.analyze`;
- ``fuzz``    — one shard of a differential proof-method fuzz campaign
  (:func:`repro.gen.fuzzer.run_campaign`) under the synthetic system
  name ``gen``; shards with the same seed partition one campaign's
  index range, so a crashed shard resumes from the ledger without
  re-fuzzing its siblings.

:func:`execute_job` runs a job *in the current process* and reduces
whatever happened to a plain result payload — the worker wrapper in
:mod:`repro.runner.worker` adds process isolation and chaos injection
on top.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import catalog
from repro.catalog import FUZZ_SYSTEM, JOB_KINDS, KIND_SPECS
from repro.errors import ReproError
from repro.obs.instrument import Recorder, recording

__all__ = [
    "FUZZ_SYSTEM",
    "JOB_KINDS",
    "RESULT_SCHEMA_VERSION",
    "Job",
    "default_jobs",
    "execute_job",
    "fuzz_shards",
    "job_cache_parts",
]

#: Version stamp on worker result payloads; a payload without it (or
#: with a future one) is classified ``malformed`` by the supervisor.
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Job:
    """One schedulable unit of verification work.

    ``params`` must stay plain JSON (exact fractions ride as ``"p/q"``
    strings); ``chaos`` is the self-test fault mode injected by the
    supervisor's ``--chaos`` flag (``crash`` / ``hang`` / ``malformed``,
    applied on the first attempt only so recovery is provable).
    """

    job_id: str
    kind: str
    system: str
    params: Dict[str, Any] = field(default_factory=dict)
    expect_failure: bool = False
    chaos: Optional[str] = None

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ReproError(
                "unknown job kind {!r}; expected one of {}".format(
                    self.kind, ", ".join(JOB_KINDS)
                )
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "system": self.system,
            "params": dict(self.params),
            "expect_failure": self.expect_failure,
            "chaos": self.chaos,
        }

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "Job":
        return cls(
            job_id=body["job_id"],
            kind=body["kind"],
            system=body["system"],
            params=dict(body.get("params", {})),
            expect_failure=bool(body.get("expect_failure", False)),
            chaos=body.get("chaos"),
        )

    def with_chaos(self, chaos: Optional[str]) -> "Job":
        return replace(self, chaos=chaos)


def _admit(kind: str, raw: Dict[str, Any]) -> Dict[str, Any]:
    try:
        return KIND_SPECS[kind].admit(raw)
    except ValueError as exc:
        raise ReproError("{} jobs: {}".format(kind, exc))


def _systems_by_kind(requested: Optional[Sequence[str]]) -> Dict[str, List[str]]:
    """``kind -> the requested systems it admits``, each in its
    canonical spelling; every declared system for no request or one
    that names ``all``.  A name no kind admits raises."""
    if requested is None or "all" in requested:
        return {kind: list(spec.systems) for kind, spec in KIND_SPECS.items()}
    chosen: Dict[str, List[str]] = {kind: [] for kind in KIND_SPECS}
    for name in requested:
        admitted = False
        for kind, spec in KIND_SPECS.items():
            try:  # a malformed ``gen:`` name raises with a precise message
                system = spec.admit_system(name)
            except ValueError:
                continue
            admitted = True
            if system not in chosen[kind]:
                chosen[kind].append(system)
        if not admitted:
            known = set().union(*(spec.systems for spec in KIND_SPECS.values()))
            raise ReproError("unknown system {!r}; known: {}".format(
                name, ", ".join(sorted(known))
            ))
    return chosen


#: Static passes take their spec defaults: ``--max-states`` is the
#: proof battery's per-job budget, not lint's exploration cap.
_STATIC_KINDS = ("lint", "analyze")


def default_jobs(
    systems: Optional[Sequence[str]] = None,
    kinds: Iterable[str] = JOB_KINDS,
    fuzz_count: int = catalog.FUZZ_CAMPAIGN,
    fuzz_shard: int = 50,
    **overrides: Any,
) -> List[Job]:
    """Decompose the requested verification surface into jobs.

    ``systems=None`` (or a list containing ``"all"``) means every
    system each kind declares in :data:`repro.catalog.KIND_SPECS`;
    otherwise each kind keeps the requested systems it admits, and a
    request matching *no* kind at all raises.

    ``overrides`` (``seeds``, ``steps``, ``seed``, ``epsilon``,
    ``max_states``, ``max_steps``, ``wall_time``) replace the spec
    default of every non-static kind that declares the param; ``None``
    keeps it.  The fuzz campaign's ``fuzz_count`` instances split into
    shards of ``fuzz_shard``.
    """
    chosen = _systems_by_kind(systems)
    kinds = [k for k in JOB_KINDS if k in set(kinds)]
    if not kinds:
        raise ReproError("no job kinds selected")
    overrides = {key: value for key, value in overrides.items() if value is not None}
    undeclared = set(overrides).difference(*(spec.params for spec in KIND_SPECS.values()))
    if undeclared:
        raise ReproError("unknown job param(s) {}".format(", ".join(sorted(undeclared))))
    jobs: List[Job] = []
    for kind in kinds:
        spec = KIND_SPECS[kind]
        params = _admit(kind, {
            key: value for key, value in overrides.items()
            if key in spec.params and kind not in _STATIC_KINDS
        })
        if kind == "fuzz" and chosen[kind]:
            jobs.extend(fuzz_shards(seed=params["seed"], count=fuzz_count, shard=fuzz_shard))
            continue
        jobs.extend(
            Job(
                job_id="{}:{}".format(kind, name),
                kind=kind,
                system=name,
                params=dict(params),
                expect_failure=name in catalog.EXPECTED_BROKEN,
            )
            for name in chosen[kind]
        )
    if not jobs:
        raise ReproError("the requested systems/kinds produced no jobs")
    return jobs


def fuzz_shards(seed: int = 0, count: int = catalog.FUZZ_CAMPAIGN, shard: int = 50) -> List[Job]:
    """Split one ``count``-instance fuzz campaign into shard jobs.

    Shards share the campaign ``seed`` and partition the index range
    ``0 .. count-1``, so their union is instance-for-instance identical
    to one unsharded campaign — a shard that crashed mid-flight reruns
    alone (process isolation plus the ledger), without invalidating its
    siblings' results.
    """
    if count <= 0:
        raise ReproError("fuzz campaign needs a positive instance count")
    if shard <= 0:
        raise ReproError("fuzz shard size must be positive")
    return [
        Job(
            job_id="fuzz:{}:s{}".format(FUZZ_SYSTEM, number),
            kind="fuzz",
            system=FUZZ_SYSTEM,
            params=_admit(
                "fuzz", {"count": min(shard, count - start), "seed": seed, "start": start}
            ),
        )
        for number, start in enumerate(range(0, count, shard))
    ]


# ----------------------------------------------------------------------
# In-process execution
# ----------------------------------------------------------------------


def _params(job: Job) -> Dict[str, Any]:
    """The job's params over its kind's spec defaults."""
    return dict(KIND_SPECS[job.kind].admit({}), **job.params)


def _scaled_budget(params: Dict[str, Any]):
    """A fresh :class:`~repro.faults.budget.Budget` from job params,
    multiplied by the supervisor's escalation factor (set on retries
    classified ``budget``: same job, more room)."""
    from repro.faults.budget import Budget

    scale = int(params.get("budget_scale", 1))
    max_states = params.get("max_states")
    max_steps = params.get("max_steps")
    wall_time = params.get("wall_time")
    return Budget(
        max_states=None if max_states is None else int(max_states) * scale,
        max_steps=None if max_steps is None else int(max_steps) * scale,
        wall_time=None if wall_time is None else float(Fraction(wall_time)) * scale,
    )


def _run_lint(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.lint import build_target, lint_system

    params = _params(job)
    report = lint_system(build_target(job.system), max_states=int(params["max_states"]))
    summary = report.summary()
    detail = ", ".join("{}={}".format(k, v) for k, v in sorted(summary.items()))
    return (not report.fails(strict=bool(params["strict"])), True, False, detail)


def _run_analyze(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.analyze import analyze_system

    report = analyze_system(job.system)
    strict = bool(_params(job)["strict"])
    return (not report.fails(strict=strict), True, False, report.summary_line())


def _run_battery(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.faults.targets import build_perturb_target

    params = _params(job)
    target = build_perturb_target(
        job.system,
        seeds=int(params["seeds"]),
        steps=int(params["steps"]),
        seed=int(params["seed"]),
    )
    outcome = target.evaluate(
        Fraction(params.get("epsilon", "0")), _scaled_budget(params)
    )
    return (outcome.ok, outcome.conclusive, outcome.exhausted_budget, outcome.detail)


def _run_fuzz(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.gen.fuzzer import run_campaign

    params = _params(job)
    report = run_campaign(
        count=int(params["count"]),
        seed=int(params["seed"]),
        start=int(params["start"]),
        artifact_dir=params.get("artifacts"),
    )
    # Every instance completed: the shard is conclusive either way; a
    # disagreement is a *verdict* failure, reported via ``ok``.
    return (report.ok, True, False, report.detail)


_EXECUTORS = {
    "lint": _run_lint,
    "analyze": _run_analyze,
    "check": _run_battery,
    "perturb": _run_battery,
    "fuzz": _run_fuzz,
}

#: Job params that change *how* a verdict is computed, never *what* it
#: is — excluded from the verdict-cache key.  ``timeout`` is the
#: supervisor's watchdog, not part of the check; ``cache`` is the gate
#: itself; ``budget_scale`` only widens the budget of a retry, and only
#: verdicts that did not exhaust their budget are stored.
_UNCACHED_PARAMS = frozenset({"timeout", "cache", "artifacts", "budget_scale"})


def job_cache_parts(job: Job) -> Optional[Dict[str, Any]]:
    """The canonical verdict-cache key parts for ``job``, or ``None``
    when the job is uncacheable by nature: chaos-injected attempts (the
    self-test must actually run).  The parts deliberately exclude the
    job id and the :data:`_UNCACHED_PARAMS`, so any cache holding an
    entry under these parts may serve it to *any* request for the same
    work — this is the key contract :mod:`repro.serve` relies on for
    warm requests."""
    if job.chaos is not None:
        return None
    parts = {
        key: value
        for key, value in job.params.items()
        if key not in _UNCACHED_PARAMS
    }
    parts.update(catalog.key_parts(job.system))
    return parts


def _job_cache(job: Job):
    """The verdict cache and canonical key parts for this job, or
    ``(None, None)`` when the job must not touch the cache: uncacheable
    jobs (see :func:`job_cache_parts`) or an explicit ``cache: False``."""
    if job.params.get("cache") is False:
        return None, None
    parts = job_cache_parts(job)
    if parts is None:
        return None, None
    from repro.cache import default_cache

    cache = default_cache()
    if cache is None:
        return None, None
    return cache, parts


def execute_job(job: Job) -> Dict[str, Any]:
    """Run one job to a plain result payload — never raises.

    The payload carries the verdict (``ok`` / ``conclusive`` /
    ``exhausted_budget`` / ``detail``), a structured ``error`` dict when
    a library error escaped the check, and the job's telemetry snapshot
    for cross-process aggregation (``Recorder.merge`` on the parent).

    Settled verdicts (conclusive, no error, no budget cut) round-trip
    through the content-addressed verdict cache: a warm hit returns the
    stored payload with ``cached: True`` and a telemetry snapshot
    reduced to ``cache.hits`` — replaying the original work counters
    would double-count work that did not happen.

    A settled verdict of a cacheable job carries ``verdict_key``: the
    key this process hashed, which is the key of the code that computed
    it.  Every store of the verdict uses it, here or in the transport
    that receives the payload, never a key re-hashed elsewhere.  An
    attempt forked from a forkserver whose code has since changed on
    disk (:func:`repro.cache.fingerprint.closure_current`) carries
    ``stale_code: True`` and a ``cache.stale_code`` count instead, and
    no key: its verdict is not stored, and the transport restarts the
    forkserver.
    """
    start = time.perf_counter()
    cache, cache_parts = _job_cache(job)
    if cache is not None:
        hit = cache.lookup(job.kind, job.system, cache_parts)
        if hit is not None and hit.get("job_id") == job.job_id:
            hit_recorder = Recorder(name="job." + job.job_id, max_events=0)
            hit_recorder.incr("cache.hits")
            payload = dict(hit)
            payload["cached"] = True
            payload["wall"] = time.perf_counter() - start
            payload["telemetry"] = hit_recorder.snapshot()
            return payload
    recorder = Recorder(name="job." + job.job_id, max_events=0)
    error: Optional[Dict[str, Any]] = None
    ok, conclusive, exhausted, detail = False, True, False, ""
    try:
        with recording(recorder):
            ok, conclusive, exhausted, detail = _EXECUTORS[job.kind](job)
    except ReproError as exc:
        error = exc.to_dict()
        detail = str(exc)
    except Exception as exc:  # infra: anything non-library is still a record
        error = {"type": type(exc).__name__, "message": str(exc)}
        detail = "{}: {}".format(type(exc).__name__, exc)
    parts = job_cache_parts(job)
    key, stale = None, False
    if error is None and conclusive and not exhausted and parts is not None:
        from repro.cache.fingerprint import closure_current, verdict_key

        if closure_current(job.kind, job.system):
            key = verdict_key(job.kind, job.system, parts)
        else:
            stale = True
            recorder.incr("cache.stale_code")
    payload = {
        "schema": RESULT_SCHEMA_VERSION,
        "job_id": job.job_id,
        "ok": ok,
        "conclusive": conclusive,
        "exhausted_budget": exhausted,
        "detail": detail,
        "error": error,
        "wall": time.perf_counter() - start,
        "telemetry": recorder.snapshot(),
    }
    if stale:
        payload["stale_code"] = True
    if key is not None:
        payload["verdict_key"] = key
        if cache is not None:
            stored = {name: value for name, value in payload.items() if name != "wall"}
            cache.store(job.kind, job.system, parts, stored, key=key)
    return payload
