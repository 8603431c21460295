"""Serializable verification jobs over every shipped system.

A :class:`Job` is the unit a supervised campaign schedules: one check
kind applied to one system, with plain-JSON parameters so it can cross
a process boundary (``multiprocessing`` spawn) and a checkpoint ledger
unchanged.  Five kinds decompose the repo's whole verification surface:

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

from repro.catalog import JOB_KINDS
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

#: The synthetic "system" every fuzz shard runs against: a campaign
#: fuzzes *random* instances, so no shipped system name applies.
FUZZ_SYSTEM = "gen"

#: Version stamp on worker result payloads; a payload without it (or
#: with a future one) is classified ``malformed`` by the supervisor.
RESULT_SCHEMA_VERSION = 1

#: Systems whose *verdict failure* is the expected finding (the repo
#: deliberately ships a broken Fischer variant to prove the checkers
#: catch it) — the supervisor inverts success for these jobs.
_EXPECTED_FAILURES = {
    ("analyze", "fischer-tight"),
    ("check", "fischer-tight"),
    ("perturb", "fischer-tight"),
}


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


def _campaign_systems(requested: Optional[Sequence[str]]) -> Optional[List[str]]:
    if requested is None:
        return None
    systems = list(dict.fromkeys(requested))
    if "all" in systems:
        return None
    return systems


def default_jobs(
    systems: Optional[Sequence[str]] = None,
    kinds: Iterable[str] = JOB_KINDS,
    seeds: int = 2,
    steps: int = 40,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 32),
    max_states: int = 200_000,
    max_steps: int = 2_000_000,
    wall_time: float = 60.0,
    fuzz_count: int = 100,
    fuzz_shard: int = 50,
) -> List[Job]:
    """Decompose the requested verification surface into jobs.

    ``systems=None`` (or a list containing ``"all"``) means every
    system each kind knows about; otherwise each kind keeps the
    intersection of the request with its own registry, and a request
    matching *no* kind at all raises.
    """
    from repro.analyze import analyze_names
    from repro.faults.targets import perturb_names
    from repro.gen import is_gen_name, parse as parse_gen_name
    from repro.lint.targets import system_names as lint_names

    chosen = _campaign_systems(systems)
    kinds = [k for k in JOB_KINDS if k in set(kinds)]
    if not kinds:
        raise ReproError("no job kinds selected")
    registry = {
        "lint": list(lint_names()),
        "analyze": list(analyze_names()),
        "check": list(perturb_names()),
        "perturb": list(perturb_names()),
        "fuzz": [FUZZ_SYSTEM],
    }
    known = set().union(*registry.values())
    if chosen is not None:
        for name in chosen:
            if is_gen_name(name):
                # Raises with a precise message on a malformed or
                # out-of-range generated name; a valid one joins every
                # registry whose check applies to generated systems.
                parse_gen_name(name)
                for kind in ("lint", "analyze", "check", "perturb"):
                    registry[kind].append(name)
                known.add(name)
        unknown = [name for name in chosen if name not in known]
        if unknown:
            raise ReproError(
                "unknown system(s) {}; known: {}".format(
                    ", ".join(unknown), ", ".join(sorted(known))
                )
            )
    budget = {
        "max_states": max_states,
        "max_steps": max_steps,
        "wall_time": wall_time,
    }
    jobs: List[Job] = []
    for kind in kinds:
        for name in registry[kind]:
            if chosen is not None and name not in chosen:
                continue
            if kind == "fuzz":
                jobs.extend(fuzz_shards(seed=seed, count=fuzz_count, shard=fuzz_shard))
                continue
            if kind in ("check", "perturb"):
                params: Dict[str, Any] = dict(budget)
                params.update(seeds=seeds, steps=steps, seed=seed)
                params["epsilon"] = str(epsilon if kind == "perturb" else Fraction(0))
            else:  # lint/analyze: purely static, no budget to thread
                params = {"strict": False}
            jobs.append(
                Job(
                    job_id="{}:{}".format(kind, name),
                    kind=kind,
                    system=name,
                    params=params,
                    expect_failure=(kind, name) in _EXPECTED_FAILURES,
                )
            )
    if not jobs:
        raise ReproError("the requested systems/kinds produced no jobs")
    return jobs


def fuzz_shards(seed: int = 0, count: int = 100, shard: int = 50) -> List[Job]:
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
    jobs: List[Job] = []
    for number, start in enumerate(range(0, count, shard)):
        jobs.append(
            Job(
                job_id="fuzz:{}:s{}".format(FUZZ_SYSTEM, number),
                kind="fuzz",
                system=FUZZ_SYSTEM,
                params={
                    "count": min(shard, count - start),
                    "seed": seed,
                    "start": start,
                },
            )
        )
    return jobs


# ----------------------------------------------------------------------
# In-process execution
# ----------------------------------------------------------------------


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
        wall_time=None if wall_time is None else float(wall_time) * scale,
    )


def _run_lint(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.lint import DEFAULT_MAX_STATES, build_target, lint_system

    report = lint_system(
        build_target(job.system),
        max_states=int(job.params.get("max_states", DEFAULT_MAX_STATES)),
    )
    strict = bool(job.params.get("strict", False))
    summary = report.summary()
    detail = ", ".join("{}={}".format(k, v) for k, v in sorted(summary.items()))
    return (not report.fails(strict=strict), True, False, detail)


def _run_analyze(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.analyze import analyze_system

    report = analyze_system(job.system)
    strict = bool(job.params.get("strict", False))
    return (not report.fails(strict=strict), True, False, report.summary_line())


def _run_battery(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.faults.targets import build_perturb_target

    target = build_perturb_target(
        job.system,
        seeds=int(job.params.get("seeds", 2)),
        steps=int(job.params.get("steps", 40)),
        seed=int(job.params.get("seed", 0)),
    )
    outcome = target.evaluate(
        Fraction(job.params.get("epsilon", "0")), _scaled_budget(job.params)
    )
    return (outcome.ok, outcome.conclusive, outcome.exhausted_budget, outcome.detail)


def _run_fuzz(job: Job) -> Tuple[bool, bool, bool, str]:
    from repro.gen.fuzzer import run_campaign

    report = run_campaign(
        count=int(job.params.get("count", 100)),
        seed=int(job.params.get("seed", 0)),
        start=int(job.params.get("start", 0)),
        artifact_dir=job.params.get("artifacts"),
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
#: itself.
_UNCACHED_PARAMS = frozenset({"timeout", "cache", "artifacts"})


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
    from repro.gen import cache_parts as gen_cache_parts
    from repro.gen import is_gen_name
    from repro.gen.names import GEN_VERSION

    if is_gen_name(job.system):
        # Generated instances key on (family, params, generator
        # version) so a generator change invalidates their verdicts.
        parts.update(gen_cache_parts(job.system))
    elif job.kind == "fuzz":
        parts["gen_version"] = GEN_VERSION
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
    if cache is not None and error is None and conclusive and not exhausted:
        stored = {key: value for key, value in payload.items() if key != "wall"}
        cache.store(job.kind, job.system, cache_parts, stored)
    return payload
