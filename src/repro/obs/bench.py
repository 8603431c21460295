"""The perf-trajectory benchmark runner behind ``python -m repro bench``.

Micro-profiles every shipped system under a fresh
:class:`~repro.obs.instrument.Recorder`: each profile simulates and/or
symbolically analyses one system the way its CLI command and tests do,
and its wall time plus the recorder's counters/gauges/timers become one
:class:`BenchRecord`.  A :class:`BenchReport` bundles the records with a
schema version and environment stamp and is written to
``BENCH_<n>.json`` at the repo root — the machine-readable perf
trajectory every subsequent optimisation PR is judged against.

:func:`compare_reports` diffs two reports with per-metric regression
thresholds: wall time may wobble with the machine (generous relative
threshold plus an absolute floor), while counters are deterministic
under fixed seeds (tight threshold) — a counter that *grows* means the
engine is doing more work for the same task.  Improvements never count
as regressions.

Rows emitted by the pytest-benchmark suite (``benchmarks/*.py`` via
``conftest.emit``) land in ``benchmarks/bench_rows.jsonl``;
:func:`load_suite_rows` folds them into the report when present.
"""

from __future__ import annotations

import json
import os
import platform
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catalog import BENCH_ITERATIONS as DEFAULT_ITERATIONS
from repro.errors import ReproError
from repro.obs.instrument import Recorder, recording
from repro.serialize import SerializationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "BenchReport",
    "MetricDelta",
    "Comparison",
    "bench_names",
    "run_profile",
    "run_bench",
    "compare_reports",
    "load_report",
    "write_report",
    "next_bench_path",
    "latest_bench_path",
    "load_suite_rows",
]

#: Version of the ``BENCH_<n>.json`` schema; unknown versions are
#: rejected on load rather than misread.
BENCH_SCHEMA_VERSION = 1

#: Wall-time regression gate: ratio above which (and absolute growth
#: beyond ``WALL_FLOOR_S``) a profile counts as regressed.
WALL_THRESHOLD = 0.50
WALL_FLOOR_S = 0.05

#: Counter regression gate: counters are seed-deterministic, so > 10%
#: growth (and more than ``COUNTER_FLOOR`` units) flags a regression.
COUNTER_THRESHOLD = 0.10
COUNTER_FLOOR = 10

#: Named timers (``zones.query``, ``analyze.discharge``, …) are gated
#: like wall time but with a tighter absolute floor — they isolate one
#: engine, so they are far less noisy than whole-profile wall clock.
TIMER_FLOOR_S = 0.02

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class BenchRecord:
    """Wall time + telemetry of one system's micro-profile."""

    system: str
    wall_time: float
    iterations: int
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, Any] = field(default_factory=dict)
    timers: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "system": self.system,
            "wall_time": self.wall_time,
            "iterations": self.iterations,
            "counters": self.counters,
            "gauges": self.gauges,
            "timers": self.timers,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchRecord":
        return cls(
            system=payload["system"],
            wall_time=payload["wall_time"],
            iterations=payload["iterations"],
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            timers=dict(payload.get("timers", {})),
            meta=dict(payload.get("meta", {})),
        )


@dataclass
class BenchReport:
    """One benchmark run: schema + environment stamp + per-system records."""

    schema: int
    created: str
    python: str
    platform: str
    records: List[BenchRecord] = field(default_factory=list)
    suite: List[Dict[str, Any]] = field(default_factory=list)

    def record_for(self, system: str) -> Optional[BenchRecord]:
        for record in self.records:
            if record.system == system:
                return record
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "created": self.created,
            "python": self.python,
            "platform": self.platform,
            "records": [r.to_dict() for r in self.records],
            "suite": self.suite,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchReport":
        if not isinstance(payload, dict) or "schema" not in payload:
            raise SerializationError("bench report has no schema field")
        if payload["schema"] != BENCH_SCHEMA_VERSION:
            raise SerializationError(
                "unsupported bench schema version {!r} (supported: {})".format(
                    payload["schema"], BENCH_SCHEMA_VERSION
                )
            )
        return cls(
            schema=payload["schema"],
            created=payload.get("created", ""),
            python=payload.get("python", ""),
            platform=payload.get("platform", ""),
            records=[BenchRecord.from_dict(r) for r in payload.get("records", [])],
            suite=list(payload.get("suite", [])),
        )


# ----------------------------------------------------------------------
# Per-system micro-profiles
# ----------------------------------------------------------------------
#
# Each profile exercises one shipped system the way its CLI command /
# tests do — seeded simulation runs through the paper's mapping checks
# where the system has mappings, exact zone queries where it has claims,
# and a bounded untimed exploration so explorer telemetry shows up
# everywhere.  All randomness is seeded: counters are deterministic.


def _explore_base(automaton, max_states: int = 4_000) -> int:
    from repro.ioa.explorer import explore

    return len(explore(automaton, max_states=max_states).reachable)


def _analyze_leg(name: str) -> Tuple[bool, Dict[str, Any]]:
    """Run the static analyzer as part of a system's profile.

    Its ``analyze.*`` telemetry counters land in the record via the
    active recorder; the returned meta summarises the verdicts.  ``ok``
    is expectation-relative (fischer-tight must be refuted)."""
    from repro.analyze import analyze_system

    report = analyze_system(name)
    return (
        not report.unexpected,
        {
            "analyze_proved": report.proved,
            "analyze_refuted": report.refuted,
            "analyze_unknown": report.unknown,
            "analyze_wall": report.wall,
        },
    )


def _profile_rm(iterations: int) -> Dict[str, Any]:
    from repro.core import check_mapping_on_run
    from repro.sim import Simulator, UniformStrategy
    from repro.systems import (
        GRANT,
        ResourceManagerParams,
        ResourceManagerSystem,
        resource_manager_mapping,
    )
    from repro.zones.analysis import absolute_event_bounds, event_separation_bounds

    system = ResourceManagerSystem(
        ResourceManagerParams(k=3, c1=Fraction(2), c2=Fraction(3), l=Fraction(1))
    )
    mapping = resource_manager_mapping(system)
    ok = True
    for seed in range(iterations):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=120
        )
        ok = ok and bool(check_mapping_on_run(mapping, run))
    first = absolute_event_bounds(system.timed, GRANT)
    gap = event_separation_bounds(system.timed, GRANT, occurrence=2, reset_on=[GRANT])
    states = _explore_base(system.timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("rm")
    meta = {
        "ok": ok and analyze_ok,
        "first_grant": repr(first),
        "grant_gap": repr(gap),
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_relay(iterations: int) -> Dict[str, Any]:
    from repro.core import check_chain_on_run
    from repro.sim import Simulator, UniformStrategy
    from repro.systems import SIGNAL, RelayParams, RelaySystem, relay_hierarchy
    from repro.zones.analysis import event_separation_bounds

    system = RelaySystem(RelayParams(n=3, d1=Fraction(1), d2=Fraction(2)))
    chain = relay_hierarchy(system)
    ok = True
    for seed in range(iterations):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=80
        )
        ok = ok and bool(check_chain_on_run(chain, run))
    bounds = event_separation_bounds(
        system.timed, SIGNAL(system.params.n), occurrence=1, reset_on=[SIGNAL(0)]
    )
    states = _explore_base(system.timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("relay")
    meta = {
        "ok": ok and analyze_ok,
        "levels": len(chain),
        "end_to_end": repr(bounds),
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_chain(iterations: int) -> Dict[str, Any]:
    from repro.core import check_chain_on_run
    from repro.sim import Simulator, UniformStrategy
    from repro.systems.extensions import ChainSystem
    from repro.systems.extensions.chain import EVENT
    from repro.timed.interval import Interval
    from repro.zones.analysis import event_separation_bounds

    system = ChainSystem([Interval(1, 2), Interval(2, 3)])
    chain = system.hierarchy()
    ok = True
    for seed in range(iterations):
        run = Simulator(system.algorithm, UniformStrategy(random.Random(seed))).run(
            max_steps=60
        )
        ok = ok and bool(check_chain_on_run(chain, run))
    bounds = event_separation_bounds(
        system.timed, EVENT(system.m), occurrence=1, reset_on=[EVENT(0)]
    )
    states = _explore_base(system.timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("chain")
    meta = {
        "ok": ok and analyze_ok,
        "levels": len(chain),
        "end_to_end": repr(bounds),
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_fischer(iterations: int) -> Dict[str, Any]:
    from repro.core import time_of_boundmap
    from repro.sim import Simulator, UniformStrategy
    from repro.systems.extensions import (
        FischerParams,
        fischer_system,
        mutual_exclusion_violated,
    )
    from repro.zones.analysis import search_reachable_state

    timed = fischer_system(FischerParams(n=2, a=Fraction(1), b=Fraction(2)))
    search = search_reachable_state(timed, mutual_exclusion_violated, max_nodes=400_000)
    violations = 0
    sim = time_of_boundmap(
        fischer_system(FischerParams(n=2, a=Fraction(1), b=Fraction(2), e=Fraction(1)))
    )
    for seed in range(iterations):
        run = Simulator(sim, UniformStrategy(random.Random(seed))).run(max_steps=100)
        violations += sum(
            1 for s in run.states if mutual_exclusion_violated(s.astate)
        )
    states = _explore_base(timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("fischer")
    meta = {
        "ok": search.state is None and violations == 0 and analyze_ok,
        "verdict": "safe" if search.state is None else "violable",
        "sim_violations": violations,
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_fischer_tight(iterations: int) -> Dict[str, Any]:
    from repro.systems.extensions import (
        FischerParams,
        fischer_system,
        mutual_exclusion_violated,
    )
    from repro.zones.analysis import search_reachable_state

    timed = fischer_system(FischerParams(n=2, a=Fraction(1), b=Fraction(1)))
    search = search_reachable_state(timed, mutual_exclusion_violated, max_nodes=400_000)
    states = _explore_base(timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("fischer-tight")
    # A reachable violation is the *expected* finding here (a = b),
    # and the static analyzer must refute the race symbolically too.
    meta = {
        "ok": search.state is not None and analyze_ok,
        "verdict": "violable" if search.state is not None else "safe",
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_peterson(iterations: int) -> Dict[str, Any]:
    from repro.analysis.recurrence import peterson_first_entry_chain
    from repro.systems.extensions import PetersonParams, both_critical, peterson_system
    from repro.systems.extensions.peterson import ENTER
    from repro.zones.analysis import event_separation_bounds, search_reachable_state

    params = PetersonParams(s1=Fraction(1), s2=Fraction(2))
    timed = peterson_system(params)
    search = search_reachable_state(timed, both_critical, max_nodes=400_000)
    bounds = event_separation_bounds(
        timed, {ENTER(1), ENTER(2)}, occurrence=1, max_nodes=400_000
    )
    operational = peterson_first_entry_chain(params.step_interval).total()
    agree = (bounds.lo, bounds.hi) == (operational.lo, operational.hi)
    states = _explore_base(timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("peterson")
    meta = {
        "ok": search.state is None and agree and analyze_ok,
        "first_entry": repr(bounds),
        "recurrence_agrees": agree,
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_tournament(iterations: int) -> Dict[str, Any]:
    from repro.systems.extensions import (
        TournamentParams,
        tournament_mutex_violated,
        tournament_system,
    )
    from repro.zones.analysis import search_reachable_state

    timed = tournament_system(
        TournamentParams(n=2, s1=Fraction(1), s2=Fraction(2))
    )
    search = search_reachable_state(
        timed, tournament_mutex_violated, max_nodes=400_000
    )
    states = _explore_base(timed.automaton)
    analyze_ok, analyze_meta = _analyze_leg("tournament")
    meta = {
        "ok": search.state is None and analyze_ok,
        "verdict": "safe" if search.state is None else "violable",
        "base_states": states,
    }
    meta.update(analyze_meta)
    return meta


def _profile_gen_scaling(iterations: int) -> Dict[str, Any]:
    """Wall-clock scaling of the generated-system families.

    Explores a ladder of instances per family (fischer n = 2..4,
    relay_line k = 2..6) and records per-size states and wall time —
    the BENCH trajectory then gates on the whole record's wall and on
    the seed-deterministic exploration counters, so a generator change
    that blows up a family's state space shows up as a regression.
    ``ok`` requires every exploration to complete untruncated with the
    exact state count the family's construction predicts.
    """
    from repro.gen import build_bundle
    from repro.ioa.explorer import explore

    # name -> reachable-state count the construction predicts.
    expected = {
        "gen:fischer-2": 28,
        "gen:fischer-3": 152,
        "gen:fischer-4": 752,
        "gen:relay_line-2": 4,
        "gen:relay_line-4": 6,
        "gen:relay_line-6": 8,
    }
    meta: Dict[str, Any] = {}
    ok = True
    for name in sorted(expected):
        bundle = build_bundle(name)
        automaton = bundle.timed().automaton
        start = time.perf_counter()
        result = explore(automaton, max_states=bundle.max_states)
        wall = time.perf_counter() - start
        key = name[len("gen:"):].replace("-", "_")
        meta[key + "_states"] = len(result.reachable)
        meta[key + "_wall"] = wall
        ok = ok and not result.truncated
        ok = ok and len(result.reachable) == expected[name]
    meta["ok"] = ok
    return meta


def _profile_static_speedup(iterations: int) -> Dict[str, Any]:
    """Static obligation discharge vs exploratory mapping check on the
    two mapping-bearing workhorses (rm, relay).

    Both legs decide the same property — does the Definition 3.2
    mapping hold?  The static leg discharges it symbolically
    (Fourier–Motzkin over exact rationals); the exploratory leg sweeps
    the surface grid/horizon with ``check_mapping_exhaustive``.  The
    record's ``meta`` carries per-system speedups plus a
    ``verdicts_match`` bit; ``ok`` gates on agreement and a >= 5x
    static advantage.
    """
    from repro.analyze import Verdict, discharge_system
    from repro.core.checker import check_mapping_exhaustive
    from repro.par.surface import mapping_specs

    # rm's exploratory leg runs at a fine reference grid (its surface
    # grid is a coarse smoke); relay's surface spec is already
    # representative.
    overrides = {"rm": (Fraction(1, 4), Fraction(14))}
    meta: Dict[str, Any] = {}
    ok = True
    for name in ("rm", "relay"):
        best_static = None
        for _attempt in range(max(1, iterations)):
            start = time.perf_counter()
            obligations = discharge_system(name)
            wall = time.perf_counter() - start
            best_static = wall if best_static is None else min(best_static, wall)
        static_ok = all(o.verdict is Verdict.PROVED for o in obligations)
        start = time.perf_counter()
        explored_ok = True
        steps = 0
        for _label, mapping, grid, horizon in mapping_specs(name):
            grid, horizon = overrides.get(name, (grid, horizon))
            outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
            explored_ok = explored_ok and outcome.ok
            steps += outcome.steps_checked
        explore_wall = time.perf_counter() - start
        match = static_ok == explored_ok
        speedup = explore_wall / best_static if best_static else 0.0
        meta["{}_static_wall".format(name)] = best_static
        meta["{}_explore_wall".format(name)] = explore_wall
        meta["{}_explore_steps".format(name)] = steps
        meta["{}_speedup".format(name)] = speedup
        meta["{}_verdicts_match".format(name)] = match
        ok = ok and static_ok and match and speedup >= 5.0
    meta["ok"] = ok
    return meta


def _profile_serve_throughput(iterations: int) -> Dict[str, Any]:
    """Request throughput of the serving daemon, cold vs warm.

    Spins an in-process :class:`~repro.serve.app.VerificationService`
    (inline workers, private journal and verdict pool) and measures two
    legs over the analyze battery:

    - **cold** — distinct jobs that must actually execute; req/sec is
      bounded by the engines themselves;
    - **warm** — the same work resubmitted ``iterations`` times; every
      request must be answered at submit straight from the verdict
      cache, so req/sec is bounded by the serving layer alone.

    The record's ``meta``/gauges carry warm and cold req/sec, the warm
    hit rate, and warm p50/p95 submit latencies; ``ok`` gates on a 100%
    warm hit rate and sub-100ms warm p95 — the serving-layer overhead
    budget CI's serve-smoke job also asserts over real HTTP.
    """
    import shutil
    import tempfile

    from repro.obs.instrument import active
    from repro.serve.app import ServeConfig, VerificationService

    # Captured now: inline workers scope their own recorders over the
    # process-global slot mid-run, so "whatever is active later" could
    # misattribute the gauges.
    recorder = active()
    root = tempfile.mkdtemp(prefix="repro-serve-bench-")
    service = VerificationService(
        ServeConfig(
            workers=2,
            isolation=False,
            journal_path=os.path.join(root, "journal.jsonl"),
            backend="dir:" + os.path.join(root, "pool"),
        )
    )
    service.start()
    try:
        batch = [
            {"kind": "analyze", "system": system, "params": {"strict": strict}}
            for system in ("rm", "relay", "chain")
            for strict in (False, True)
        ]
        # Cold leg: every job executes.  Submissions are serialized
        # (submit, wait, next) so the cache counters in this record stay
        # deterministic — inline workers scope the process-global
        # recorder while a job runs, and overlapping a submit with that
        # window would attribute lookups to a random recorder.
        start = time.perf_counter()
        deadline = time.monotonic() + 120.0
        cold_ok = True
        for body in batch:
            status, doc = service.submit(body)
            if status != 202:
                return {"ok": False, "detail": "cold submit got {}".format(status)}
            while True:
                polled = service.get_job(doc["job_id"])
                if polled["state"] == "done":
                    cold_ok = cold_ok and bool(polled["result"]["ok"])
                    break
                if time.monotonic() > deadline:
                    return {"ok": False, "detail": "cold jobs never settled"}
                time.sleep(0.002)
        cold_wall = time.perf_counter() - start

        # Warm leg: identical requests, answered from the verdict pool.
        latencies = []
        hits = 0
        start = time.perf_counter()
        for _round in range(max(1, iterations)):
            for body in batch:
                t0 = time.perf_counter()
                status, doc = service.submit(body)
                latencies.append((time.perf_counter() - t0) * 1000.0)
                if status == 200 and doc.get("result", {}).get("cached"):
                    hits += 1
        warm_wall = time.perf_counter() - start
        latencies.sort()
        warm_p50 = latencies[len(latencies) // 2]
        warm_p95 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.95))]
        hit_rate = hits / len(latencies)
        cold_rps = len(batch) / cold_wall if cold_wall else 0.0
        warm_rps = len(latencies) / warm_wall if warm_wall else 0.0
        if recorder is not None:
            recorder.gauge("serve.cold_rps", cold_rps)
            recorder.gauge("serve.warm_rps", warm_rps)
            recorder.gauge("serve.warm_hit_rate", hit_rate)
            recorder.gauge("serve.warm_p50_ms", warm_p50)
            recorder.gauge("serve.warm_p95_ms", warm_p95)
        return {
            "ok": cold_ok and hit_rate == 1.0 and warm_p95 < 100.0,
            "cold_jobs": len(batch),
            "cold_wall": cold_wall,
            "cold_rps": cold_rps,
            "warm_requests": len(latencies),
            "warm_wall": warm_wall,
            "warm_rps": warm_rps,
            "warm_hit_rate": hit_rate,
            "warm_p50_ms": warm_p50,
            "warm_p95_ms": warm_p95,
        }
    finally:
        service.drain(grace_s=30.0)
        service.journal.close()
        shutil.rmtree(root, ignore_errors=True)


def _profile_dist_scaling(iterations: int) -> Dict[str, Any]:
    """Single-host vs two-worker distributed campaign wall time.

    The serial leg runs a representative job mix inline through the
    local :class:`~repro.runner.supervisor.Supervisor`; the dist leg
    pre-starts two :mod:`repro.dist` worker *processes* on loopback
    (inline execution inside each, so the parallelism measured is
    across hosts, not subprocess spawn overhead) and drives the same
    jobs through the :class:`~repro.dist.coordinator.DistCoordinator`.
    Worker start-up is outside the timed window — a campaign joins a
    standing fleet; it does not boot one.

    The verdict cache is disabled on both legs (a warm pool would
    measure the cache, not the transport).  ``meta`` carries the ratio
    CI gates on (``speedup`` >= 1.5x at 2 workers) plus a
    ``verdicts_match`` bit re-asserting that distribution changes
    wall-clock time, never verdicts.
    """
    import multiprocessing

    from repro.dist import DistConfig, DistCoordinator
    from repro.dist.worker import run_worker_process
    from repro.runner import Supervisor, default_jobs

    def job_mix(systems=None, seeds=4, steps=80):
        jobs = default_jobs(
            systems=systems,
            kinds=["check", "perturb"],
            seeds=seeds,
            steps=steps,
            seed=0,
            epsilon=Fraction(1, 32),
            max_states=200_000,
            max_steps=2_000_000,
            wall_time=60.0,
            fuzz_count=4,
            fuzz_shard=4,
        )
        # Longest-first makespan scheduling: the rm jobs dominate this
        # mix, and assigning them first keeps the two workers balanced
        # (a heavy job assigned last serialises the whole tail).
        jobs.sort(key=lambda job: (job.system != "rm", job.job_id))
        return jobs

    def verdict_projection(report):
        return sorted(
            (o.job_id, o.status, o.ok, o.detail) for o in report.outcomes
        )

    start = time.perf_counter()
    serial = Supervisor(job_mix(), workers=0, cache=False).run()
    serial_wall = time.perf_counter() - start

    ctx = multiprocessing.get_context("spawn")
    ready = ctx.Queue()
    workers = [
        ctx.Process(target=run_worker_process, args=(ready,), daemon=True)
        for _ in range(2)
    ]
    for process in workers:
        process.start()
    try:
        ports = [ready.get(timeout=30.0) for _ in workers]
        config = DistConfig(
            hosts=[("127.0.0.1", port) for port in ports],
            lease_ms=10_000,
            heartbeat_ms=1_000,
            timeout=120.0,
        )
        # Warm-up campaign (untimed): a couple of tiny jobs per worker
        # pull the verification engines' lazy imports into each worker
        # process, the way a standing fleet is already warm.
        DistCoordinator(
            job_mix(systems=["peterson", "tournament"], seeds=1, steps=10),
            config,
            job_cache=False,
        ).run()
        start = time.perf_counter()
        dist = DistCoordinator(job_mix(), config, job_cache=False).run()
        dist_wall = time.perf_counter() - start
    finally:
        for process in workers:
            process.terminate()
            process.join(2.0)
    verdicts_match = verdict_projection(serial) == verdict_projection(dist)
    speedup = serial_wall / dist_wall if dist_wall else 0.0
    # ``ok`` gates on correctness (identical verdicts, clean completion);
    # the >= 1.5x ratio is asserted by CI's dist-smoke job on multi-core
    # runners — on a single-core box two workers time-slice one CPU and
    # wall-clock speedup is physically unavailable (``cpus`` says which
    # situation this record measured).
    return {
        "ok": serial.ok and dist.ok and verdicts_match and not dist.interrupted,
        "verdicts_match": verdicts_match,
        "jobs": len(serial.outcomes),
        "workers": 2,
        "cpus": os.cpu_count() or 1,
        "serial_wall": serial_wall,
        "dist_wall": dist_wall,
        "speedup": speedup,
        "degraded": bool(
            dist.telemetry.get("counters", {}).get("dist.degraded", 0)
        ),
    }


#: name -> profile callable; ordered like ``repro perturb``'s registry.
PROFILES: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "rm": _profile_rm,
    "relay": _profile_relay,
    "chain": _profile_chain,
    "fischer": _profile_fischer,
    "fischer-tight": _profile_fischer_tight,
    "peterson": _profile_peterson,
    "tournament": _profile_tournament,
    "gen-scaling": _profile_gen_scaling,
}

#: Opt-in profiles outside the default battery: their wall times are
#: machine-shaped by design (what matters is a ratio in ``meta``), so
#: they never enter the BENCH trajectory unless explicitly requested.
EXTRA_PROFILES: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "static-speedup": _profile_static_speedup,
    "serve-throughput": _profile_serve_throughput,
    "dist-scaling": _profile_dist_scaling,
}


def bench_names() -> Tuple[str, ...]:
    """Names in the default battery (``repro bench`` with no
    ``--systems``); :data:`EXTRA_PROFILES` are accepted by name only."""
    return tuple(PROFILES)


def run_profile(name: str, iterations: int = DEFAULT_ITERATIONS) -> BenchRecord:
    """Run one system's micro-profile under a fresh recorder."""
    profile = PROFILES.get(name) or EXTRA_PROFILES.get(name)
    if profile is None:
        raise ReproError(
            "unknown bench profile {!r}; expected one of {}".format(
                name, ", ".join(list(PROFILES) + list(EXTRA_PROFILES))
            )
        )
    recorder = Recorder(name="bench." + name, max_events=256)
    with recording(recorder):
        start = time.perf_counter()
        meta = profile(iterations)
        wall = time.perf_counter() - start
    snap = recorder.snapshot()
    return BenchRecord(
        system=name,
        wall_time=wall,
        iterations=iterations,
        counters=snap["counters"],
        gauges=snap["gauges"],
        timers=snap["timers"],
        meta=meta,
    )


def run_bench(
    systems: Optional[Sequence[str]] = None,
    iterations: int = DEFAULT_ITERATIONS,
    suite_rows_path: Optional[str] = None,
    cache=None,
) -> BenchReport:
    """Profile the requested systems (default: all seven) into a report.

    With a :class:`~repro.cache.store.VerdictCache`, default-battery
    records round-trip through it: an unchanged source tree reuses the
    record (wall time included — it was measured on this exact code),
    which is what lets a cache-warm CI skip re-benching settled
    revisions.  :data:`EXTRA_PROFILES` (``static-speedup``, …) are never
    cached — their whole product is a fresh measurement.
    """
    names = list(systems) if systems else list(PROFILES)
    report = BenchReport(
        schema=BENCH_SCHEMA_VERSION,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        python=platform.python_version(),
        platform=platform.platform(),
    )
    for name in names:
        cacheable = cache is not None and name in PROFILES
        parts = {"iterations": iterations}
        if cacheable:
            hit = cache.lookup("bench", name, parts)
            if hit is not None:
                record = BenchRecord.from_dict(hit["record"])
                record.meta["cached"] = True
                report.records.append(record)
                continue
        record = run_profile(name, iterations=iterations)
        if cacheable:
            cache.store("bench", name, parts, {"record": record.to_dict()})
        report.records.append(record)
    if suite_rows_path and os.path.exists(suite_rows_path):
        report.suite = load_suite_rows(suite_rows_path)
    return report


# ----------------------------------------------------------------------
# Persistence: BENCH_<n>.json at the repo root
# ----------------------------------------------------------------------


def _bench_indices(root: str) -> List[int]:
    if not os.path.isdir(root):
        return []
    indices = []
    for entry in os.listdir(root):
        match = _BENCH_RE.match(entry)
        if match:
            indices.append(int(match.group(1)))
    return sorted(indices)


def next_bench_path(root: str = ".") -> str:
    """The next free ``BENCH_<n>.json`` path under ``root``."""
    indices = _bench_indices(root)
    nxt = indices[-1] + 1 if indices else 0
    return os.path.join(root, "BENCH_{}.json".format(nxt))


def latest_bench_path(root: str = ".") -> Optional[str]:
    """The most recent existing ``BENCH_<n>.json`` (None when none)."""
    indices = _bench_indices(root)
    if not indices:
        return None
    return os.path.join(root, "BENCH_{}.json".format(indices[-1]))


def write_report(report: BenchReport, path: str) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_report(path: str) -> BenchReport:
    with open(path) as fh:
        return BenchReport.from_dict(json.load(fh))


def load_suite_rows(path: str) -> List[Dict[str, Any]]:
    """Parse the machine-readable rows ``benchmarks/conftest.emit``
    appends (one JSON object per line)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


# ----------------------------------------------------------------------
# Comparison with per-metric regression thresholds
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two reports."""

    system: str
    metric: str
    old: float
    new: float
    regressed: bool

    @property
    def ratio(self) -> Optional[float]:
        if self.old == 0:
            return None
        return self.new / self.old


@dataclass
class Comparison:
    """The diff of two bench reports."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: Systems present in the old report but missing from the new one —
    #: a silently dropped profile must not read as "no regressions".
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "missing": self.missing,
            "added": self.added,
            "regressions": [
                {
                    "system": d.system,
                    "metric": d.metric,
                    "old": d.old,
                    "new": d.new,
                    "ratio": d.ratio,
                }
                for d in self.regressions
            ],
            "deltas": [
                {
                    "system": d.system,
                    "metric": d.metric,
                    "old": d.old,
                    "new": d.new,
                    "ratio": d.ratio,
                    "regressed": d.regressed,
                }
                for d in self.deltas
            ],
        }

    def render(self) -> str:
        from repro.analysis.report import Table

        table = Table(
            "bench comparison (per-metric regression gates)",
            ["system", "metric", "previous", "current", "ratio", "verdict"],
        )
        for d in self.deltas:
            table.add_row(
                d.system,
                d.metric,
                "{:.4g}".format(d.old),
                "{:.4g}".format(d.new),
                "-" if d.ratio is None else "{:.2f}x".format(d.ratio),
                "REGRESSED" if d.regressed else "ok",
            )
        lines = [table.render()]
        if self.missing:
            lines.append("missing systems (regression): " + ", ".join(self.missing))
        if self.added:
            lines.append("new systems: " + ", ".join(self.added))
        lines.append("verdict: {}".format("ok" if self.ok else "REGRESSED"))
        return "\n".join(lines)


def compare_reports(
    old: BenchReport,
    new: BenchReport,
    wall_threshold: float = WALL_THRESHOLD,
    counter_threshold: float = COUNTER_THRESHOLD,
) -> Comparison:
    """Diff ``new`` against ``old`` with per-metric thresholds.

    Wall time regresses when it grows by more than ``wall_threshold``
    relatively *and* ``WALL_FLOOR_S`` absolutely.  A counter regresses
    when it grows by more than ``counter_threshold`` relatively and
    ``COUNTER_FLOOR`` units absolutely — counters are deterministic
    under fixed seeds, so growth means the engine got less efficient.
    When the new run used fewer iterations than the old one (a CI
    smoke), counters can only shrink, so only wall time is gated.

    Named timers (``timer:<name>`` deltas over ``total_s``) are gated
    like wall time but over :data:`TIMER_FLOOR_S` — and only when the
    two runs made the same number of calls to the timer, so a profile
    that legitimately changed shape is not misread as a regression.
    """
    comparison = Comparison()
    new_names = {r.system for r in new.records}
    comparison.missing = [
        r.system for r in old.records if r.system not in new_names
    ]
    old_names = {r.system for r in old.records}
    comparison.added = [r.system for r in new.records if r.system not in old_names]
    for record in new.records:
        previous = old.record_for(record.system)
        if previous is None:
            continue
        grew = record.wall_time - previous.wall_time
        comparison.deltas.append(
            MetricDelta(
                system=record.system,
                metric="wall_time",
                old=previous.wall_time,
                new=record.wall_time,
                regressed=(
                    previous.wall_time > 0
                    and grew > WALL_FLOOR_S
                    and record.wall_time > previous.wall_time * (1 + wall_threshold)
                ),
            )
        )
        same_workload = record.iterations >= previous.iterations
        for name in sorted(set(previous.counters) & set(record.counters)):
            before, after = previous.counters[name], record.counters[name]
            comparison.deltas.append(
                MetricDelta(
                    system=record.system,
                    metric=name,
                    old=before,
                    new=after,
                    regressed=(
                        same_workload
                        and after - before > COUNTER_FLOOR
                        and after > before * (1 + counter_threshold)
                    ),
                )
            )
        for name in sorted(set(previous.timers) & set(record.timers)):
            old_timer, new_timer = previous.timers[name], record.timers[name]
            old_s = float(old_timer.get("total_s", 0.0))
            new_s = float(new_timer.get("total_s", 0.0))
            comparable = (
                same_workload
                and old_timer.get("calls") == new_timer.get("calls")
            )
            comparison.deltas.append(
                MetricDelta(
                    system=record.system,
                    metric="timer:" + name,
                    old=old_s,
                    new=new_s,
                    regressed=(
                        comparable
                        and old_s > 0
                        and new_s - old_s > TIMER_FLOOR_S
                        and new_s > old_s * (1 + wall_threshold)
                    ),
                )
            )
    return comparison
