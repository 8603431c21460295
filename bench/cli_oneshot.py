"""cli-oneshot: one fresh ``python -m repro <kind> <system> --json``
process per operation, one client, closed loop.

Each round uses a new, empty verdict-cache directory and runs every op
once cold (writing the cache), then once warm (reading it), in
seed-shuffled orders; whole passes repeat while the next one fits in
the run's seconds.  Every answer is checked against ``answers.py``; a warm
op that is not served from the cache also counts as failed, because
the warm pass would then not measure what it claims to.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from typing import Any, Dict, List, Tuple

import answers
import harness
import stats
import tracing

LINT_SYSTEMS = (
    "rm", "relay", "fischer", "peterson", "tournament", "chain", "request-grant", "interrupt",
)
SHIPPED = ("rm", "relay", "chain", "fischer", "fischer-tight", "peterson", "tournament")

#: ``check rm`` is left out: at this commit it answers FAIL although
#: Theorem 4.4 says rm is correct (its untimed exploration stops at the
#: 4 000-state cap), and the workload must not contain an op that fails.
OPS: Tuple[Tuple[str, str], ...] = (
    tuple(("lint", s) for s in LINT_SYSTEMS)
    + tuple(("analyze", s) for s in SHIPPED)
    + tuple(("check", s) for s in SHIPPED if s != "rm")
)

#: ``python -m repro --help`` runs per set-up measurement.
HELP_RUNS = 11


def round_orders(seed: int, round_index: int, smoke: bool = False):
    """The cold and warm orders of one round, shuffled by the seed.

    The cold pass keeps the kinds in the order a user verifying a
    system runs them — lint, then analyze, then check — and shuffles
    within each kind: ``analyze`` caches the mappings it proves and a
    later ``check`` skips their sweeps, so a fully shuffled cold pass
    would do seed-dependent work.  The warm pass is fully shuffled.
    A smoke round keeps the first three cold ops.
    """
    rng = random.Random("cli-oneshot:{}:{}".format(seed, round_index))
    cold: List[Tuple[str, str]] = []
    for kind in ("lint", "analyze", "check"):
        group = [op for op in OPS if op[0] == kind]
        rng.shuffle(group)
        cold += group
    if smoke:
        cold = cold[:3]
    warm = list(cold)
    rng.shuffle(warm)
    return [("cold", cold), ("warm", warm)]


def _argv(kind: str, system: str, traced: bool) -> List[str]:
    entry = [os.path.join(harness.BENCH, "shim_cli.py")] if traced else ["-m", "repro"]
    return [harness.PYTHON] + entry + [kind, system, "--json"]


def measure_setup(run: harness.Run) -> float:
    """Median wall of ``python -m repro --help``: the fixed cost every
    command pays before it does any work."""
    return stats.median(
        [
            harness.run_child(
                [harness.PYTHON, "-m", "repro", "--help"], run.env(), run.path("help.out")
            ).wall
            for _ in range(3 if run.smoke else HELP_RUNS)
        ]
    )


def execute(run: harness.Run) -> List[Dict[str, Any]]:
    """Run whole passes while the next one still fits in the run's
    seconds (at least one cold and one warm); one record per op."""
    records: List[Dict[str, Any]] = []
    longest = 0.0
    passes = 0
    for round_index in itertools.count():
        cache_dir = run.path("cache-{}".format(round_index))
        for temperature, order in round_orders(run.seed, round_index, run.smoke):
            if passes >= 2 and records[-1]["t1"] - records[0]["t0"] + longest > run.seconds:
                return records
            first = len(records)
            for pass_index, (kind, system) in enumerate(order):
                # Traced run: every cold op is traced and warm ops
                # alternate, so the overhead compares like with like.
                traced = run.trace and (temperature == "cold" or pass_index % 2 == 0)
                op = "op{}".format(len(records))
                env = run.env(
                    REPRO_CACHE_DIR=cache_dir,
                    BENCH_OP=op,
                    BENCH_SPANS=run.path(op + ".spans"),
                )
                done = harness.run_child(_argv(kind, system, traced), env, run.path("op.out"))
                records.append(_record(op, kind, system, temperature, traced, done))
            longest = max(longest, records[-1]["t1"] - records[first]["t0"])
            passes += 1
        if run.smoke:
            return records


def _record(op, kind, system, temperature, traced, done: harness.Finished) -> Dict[str, Any]:
    try:
        entry = json.loads(done.stdout)
        ok = answers.cli_verdict_ok(kind, system, done.returncode, entry)
        if temperature == "warm" and not entry.get("cached"):
            ok = False
    except (ValueError, KeyError, TypeError):
        ok = False
    return {
        "op": op,
        "kind": kind,
        "system": system,
        "temperature": temperature,
        "traced": traced,
        "t0": done.t0,
        "t1": done.t1,
        "wall": done.wall,
        "maxrss_kb": done.maxrss_kb,
        "ok": ok,
    }


def end_to_end(run: harness.Run) -> Dict[str, Any]:
    setup_s = measure_setup(run)
    ops = execute(run)
    cold = [r["wall"] for r in ops if r["temperature"] == "cold"]
    warm = [r["wall"] for r in ops if r["temperature"] == "warm"]
    window = ops[-1]["t1"] - ops[0]["t0"]
    return {
        "attempted": len(ops),
        "failed": sum(1 for r in ops if not r["ok"]),
        "samples": {"cold": len(cold), "warm": len(warm), "setup": 3 if run.smoke else HELP_RUNS},
        "tails": {"cold": stats.tail(cold), "warm": stats.tail(warm)},
        "metrics": {
            "setup_s": setup_s,
            "cold_p50_s": stats.median(cold),
            "warm_p50_s": stats.median(warm),
            "ops_per_s": len(ops) / window,
            "peak_rss_mb": max(r["maxrss_kb"] for r in ops) / 1024.0,
        },
    }


def traced(run: harness.Run) -> Dict[str, Any]:
    """Per-layer metrics over the traced ops, plus the tracing overhead
    (traced versus untraced warm ops)."""
    ops = execute(run)
    spans: List[Dict[str, Any]] = []
    counts: Dict[str, float] = {}
    warm_counts = {"cache.hits": 0.0, "cache.misses": 0.0}
    startup = []
    for record in ops:
        if not record["traced"]:
            continue
        op_spans, meta, op_counts = tracing.load_spans(run.path(record["op"] + ".spans"))
        op_spans.append(
            tracing.span_record("python.startup", record["op"], record["t0"], meta["t_start"])
        )
        op_spans.append(
            tracing.span_record("python.shutdown", record["op"], meta["t_end"], record["t1"])
        )
        spans.extend(op_spans)
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
        if record["temperature"] == "warm":
            for key in warm_counts:
                warm_counts[key] += op_counts.get(key, 0)
        main_s = sum(s["t1"] - s["t0"] for s in op_spans if s["layer"] == "cli.main")
        startup.append((record["wall"] - main_s) / record["wall"])
    traced_ops = [r for r in ops if r["traced"]]
    wall = sum(r["wall"] for r in traced_ops)
    lookups = warm_counts["cache.hits"] + warm_counts["cache.misses"]
    warm_traced = [r["wall"] for r in ops if r["temperature"] == "warm" and r["traced"]]
    warm_plain = [r["wall"] for r in ops if r["temperature"] == "warm" and not r["traced"]]
    unattributed = tracing.unattributed_s([(r["op"], r["t0"], r["t1"]) for r in traced_ops], spans)
    extra = {
        "cli.startup_frac": stats.mean(startup),
        "cache.hit_ratio": warm_counts["cache.hits"] / lookups if lookups else 0.0,
        "unattributed_s": unattributed / len(traced_ops),
        "unattributed_frac": unattributed / wall,
        "trace.overhead_frac": (
            stats.median(warm_traced) / stats.median(warm_plain) - 1.0
            if warm_traced and warm_plain
            else 0.0
        ),
        "loadgen.lag_p99_s": stats.percentile(
            [b["t0"] - a["t1"] for a, b in zip(ops, ops[1:])] or [0.0], 99.0
        ),
    }
    problems = []
    if lookups and extra["cache.hit_ratio"] < 1.0:
        problems.append("warm cli ops missed the verdict cache")
    return {
        "attempted": len(ops),
        "failed": sum(1 for r in ops if not r["ok"]),
        "spans": spans,
        "counts": counts,
        "wall": wall,
        "extra": extra,
        "problems": problems,
    }

