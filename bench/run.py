"""The benchmark: what users of this verifier wait for, end to end, and
where that time goes, layer by layer.

    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/run.py --seed N            # all four workloads, one row each

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with every layer's entry points
wrapped and reports the per-layer metrics instead.  Metric names and
units come from ``BENCHMARK.json``.  Every verdict is checked against
``answers.py``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is run from the checkout's ``src/``; without it the
benchmark exits 2 and prints no result.  Each run works in a private
directory under ``.bench_run/`` (removed at exit) and leaves the git
working tree as it found it.  ``--out FILE`` also writes the full
record — sample counts, host stamps, per-workload detail — for
``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

import cli_oneshot
import harness
import inproc
import serve_mixed
import tracing

MODULES = {
    tracing.CLI: cli_oneshot,
    tracing.DEEP: inproc,
    tracing.FUZZ: inproc,
    tracing.SERVE: serve_mixed,
}

#: Per-layer numbers a workload may not produce; absent ones read 0.
EXTRA_DEFAULTS = (
    "cli.startup_frac", "cache.hit_ratio", "fuzz.determinate_ratio",
    "serve.transport_frac", "runner.spawn_frac", "serve.wait_frac",
    "serve.status.200", "serve.status.202", "serve.status.429", "serve.status.503",
    "serve.queue_depth_max", "serve.polls_per_cold", "serve.max_rps",
)

#: (work counter, layer whose busy time it is done in)
RATES = (
    ("zones.nodes", "zones.graph"),
    ("core.mapping.steps", "core.mapping"),
    ("ioa.states", "ioa.explore"),
)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git(*args: str) -> Optional[str]:
    """``git <args>`` in the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", harness.ROOT] + list(args),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def per_layer(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from a traced run's spans, counts and extras."""
    wall = result["wall"]
    metrics = tracing.layer_metrics(result["spans"], wall)
    counts = result["counts"]
    for key in ("core.inclusion.executions", "core.inclusion.truncated", "sim.steps"):
        metrics[key] = counts.get(key, 0)
    for count, layer in RATES:
        busy_s = metrics[layer + ".busy_frac"] * wall
        metrics[count] = counts.get(count, 0)
        metrics[count + "_per_s"] = metrics[count] / busy_s if busy_s else 0.0
    for name in EXTRA_DEFAULTS:
        metrics[name] = 0.0
    metrics.update(result["extra"])
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """One workload, end to end or traced; returns its full record."""
    work_root = os.path.join(harness.ROOT, ".bench_run")
    os.makedirs(work_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=workload + "-", dir=work_root)
    run = harness.Run(workload, seed, seconds, trace, smoke, run_dir)
    module = MODULES[workload]
    problems: List[str] = []
    try:
        if trace:
            result = module.traced(run)
            values = per_layer(result)
            values.update(harness.import_probe(run))
            declared = spec["per_layer"]
            problems += result["problems"]
            if not smoke:  # a smoke run is too short to reach every layer
                problems += tracing.coverage_problems(workload, values)
            _write_spans(workload, seed, result["spans"])
        else:
            result = module.end_to_end(run)
            values = result["metrics"]
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        problems.append("metrics differ from BENCHMARK.json: {}".format(
            sorted(set(values) ^ set(names))))
    bad = [n for n in names if not math.isfinite(values.get(n, math.nan))]
    problems += ["{} is not finite".format(n) for n in bad]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "samples": result.get("samples", {}),
        "tails": result.get("tails", {}),
        "problems": problems,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
            if m["name"] not in bad
        },
    }


def _write_spans(workload: str, seed: int, spans: List[Dict[str, Any]]) -> None:
    out_dir = os.path.join(harness.ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-{}-seed{}.jsonl".format(workload, seed))
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def render(record: Dict[str, Any]) -> str:
    if record["trace"]:
        cells = ["{} per-layer metrics".format(len(record["metrics"]))]
    else:
        cells = ["{}={:.6g} {}".format(n, m["value"], m["unit"])
                 for n, m in record["metrics"].items()]
    for kind, tail in sorted(record["tails"].items()):
        if tail is not None:
            cells.append("{} p{:g}={:.6g} s".format(kind, tail[0], tail[1]))
    if record["samples"]:
        cells.append("[n: {}]".format(
            " ".join("{}={}".format(k, v) for k, v in sorted(record["samples"].items()))))
    line = "{:<12} attempted={} failed={} {}".format(
        record["workload"], record["attempted"], record["failed"], " ".join(cells)
    )
    return line + "".join("\n  problem: " + p for p in record["problems"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES), default=None,
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut every workload to a few ops (harness tests)")
    parser.add_argument("--out", default=None, help="also write the full record here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print("no program to measure: {} has no repro package".format(harness.SRC),
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds = min(seconds, 4.0)
    tree_before = git("status", "--porcelain")
    compileall.compile_dir(harness.SRC, quiet=1)
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, seconds, bool(args.trace), args.smoke, spec)
        records.append(record)
        print(render(record), flush=True)
    if git("status", "--porcelain") != tree_before:
        records[-1]["problems"].append("the run changed the git working tree")
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": (git("rev-parse", "HEAD") or "").strip() or None,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "records": records}, fh, indent=1, sort_keys=True)
    correct = all(r["failed"] == 0 and not r["problems"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            "{}.{}".format(r["workload"], name): m
            for r in records
            for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
