"""The in-process workloads, run in clean child processes.

``deep-verify`` and ``fuzz-sweep`` call the layers' public functions
directly.  A run starts :data:`CHILDREN` fresh children one after the
other; each does its set-up (imports and inputs) once, then passes over
a fixed problem list in a seed-shuffled order: the first pass in the
process is the cold one, later ones are warm and repeat while the next
still fits in the child's share of the run.  Every verdict is checked
against ``answers.py``.

:func:`main` is the child (``python bench/inproc.py WORKLOAD --seed N
--seconds S --out RESULT.json [--trace] [--smoke] [--spans
SPANS.jsonl]``, with ``BENCH_T_SPAWN`` holding the parent's
``time.monotonic()`` just before the spawn); :func:`end_to_end` and
:func:`traced` drive it from ``run.py``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import resource
import sys
import time
from typing import Callable, List, Tuple

import answers
import harness
import stats
import tracing

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fuzz_pool.json")

#: A named verdict: ``run()`` returns whether it matched the oracle.
Problem = Tuple[str, Callable[[], bool]]


def deep_problems(smoke: bool) -> List[Problem]:
    """The deep-verify list.  Calls go through module attributes so a
    traced pass reaches the wrappers and an untraced one the originals."""
    from fractions import Fraction

    import repro.analyze as analyze
    import repro.core.checker as checker
    import repro.faults as faults
    import repro.ioa.explorer as explorer
    import repro.zones.analysis as zones
    from repro.gen.families import build_bundle
    from repro.par.surface import explore_automaton, mapping_specs
    from repro.systems.extensions import mutual_exclusion_violated

    fischer4 = build_bundle("gen:fischer-4").timed()
    relay3 = mapping_specs("gen:relay_line-3")
    rm = [(label, mapping) for label, mapping, _grid, _horizon in mapping_specs("rm")]
    fischer5, fischer5_cap = explore_automaton("gen:fischer-5")
    tournament4, tournament4_cap = explore_automaton("gen:tournament-4")
    shipped = answers.DEEP_ANSWERS["analyze-shipped"]

    def zones_fischer4() -> bool:
        result = zones.search_reachable_state(
            fischer4, mutual_exclusion_violated, max_nodes=400_000
        )
        return (result.state is None and not result.truncated) == answers.DEEP_ANSWERS[
            "zones-fischer-4"
        ]["safe"]

    def mapping_relay3() -> bool:
        outcomes = [
            checker.check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
            for _label, mapping, grid, horizon in relay3
        ]
        return all(o.ok and not o.exhausted_budget for o in outcomes)

    def mapping_rm() -> bool:
        # The Section 4.3 mapping on a finer grid than `check` uses.
        outcomes = [
            checker.check_mapping_exhaustive(
                mapping, grid=Fraction(1, 4), horizon=Fraction(9)
            )
            for _label, mapping in rm
        ]
        return all(o.ok and not o.exhausted_budget for o in outcomes)

    def explore_problem(name, automaton, cap) -> Callable[[], bool]:
        def run() -> bool:
            result = explorer.explore(automaton, max_states=cap)
            expected = answers.DEEP_ANSWERS[name]["states"]
            return not result.truncated and len(result.reachable) == expected

        return run

    def battery_problem(name, system) -> Callable[[], bool]:
        def run() -> bool:
            outcome = faults.build_perturb_target(system).evaluate(Fraction(0))
            answer = answers.DEEP_ANSWERS[name]
            return outcome.ok == answer["holds"] and outcome.conclusive == answer[
                "conclusive"
            ]

        return run

    def analyze_shipped() -> bool:
        return all(
            (not analyze.analyze_system(system).fails()) == holds
            for system, holds in shipped.items()
        )

    problems: List[Problem] = [
        ("explore-tournament-4", explore_problem("explore-tournament-4", tournament4, tournament4_cap)),
        ("battery-fischer-6", battery_problem("battery-fischer-6", "gen:fischer-6")),
        ("analyze-shipped", analyze_shipped),
        ("mapping-rm", mapping_rm),
        ("battery-relay_line-7", battery_problem("battery-relay_line-7", "gen:relay_line-7")),
        ("explore-fischer-5", explore_problem("explore-fischer-5", fischer5, fischer5_cap)),
        ("mapping-relay_line-3", mapping_relay3),
        ("zones-fischer-4", zones_fischer4),
    ]
    return problems[:4] if smoke else problems


def fuzz_problems(smoke: bool, legs: collections.Counter) -> List[Problem]:
    """The frozen fuzz pool: one problem per recipe; ``legs`` counts the
    legs run and the determinate ones."""
    import repro.gen.fuzzer as fuzzer

    with open(POOL_PATH) as fh:
        pool = json.load(fh)
    if smoke:
        pool = pool[:8]

    def problem(entry) -> Callable[[], bool]:
        recipe = entry["recipe"]

        def run() -> bool:
            instance = fuzzer.check_recipe(
                recipe, index=entry["index"], seed=entry["campaign_seed"]
            )
            legs["legs"] += len(instance.verdicts)
            legs["determinate"] += len(instance.determinate)
            return answers.fuzz_verdict_ok(recipe, instance)

        return run

    return [
        ("s{}i{}".format(entry["campaign_seed"], entry["index"]), problem(entry))
        for entry in pool
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["deep-verify", "fuzz-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    t_spawn = float(os.environ["BENCH_T_SPAWN"])

    tracer = tracing.Tracer()
    installation = tracing.install(tracer) if args.trace else None
    legs: collections.Counter = collections.Counter()
    if args.workload == "deep-verify":
        problems = deep_problems(args.smoke)
    else:
        problems = fuzz_problems(args.smoke, legs)
    result = {"setup_s": time.monotonic() - t_spawn}
    result["passes"] = run_passes(args, problems, tracer, installation)
    result["fuzz_legs"] = {"legs": legs["legs"], "determinate": legs["determinate"]}
    if args.spans:
        tracer.dump(args.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run_passes(args, problems, tracer, installation) -> List[dict]:
    """The cold pass, then warm passes while the next one still fits in
    ``args.seconds`` (at least one).  In a traced run, even-numbered
    passes (the cold one included) are traced and odd ones run with
    every wrapper removed, which is what the tracing overhead is
    measured from."""
    rng = random.Random("{}:{}".format(args.workload, args.seed))
    passes: List[dict] = []
    began = time.monotonic()
    max_passes = 3 if args.smoke else None
    while True:
        if len(passes) >= 2:
            longest = max(p["t1"] - p["t0"] for p in passes)
            if time.monotonic() + longest - began > args.seconds:
                break
            if max_passes is not None and len(passes) >= max_passes:
                break
        index = len(passes)
        traced = installation is not None and index % 2 == 0
        if installation is not None:
            installation.apply() if traced else installation.remove()
        order = list(problems)
        rng.shuffle(order)
        ops = []
        t0 = time.monotonic()
        for name, run in order:
            op = "p{}:{}".format(index, name)
            tracer.op = op
            start = time.monotonic()
            ok = run()
            ops.append({"op": op, "t0": start, "t1": time.monotonic(), "ok": bool(ok)})
        passes.append({"t0": t0, "t1": time.monotonic(), "traced": traced, "ops": ops})
    return passes


# ----------------------------------------------------------------------
# The parent side
# ----------------------------------------------------------------------

#: Fresh child processes per run.  Each times its own set-up and runs
#: one cold pass and at least one warm pass in its share of the run.
CHILDREN = 3


def _child(run: harness.Run, seconds: float, spans: str = None):
    out = run.path("inproc.json")
    argv = [harness.PYTHON, os.path.abspath(__file__), run.workload,
            "--seed", str(run.seed), "--seconds", repr(seconds), "--out", out]
    argv += ["--smoke"] if run.smoke else []
    argv += ["--trace", "--spans", spans] if spans else []
    env = run.env(BENCH_T_SPAWN=repr(time.monotonic()))
    done = harness.run_child(argv, env, run.path("inproc.out"))
    if done.returncode != 0:
        raise RuntimeError("{} child exited {}".format(run.workload, done.returncode))
    with open(out) as fh:
        return json.load(fh), done


def _ops(passes: List[dict]) -> List[dict]:
    return [op for p in passes for op in p["ops"]]


def end_to_end(run: harness.Run) -> dict:
    children = 1 if run.smoke else CHILDREN
    results = [_child(run, run.seconds / children) for _ in range(children)]
    cold = [r["passes"][0]["t1"] - r["passes"][0]["t0"] for r, _done in results]
    warm = [p["t1"] - p["t0"] for r, _done in results for p in r["passes"][1:]]
    ops = [op for r, _done in results for op in _ops(r["passes"])]
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "samples": {"cold": len(cold), "warm": len(warm), "setup": len(results),
                    "problems_per_pass": len(results[0][0]["passes"][0]["ops"])},
        "tails": {"cold": stats.tail(cold), "warm": stats.tail(warm)},
        "metrics": {
            "setup_s": stats.median([r["setup_s"] for r, _done in results]),
            "cold_p50_s": stats.median(cold),
            "warm_p50_s": stats.median(warm),
            "ops_per_s": len(ops) / (sum(cold) + sum(warm)),
            "peak_rss_mb": max(done.maxrss_kb for _r, done in results) / 1024.0,
        },
    }


def traced(run: harness.Run) -> dict:
    spans_path = run.path("inproc.spans")
    result, _done = _child(run, run.seconds, spans=spans_path)
    spans, _meta, counts = tracing.load_spans(spans_path)
    passes = result["passes"]
    on = [p for p in passes if p["traced"]]
    ops = _ops(on)
    wall = sum(p["t1"] - p["t0"] for p in on)
    unattributed = tracing.unattributed_s([(o["op"], o["t0"], o["t1"]) for o in ops], spans)
    warm_on = [p["t1"] - p["t0"] for p in passes[2::2]]
    warm_off = [p["t1"] - p["t0"] for p in passes[1::2]]
    every = _ops(passes)
    legs = result["fuzz_legs"]
    extra = {
        "unattributed_s": unattributed / len(ops),
        "unattributed_frac": unattributed / wall,
        "trace.overhead_frac": (
            stats.median(warm_on) / stats.median(warm_off) - 1.0
            if warm_on and warm_off
            else 0.0
        ),
        "loadgen.lag_p99_s": stats.percentile(
            [b["t0"] - a["t1"] for a, b in zip(every, every[1:])], 99.0
        ),
        "fuzz.determinate_ratio": legs["determinate"] / legs["legs"] if legs["legs"] else 0.0,
    }
    problems = []
    if extra["unattributed_frac"] > 0.10:
        problems.append(
            "unattributed_frac {:.3f} > 0.10 on {}".format(extra["unattributed_frac"], run.workload)
        )
    return {
        "attempted": len(every),
        "failed": sum(1 for op in every if not op["ok"]),
        "spans": spans,
        "counts": counts,
        "wall": wall,
        "extra": extra,
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
