"""Compare two sets of benchmark runs: parent commit versus change.

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a record written by ``run.py --out``.  Runs pair up in the
order given (P1 with C1, ...); run them alternately, parent first in
one pair and change first in the next.  Per workload and end-to-end
metric the verdict is:

- ``win``: at least ten pairs, the change better in at least nine
  tenths of them (ties count for neither side), and the medians apart
  by more than the parent's own interquartile range;
- ``regression``: the change's median worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's own spread (IQR over median) exceeds the
  bound, unless every change run reads better than every parent run;
- otherwise ``no change``.

Per-layer metrics (traced records) have no bound and are listed with
their medians only.  Exit code 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pairs needed before a win can be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: List[str]) -> List[Dict[Tuple[str, str], float]]:
    """One ``{(workload, metric): value}`` per file."""
    runs = []
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        runs.append(
            {
                (record["workload"], name): metric["value"]
                for record in payload["records"]
                for name, metric in record["metrics"].items()
            }
        )
    return runs


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = stats.median(parent), stats.median(change)
    q1, _q2, q3 = stats.quartiles(parent)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if stats.iqr_frac(parent) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > q3 - q1:
        return "win"
    return "no change"


def compare(parent_paths: List[str], change_paths: List[str]) -> Tuple[List[str], bool]:
    """Report lines, and whether anything regressed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_paths), load(change_paths)
    keys = sorted(set(parent[0]) & set(change[0]))
    lines = ["{:<12} {:<28} {:>12} {:>12} {:>8}  {}".format(
        "workload", "metric", "parent p50", "change p50", "spread", "verdict")]
    regressed = False
    for workload, name in keys:
        p = [run[(workload, name)] for run in parent if (workload, name) in run]
        c = [run[(workload, name)] for run in change if (workload, name) in run]
        metric = declared.get(name, {})
        if "bound" in metric:
            result = verdict(p, c, metric["better"], metric["bound"])
        else:
            result = "per-layer"
        regressed = regressed or result == "regression"
        spread = stats.iqr_frac(p) if stats.median(p) else 0.0
        lines.append("{:<12} {:<28} {:>12.6g} {:>12.6g} {:>8.3f}  {}".format(
            workload, name, stats.median(p), stats.median(c), spread, result))
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="records of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="records of the change")
    args = parser.parse_args(argv)
    lines, regressed = compare(args.parent, args.change)
    print("\n".join(lines))
    print("{} parent run(s), {} change run(s); pairs: {}".format(
        len(args.parent), len(args.change), min(len(args.parent), len(args.change))))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
