"""Order statistics, interval coverage and rate interpolation.

Plain functions over lists of floats, shared by the workload modules,
``compare.py`` and the harness tests.  A failed or refused request is
recorded as ``math.inf``, so it counts as over every latency limit.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest last.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the acceptance check uses."""
    if len(values) < 2:
        only = values[0]
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``level`` percent of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_level(count: int) -> Optional[float]:
    """The highest percentile in :data:`TAIL_LEVELS` that has at least
    :data:`MIN_BEYOND` samples beyond it, or None when even the median
    has fewer."""
    best = None
    for level in TAIL_LEVELS:
        if count * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:  # 100 - 99.9 is inexact
            best = level
    return best


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(level, value)``: the highest percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None for too few samples."""
    level = tail_level(len(values))
    return None if level is None else (level, percentile(values, level))


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals; empty or inverted intervals count nothing."""
    covered = 0.0
    reach = -math.inf
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def max_rps(steps: Sequence[Tuple[float, float]], limit: float) -> float:
    """Highest offered rate whose tail latency meets ``limit``.

    ``steps`` are ``(rate, tail)`` pairs in increasing rate, where
    ``tail`` is ``math.inf`` for a step that failed for another reason
    (too many failures, a growing backlog).  Rates are taken in order
    and the first step over the limit ends the search; between the last
    step that met it and that one, the rate is interpolated linearly on
    the tail so the value does not jump a whole step.  When the failing
    step has no finite tail the last passing rate is returned; when no
    step passes, 0.
    """
    passed: Optional[Tuple[float, float]] = None
    for rate, tail in steps:
        if tail <= limit:
            passed = (rate, tail)
            continue
        if passed is None:
            return 0.0
        if math.isinf(tail):
            return passed[0]
        lo_rate, lo_tail = passed
        share = (limit - lo_tail) / (tail - lo_tail)
        return lo_rate + (rate - lo_rate) * share
    return passed[0] if passed is not None else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
