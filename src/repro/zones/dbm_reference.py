"""The original object-based DBM, kept as the differential oracle.

This is the pure-python ``(Fraction, flag)``-tuple implementation the
zone engine shipped with before the flat-matrix rewrite
(:mod:`repro.zones.dbm`).  It is deliberately *not* optimised: its job
is to be obviously correct and structurally independent of the flat
engine, so the ``zone_equivalence`` differential suite can replay every
exploration through both and assert byte-identical verdicts, state
counts, and firing records.

Bound helpers (:data:`~repro.zones.dbm.INF_BOUND`, :func:`le_bound`,
:func:`bound_add`, …) are shared with the flat engine — both speak the
same external ``(value, flag)`` vocabulary; only the storage differs.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ZoneError
from repro.zones.dbm import (
    Bound,
    INF_BOUND,
    ZERO_BOUND,
    bound_add,
)

__all__ = ["ReferenceDBM"]


class ReferenceDBM:
    """A difference bound matrix stored as nested lists of Bound tuples.

    The matrix is kept canonical (all-pairs tightest) by the mutating
    operations; :meth:`key` yields a hashable canonical form for visited
    sets.  Interface-compatible with the flat :class:`repro.zones.dbm.DBM`
    wherever the zone graph touches it.
    """

    __slots__ = ("n", "m")

    def __init__(self, n: int, matrix: Optional[List[List[Bound]]] = None):
        if n < 0:
            raise ZoneError("clock count must be nonnegative")
        self.n = n
        size = n + 1
        if matrix is None:
            self.m = [[INF_BOUND] * size for _ in range(size)]
            for i in range(size):
                self.m[i][i] = ZERO_BOUND
        else:
            self.m = matrix

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "ReferenceDBM":
        """All clocks exactly 0 (the initial zone)."""
        size = n + 1
        matrix = [[ZERO_BOUND] * size for _ in range(size)]
        return cls(n, matrix)

    @classmethod
    def universe(cls, n: int) -> "ReferenceDBM":
        """All nonnegative clock valuations."""
        dbm = cls(n)
        for i in range(1, n + 1):
            dbm.m[0][i] = ZERO_BOUND  # -x_i ≤ 0
        return dbm

    def copy(self) -> "ReferenceDBM":
        return ReferenceDBM(self.n, [row[:] for row in self.m])

    # ------------------------------------------------------------------
    # Canonical form and emptiness
    # ------------------------------------------------------------------

    def canonicalize(self) -> "ReferenceDBM":
        """Floyd–Warshall tightening; call after manual constraints."""
        size = self.n + 1
        m = self.m
        for k in range(size):
            row_k = m[k]
            for i in range(size):
                ik = m[i][k]
                if ik == INF_BOUND:
                    continue
                row_i = m[i]
                for j in range(size):
                    candidate = bound_add(ik, row_k[j])
                    if candidate < row_i[j]:
                        row_i[j] = candidate
        return self

    def is_empty(self) -> bool:
        """True when the zone has no solutions (negative self-loop)."""
        for i in range(self.n + 1):
            if self.m[i][i] < ZERO_BOUND:
                return True
        return False

    # ------------------------------------------------------------------
    # Operations (assume canonical input, preserve canonical form)
    # ------------------------------------------------------------------

    def constrain(self, i: int, j: int, bound: Bound) -> "ReferenceDBM":
        """Intersect with ``x_i − x_j ≤/< value``; re-canonicalises."""
        if bound < self.m[i][j]:
            self.m[i][j] = bound
            self.canonicalize()
        return self

    def up(self) -> "ReferenceDBM":
        """Delay: let time elapse (drop the upper bounds of all clocks).
        Preserves canonical form."""
        for i in range(1, self.n + 1):
            self.m[i][0] = INF_BOUND
        return self

    def reset(self, clock: int) -> "ReferenceDBM":
        """``x_clock := 0``.  Preserves canonical form."""
        if not (1 <= clock <= self.n):
            raise ZoneError("clock index {} out of range".format(clock))
        for j in range(self.n + 1):
            if j == clock:
                continue
            self.m[clock][j] = self.m[0][j]
            self.m[j][clock] = self.m[j][0]
        self.m[clock][clock] = ZERO_BOUND
        self.m[clock][0] = ZERO_BOUND
        self.m[0][clock] = ZERO_BOUND
        return self

    def reset_many(self, clocks: Iterable[int]) -> "ReferenceDBM":
        """Sequential :meth:`reset` of every clock in ``clocks``."""
        for clock in clocks:
            self.reset(clock)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def clock_bounds(self, clock: int) -> Tuple[Bound, Bound]:
        """``(lower, upper)`` bounds of one clock (lower as a ≥-style
        bound derived from the stored bound on ``−x``)."""
        neg = self.m[0][clock]  # -x ≤ v
        if neg == INF_BOUND:
            lower: Bound = (-math.inf, 0)
        else:
            lower = (-neg[0], neg[1])
        return lower, self.m[clock][0]

    def difference_bounds(self, i: int, j: int) -> Tuple[Bound, Bound]:
        """``(lower, upper)`` bounds of ``x_i − x_j``."""
        neg = self.m[j][i]
        if neg == INF_BOUND:
            lower: Bound = (-math.inf, 0)
        else:
            lower = (-neg[0], neg[1])
        return lower, self.m[i][j]

    def contains_point(self, values: Sequence) -> bool:
        """True when the valuation satisfies every constraint."""
        from fractions import Fraction

        if len(values) != self.n:
            raise ZoneError("expected {} clock values".format(self.n))
        vals = [Fraction(0)] + [Fraction(v) for v in values]
        for i in range(self.n + 1):
            for j in range(self.n + 1):
                value, flag = self.m[i][j]
                if value is math.inf or (isinstance(value, float) and math.isinf(value)):
                    continue
                diff = vals[i] - vals[j]
                if flag == 0:
                    if diff > value:
                        return False
                elif diff >= value:
                    return False
        return True

    def includes(self, other: "ReferenceDBM") -> bool:
        """True when every valuation of ``other`` lies in this zone
        (both canonical and non-empty: every bound of ``other`` is at
        least as tight as the matching bound here)."""
        if self.n != other.n:
            raise ZoneError("cannot compare zones over different clock counts")
        for mine, theirs in zip(self.m, other.m):
            for bound, other_bound in zip(mine, theirs):
                if other_bound > bound:
                    return False
        return True

    def key(self) -> Tuple:
        """Hashable canonical form."""
        return tuple(tuple(row) for row in self.m)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReferenceDBM)
            and self.n == other.n
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        rows = []
        for i in range(self.n + 1):
            cells = []
            for j in range(self.n + 1):
                value, flag = self.m[i][j]
                op = "<" if flag == -1 else "<="
                cells.append("x{}-x{}{}{}".format(i, j, op, value))
            rows.append("  " + ", ".join(cells))
        return "ReferenceDBM(\n{}\n)".format("\n".join(rows))
