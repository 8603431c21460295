"""Difference Bound Matrices as flat encoded-integer arrays.

The zone substrate for exact timing analysis (experiment E10).  A DBM
over clocks ``x_1 … x_n`` (with the reference ``x_0 = 0``) stores, for
every ordered pair, an upper bound on ``x_i − x_j``.

**External vocabulary** (unchanged since the object-based engine, now
kept verbatim in :mod:`repro.zones.dbm_reference`): a bound is a pair
``(value, flag)`` with ``value`` an exact :class:`~fractions.Fraction`
(or ``math.inf``) and ``flag = 0`` for ``≤``, ``flag = −1`` for ``<``;
tuple ordering coincides with bound tightness.

**Internal storage** is a single flat ``array('q')`` of ``(n+1)²``
encoded cells in row-major order.  A finite bound ``(v, flag)`` whose
value is an integer multiple of ``1/scale`` packs into one machine word
as ``2·(v·scale) + (1 if ≤ else 0)`` — the classic timed-automata
encoding, scaled so exact rationals fit: integer ordering coincides
with bound tightness, and bound addition is
``a + b − ((a | b) & 1)``.  ``∞`` is the sentinel :data:`INF_ENC`, far
above any sum of finite cells.  ``scale`` is per-matrix; operations
that meet a bound outside the current grid rescale to the lcm, so the
arithmetic stays exact for arbitrary rational inputs.

Why flat: canonicalisation, constraint propagation, and successor
construction become index arithmetic over machine ints — no per-cell
tuple/Fraction allocation on the hot path, ``memcpy``-speed copies,
:func:`array.array.tobytes` zone keys cheap enough to intern — which is
what lifts ``zones.query`` by an order of magnitude over the
tuple-of-Fraction engine it replaced (docs/performance.md).

Only the operations needed for forward reachability of timed automata
are provided: canonicalisation (Floyd–Warshall, for manual cell edits;
the operations below preserve canonical form themselves), emptiness,
constraint intersection (incremental O(n²) tightening), delay
(``up``), single/batched clock resets, and zone inclusion (for the
zone graph's subsumption).
"""

from __future__ import annotations

import math
import operator
from array import array
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ZoneError

__all__ = [
    "Bound",
    "INF_BOUND",
    "ZERO_BOUND",
    "INF_ENC",
    "ZERO_ENC",
    "le_bound",
    "lt_bound",
    "bound_add",
    "encode_bound",
    "decode_bound",
    "DBM",
]

#: A bound on a clock difference: (value, flag); flag 0 = "≤", −1 = "<".
Bound = Tuple[object, int]

INF_BOUND: Bound = (math.inf, 0)
ZERO_BOUND: Bound = (Fraction(0), 0)

#: Encoded ``≤ ∞`` sentinel: any cell ``>= INF_ENC`` reads as infinite.
#: Far above any sum of legal finite cells (see :data:`_MAX_MAGNITUDE`)
#: yet small enough that ``INF_ENC + INF_ENC`` stays inside int64, so
#: every cell sum fits the ``array('q')`` machine word.
INF_ENC = 1 << 60

#: Encoded ``≤ 0``.
ZERO_ENC = 1

#: Largest |scaled value| a finite bound may encode.  Triple sums of
#: such cells stay far below :data:`INF_ENC`; anything bigger raises
#: rather than silently wrapping.
_MAX_MAGNITUDE = 1 << 50


def le_bound(value) -> Bound:
    """The bound ``≤ value``."""
    return (Fraction(value), 0)


def lt_bound(value) -> Bound:
    """The bound ``< value``."""
    return (Fraction(value), -1)


def bound_add(a: Bound, b: Bound) -> Bound:
    """Tightest bound implied by chaining two difference bounds."""
    if a[0] is math.inf or b[0] is math.inf or a == INF_BOUND or b == INF_BOUND:
        return INF_BOUND
    value = a[0] + b[0]
    if isinstance(value, float) and math.isinf(value):
        return INF_BOUND
    return (value, min(a[1], b[1]))


def encode_bound(bound: Bound, scale: int = 1) -> int:
    """Pack ``(value, flag)`` into one encoded int at ``1/scale``
    resolution.  The value must lie on the grid (use
    :meth:`DBM.rescale` / the lcm of the denominators in play) and
    within :data:`_MAX_MAGNITUDE`."""
    value, flag = bound
    if value is math.inf or (isinstance(value, float) and math.isinf(value)):
        return INF_ENC
    scaled = value * scale
    numerator = int(scaled)
    if numerator != scaled:
        raise ZoneError(
            "bound value {!r} does not fit the 1/{} grid".format(value, scale)
        )
    if not -_MAX_MAGNITUDE <= numerator <= _MAX_MAGNITUDE:
        raise ZoneError(
            "bound value {!r} out of the encodable range at scale {}".format(
                value, scale
            )
        )
    return 2 * numerator + (1 if flag == 0 else 0)


def decode_bound(enc: int, scale: int = 1) -> Bound:
    """Unpack an encoded cell back to the external ``(value, flag)``."""
    if enc >= INF_ENC:
        return INF_BOUND
    return (Fraction(enc >> 1, scale), 0 if enc & 1 else -1)


def _denominator(value) -> int:
    if isinstance(value, Fraction):
        return value.denominator
    if isinstance(value, int):
        return 1
    if isinstance(value, float):
        if math.isinf(value):
            return 1
        value = Fraction(value)
    return Fraction(value).denominator


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class DBM:
    """A difference bound matrix over ``n`` clocks (plus the reference),
    stored flat.

    The matrix is kept canonical (all-pairs tightest) by the mutating
    operations; :meth:`key` yields a hashable, scale-normalised
    canonical form for visited sets.  ``scale`` fixes the rational grid
    the encoded cells live on; pass the lcm of every denominator the
    exploration will use up front (:meth:`zero`'s ``scale``) to avoid
    mid-flight rescaling.
    """

    __slots__ = ("n", "scale", "cells")

    def __init__(
        self,
        n: int,
        cells: Optional[array] = None,
        scale: int = 1,
    ):
        if n < 0:
            raise ZoneError("clock count must be nonnegative")
        if scale < 1:
            raise ZoneError("scale must be a positive integer")
        self.n = n
        self.scale = scale
        size = n + 1
        if cells is None:
            self.cells = array("q", [INF_ENC]) * (size * size)
            for i in range(size):
                self.cells[i * size + i] = ZERO_ENC
        else:
            self.cells = cells

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n: int, scale: int = 1) -> "DBM":
        """All clocks exactly 0 (the initial zone)."""
        size = n + 1
        return cls(n, array("q", [ZERO_ENC]) * (size * size), scale)

    @classmethod
    def universe(cls, n: int, scale: int = 1) -> "DBM":
        """All nonnegative clock valuations."""
        dbm = cls(n, scale=scale)
        for i in range(1, n + 1):
            dbm.cells[i] = ZERO_ENC  # -x_i ≤ 0
        return dbm

    def copy(self) -> "DBM":
        return DBM(self.n, array("q", self.cells), self.scale)

    # ------------------------------------------------------------------
    # Scale management
    # ------------------------------------------------------------------

    def rescale(self, scale: int) -> "DBM":
        """Refine the grid to ``1/scale`` (a multiple of the current
        one) in place; the represented zone is unchanged."""
        if scale == self.scale:
            return self
        if scale % self.scale:
            raise ZoneError(
                "cannot rescale from 1/{} to the non-refining 1/{}".format(
                    self.scale, scale
                )
            )
        factor = scale // self.scale
        cells = self.cells
        for idx, enc in enumerate(cells):
            if enc < INF_ENC:
                cells[idx] = (enc >> 1) * factor * 2 + (enc & 1)
        self.scale = scale
        return self

    def _admit(self, bound: Bound) -> int:
        """Encode ``bound`` on this matrix's grid, refining the grid
        first when the bound's denominator demands it."""
        value = bound[0]
        den = _denominator(value)
        if self.scale % den:
            self.rescale(_lcm(self.scale, den))
        return encode_bound(bound, self.scale)

    # ------------------------------------------------------------------
    # Canonical form and emptiness
    # ------------------------------------------------------------------

    def canonicalize(self) -> "DBM":
        """Floyd–Warshall tightening; call after manual cell edits."""
        size = self.n + 1
        cells = self.cells
        inf = INF_ENC
        for k in range(size):
            krow = k * size
            for i in range(size):
                ik = cells[i * size + k]
                if ik >= inf:
                    continue
                irow = i * size
                for j in range(size):
                    kj = cells[krow + j]
                    if kj >= inf:
                        continue
                    cand = ik + kj - ((ik | kj) & 1)
                    if cand < cells[irow + j]:
                        cells[irow + j] = cand
        return self

    def is_empty(self) -> bool:
        """True when the zone has no solutions (negative self-loop)."""
        cells = self.cells
        step = self.n + 2  # diagonal stride in the flat layout
        for idx in range(0, len(cells), step):
            if cells[idx] < ZERO_ENC:
                return True
        return False

    # ------------------------------------------------------------------
    # Operations (assume canonical input, preserve canonical form)
    # ------------------------------------------------------------------

    def constrain(self, i: int, j: int, bound: Bound) -> "DBM":
        """Intersect with ``x_i − x_j ≤/< value``.

        Canonical form is restored *incrementally*: lowering one edge of
        a canonical matrix only opens paths through that edge, so the
        O(n²) sweep ``m[p][q] = min(m[p][q], m[p][i] + b + m[j][q])``
        re-tightens everything — no full Floyd–Warshall.
        """
        enc = self._admit(bound)
        size = self.n + 1
        cells = self.cells
        if enc >= cells[i * size + j]:
            return self
        cells[i * size + j] = enc
        inf = INF_ENC
        jrow = j * size
        for p in range(size):
            pi = cells[p * size + i]
            if pi >= inf:
                continue
            head = pi + enc - ((pi | enc) & 1)
            prow = p * size
            for q in range(size):
                jq = cells[jrow + q]
                if jq >= inf:
                    continue
                cand = head + jq - ((head | jq) & 1)
                if cand < cells[prow + q]:
                    cells[prow + q] = cand
        return self

    def up(self) -> "DBM":
        """Delay: let time elapse (drop the upper bounds of all clocks).
        Preserves canonical form."""
        size = self.n + 1
        cells = self.cells
        for i in range(size, size * size, size):
            cells[i] = INF_ENC
        return self

    def reset(self, clock: int) -> "DBM":
        """``x_clock := 0``.  Preserves canonical form."""
        if not (1 <= clock <= self.n):
            raise ZoneError("clock index {} out of range".format(clock))
        return self.reset_many((clock,))

    def reset_many(self, clocks: Iterable[int]) -> "DBM":
        """Batch reset: ``x_c := 0`` for every ``c`` in ``clocks``.

        Equivalent to sequential :meth:`reset` calls but touches each
        row/column once — the successor-construction hot path resets
        several clocks per transition (the fired class, re-enabled
        classes, pinned trivial classes, observers).
        """
        size = self.n + 1
        cells = self.cells
        clocks = tuple(clocks)
        for c in clocks:
            if not (1 <= c <= self.n):
                raise ZoneError("clock index {} out of range".format(c))
        # Columns first: m[j][c] = m[j][0]; with j = 0 this zeroes
        # m[0][c], so the row copies below land the zero cross-terms.
        for base in range(0, size * size, size):
            col0 = cells[base]
            for c in clocks:
                cells[base + c] = col0
        row0 = cells[0:size]
        for c in clocks:
            crow = c * size
            cells[crow : crow + size] = row0
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def clock_bounds(self, clock: int) -> Tuple[Bound, Bound]:
        """``(lower, upper)`` bounds of one clock.

        The lower bound is returned as a bound on ``x``, i.e.
        ``(v, flag)`` meaning ``x ≥ v`` (``>`` when flag is −1),
        derived from the stored bound on ``−x``.
        """
        size = self.n + 1
        neg = self.cells[clock]  # row 0: -x ≤ v
        if neg >= INF_ENC:
            lower: Bound = (-math.inf, 0)
        else:
            lower = (Fraction(-(neg >> 1), self.scale), 0 if neg & 1 else -1)
        return lower, decode_bound(self.cells[clock * size], self.scale)

    def difference_bounds(self, i: int, j: int) -> Tuple[Bound, Bound]:
        """``(lower, upper)`` bounds of ``x_i − x_j`` (lower as a
        ≥-style bound, as in :meth:`clock_bounds`)."""
        size = self.n + 1
        neg = self.cells[j * size + i]
        if neg >= INF_ENC:
            lower: Bound = (-math.inf, 0)
        else:
            lower = (Fraction(-(neg >> 1), self.scale), 0 if neg & 1 else -1)
        return lower, decode_bound(self.cells[i * size + j], self.scale)

    def contains_point(self, values: Sequence) -> bool:
        """True when the valuation (``values[i]`` = value of clock
        ``i+1``) satisfies every constraint — used by property tests."""
        if len(values) != self.n:
            raise ZoneError("expected {} clock values".format(self.n))
        size = self.n + 1
        scale = self.scale
        vals = [Fraction(0)] + [Fraction(v) for v in values]
        for i in range(size):
            for j in range(size):
                enc = self.cells[i * size + j]
                if enc >= INF_ENC:
                    continue
                diff = (vals[i] - vals[j]) * scale
                bound = enc >> 1
                if enc & 1:
                    if diff > bound:
                        return False
                elif diff >= bound:
                    return False
        return True

    def includes(self, other: "DBM") -> bool:
        """True when every valuation of ``other`` lies in this zone.

        Both matrices must be canonical and non-empty; inclusion is then
        a cellwise ``≤`` on the encoded cells (integer order is bound
        tightness), stopping at the first looser cell.  Operands on
        different grids are compared on the lcm grid, on copies.
        """
        if self.n != other.n:
            raise ZoneError("cannot compare zones over different clock counts")
        mine, theirs = self.cells, other.cells
        if self.scale != other.scale:
            scale = _lcm(self.scale, other.scale)
            mine = self.copy().rescale(scale).cells
            theirs = other.copy().rescale(scale).cells
        return all(map(operator.le, theirs, mine))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def m(self) -> List[List[Bound]]:
        """The matrix decoded to nested ``(value, flag)`` rows — a
        debugging/compatibility *view*; writes to it do not land in the
        flat storage."""
        size = self.n + 1
        scale = self.scale
        return [
            [
                decode_bound(self.cells[i * size + j], scale)
                for j in range(size)
            ]
            for i in range(size)
        ]

    def key(self) -> Tuple[int, int, bytes]:
        """Hashable canonical form, normalised across scales: the grid
        is reduced by the gcd of the scale and every finite cell value,
        so equal zones key equal regardless of construction history."""
        scale = self.scale
        cells = self.cells
        if scale != 1:
            g = scale
            for enc in cells:
                if enc < INF_ENC:
                    g = math.gcd(g, enc >> 1)
                    if g == 1:
                        break
            if g > 1:
                reduced = array("q", cells)
                for idx, enc in enumerate(reduced):
                    if enc < INF_ENC:
                        reduced[idx] = ((enc >> 1) // g) * 2 + (enc & 1)
                return (self.n, scale // g, reduced.tobytes())
        return (self.n, scale, cells.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DBM):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.scale == other.scale:
            return self.cells == other.cells
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        rows = []
        size = self.n + 1
        for i in range(size):
            parts = []
            for j in range(size):
                value, flag = decode_bound(self.cells[i * size + j], self.scale)
                op = "<" if flag == -1 else "<="
                parts.append("x{}-x{}{}{}".format(i, j, op, value))
            rows.append("  " + ", ".join(parts))
        return "DBM(\n{}\n)".format("\n".join(rows))
