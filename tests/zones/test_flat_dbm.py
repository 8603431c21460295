"""The flat-storage DBM against its packed encoding and the reference
object-based engine.

Two layers of proof: encode/decode round-trips pin the bit-packing
(strict vs non-strict flags, infinity, negatives, rational grids), and
a hypothesis property test replays random constraint matrices through
both :class:`repro.zones.dbm.DBM` and the retired
:class:`repro.zones.dbm_reference.ReferenceDBM`, asserting the
canonical forms agree cell for cell.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ZoneError
from repro.zones.dbm import (
    DBM,
    INF_BOUND,
    INF_ENC,
    ZERO_BOUND,
    decode_bound,
    encode_bound,
    le_bound,
    lt_bound,
)
from repro.zones.dbm_reference import ReferenceDBM


class TestEncodeDecode:
    def test_zero(self):
        assert encode_bound(ZERO_BOUND) == 1
        assert decode_bound(1) == ZERO_BOUND

    def test_infinity(self):
        assert encode_bound(INF_BOUND) == INF_ENC
        assert decode_bound(INF_ENC) == INF_BOUND

    @pytest.mark.parametrize("value", [0, 1, 7, -1, -13, 1 << 30, -(1 << 30)])
    @pytest.mark.parametrize("strict", [False, True])
    def test_integer_round_trip(self, value, strict):
        bound = lt_bound(value) if strict else le_bound(value)
        assert decode_bound(encode_bound(bound)) == bound

    @pytest.mark.parametrize(
        "value", [F(1, 2), F(-3, 4), F(7, 12), F(-22, 7), F(1, 1000)]
    )
    @pytest.mark.parametrize("strict", [False, True])
    def test_fraction_round_trip(self, value, strict):
        bound = lt_bound(value) if strict else le_bound(value)
        scale = value.denominator
        assert decode_bound(encode_bound(bound, scale), scale) == bound

    def test_ordering_matches_bound_ordering(self):
        # The whole point of the packing: integer order == tightness.
        bounds = [
            lt_bound(-2), le_bound(-2), lt_bound(0), ZERO_BOUND,
            lt_bound(F(1, 2)), le_bound(F(1, 2)), lt_bound(3), le_bound(3),
            INF_BOUND,
        ]
        encoded = [encode_bound(b, 2) for b in bounds]
        assert encoded == sorted(encoded)

    def test_strict_encodes_below_nonstrict(self):
        assert encode_bound(lt_bound(5)) == encode_bound(le_bound(5)) - 1

    def test_off_grid_rejected(self):
        with pytest.raises(ZoneError):
            encode_bound(le_bound(F(1, 3)), scale=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ZoneError):
            encode_bound(le_bound(1 << 55))

    def test_infinity_decode_ignores_scale(self):
        assert decode_bound(INF_ENC, 12) == INF_BOUND


def _random_bound(rng_value, strict, scale):
    if rng_value is None:
        return INF_BOUND
    value = F(rng_value, scale)
    return (value, -1 if strict else 0)


_cell = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-20, max_value=20)),
    st.booleans(),
)


class TestFlatMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        cells=st.lists(_cell, min_size=25, max_size=25),
        scale=st.sampled_from([1, 2, 3, 6]),
        data=st.data(),
    )
    def test_canonicalization_agrees(self, n, cells, scale, data):
        """Random constraint matrices canonicalise identically in the
        flat engine and the reference engine — including emptiness."""
        size = n + 1
        flat = DBM.universe(n, scale)
        ref = ReferenceDBM.universe(n)
        it = iter(cells)
        for i in range(size):
            for j in range(size):
                if i == j:
                    continue
                raw, strict = next(it)
                bound = _random_bound(raw, strict, scale)
                if bound == INF_BOUND:
                    continue
                # Install raw (possibly inconsistent) constraints
                # directly, then canonicalise both.
                ref.m[i][j] = min(ref.m[i][j], bound)
                flat.cells[i * size + j] = min(
                    flat.cells[i * size + j], encode_bound(bound, scale)
                )
        flat.canonicalize()
        ref.canonicalize()
        assert flat.is_empty() == ref.is_empty()
        if not flat.is_empty():
            assert flat.m == ref.m

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["up", "reset", "constrain"]),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-8, max_value=12),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_operation_sequences_agree(self, n, ops):
        """Whole zone-operation trajectories (delay, reset, constrain)
        stay in lock-step between the two engines."""
        flat = DBM.zero(n)
        ref = ReferenceDBM.zero(n)
        for op, clock, other, value, strict in ops:
            clock = min(clock, n)
            other = min(other, n)
            if op == "up":
                flat.up()
                ref.up()
            elif op == "reset":
                flat.reset(clock)
                ref.reset(clock)
            else:
                bound = lt_bound(value) if strict else le_bound(value)
                flat.constrain(clock, other, bound)
                ref.constrain(clock, other, bound)
            assert flat.is_empty() == ref.is_empty()
            if flat.is_empty():
                break
            assert flat.m == ref.m

    def test_reset_many_matches_sequential_resets(self):
        z = DBM.zero(3).up()
        z.constrain(1, 0, le_bound(9)).constrain(2, 0, le_bound(F(7, 2)))
        sequential = z.copy()
        for clock in (1, 3):
            sequential.reset(clock)
        batched = z.copy()
        batched.reset_many([1, 3])
        assert batched.key() == sequential.key()
        assert batched.m == sequential.m

    def test_cross_scale_equality(self):
        a = DBM.zero(2, scale=1).up()
        b = DBM.zero(2, scale=6).up()
        a.constrain(1, 0, le_bound(2))
        b.constrain(1, 0, le_bound(2))
        assert a == b
        assert a.key() == b.key()
        assert hash(a) == hash(b)


_zone_op = st.tuples(
    st.sampled_from(["up", "reset", "constrain", "constrain"]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-6, max_value=10),
    st.booleans(),
    st.sampled_from([1, 2, 3]),
)


def _replay(n, ops, flat, ref):
    """Apply ``ops`` to both engines in lock-step; False once empty."""
    for op, clock, other, value, strict, den in ops:
        clock, other = min(clock, n), min(other, n)
        if op == "up":
            flat.up()
            ref.up()
        elif op == "reset":
            flat.reset(clock)
            ref.reset(clock)
        elif clock != other:
            bound = (lt_bound if strict else le_bound)(F(value, den))
            flat.constrain(clock, other, bound)
            ref.constrain(clock, other, bound)
        if ref.is_empty():
            return False
    return True


def _semantically_includes(outer, inner):
    """``inner ⊆ outer`` decided by DBM intersection alone: no point of
    ``inner`` violates any bound of ``outer``."""
    size = outer.n + 1
    for i in range(size):
        for j in range(size):
            value, flag = outer.m[i][j]
            if i == j or value == math.inf:
                continue
            # ¬(x_i − x_j ≤ v)  is  x_j − x_i < −v  (≤ −v when strict).
            negation = (-value, -1 if flag == 0 else 0)
            if not inner.copy().constrain(j, i, negation).is_empty():
                return False
    return True


_GRID = [F(k, 2) for k in range(13)]


class TestIncludes:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=2),
        ops_a=st.lists(_zone_op, max_size=6),
        ops_b=st.lists(_zone_op, max_size=6),
        derive=st.booleans(),
        scale_a=st.sampled_from([1, 2, 6]),
        refine=st.sampled_from([1, 2, 5]),
    )
    def test_matches_reference_and_points(
        self, n, ops_a, ops_b, derive, scale_a, refine
    ):
        """Flat and reference inclusion agree on random canonical zones
        on mixed grids, match inclusion decided by intersection, and
        never exclude a grid point of the included zone."""
        flat_a, ref_a = DBM.zero(n, scale_a), ReferenceDBM.zero(n)
        if not _replay(n, ops_a, flat_a, ref_a):
            return
        if derive:  # often nested in ``a``: constrain a copy further
            flat_b, ref_b = flat_a.copy(), ref_a.copy()
        else:
            flat_b, ref_b = DBM.zero(n), ReferenceDBM.zero(n)
        flat_b.rescale(flat_b.scale * refine)
        if not _replay(n, ops_b, flat_b, ref_b):
            return
        assert flat_a.m == ref_a.m and flat_b.m == ref_b.m
        for outer, inner, ref_outer, ref_inner in (
            (flat_a, flat_b, ref_a, ref_b),
            (flat_b, flat_a, ref_b, ref_a),
        ):
            verdict = outer.includes(inner)
            assert verdict == ref_outer.includes(ref_inner)
            assert verdict == _semantically_includes(ref_outer, ref_inner)
            if verdict:
                for point in itertools.product(_GRID, repeat=n):
                    if inner.contains_point(point):
                        assert outer.contains_point(point)

    def test_reflexive_and_strictness(self):
        closed = DBM.zero(1).up().constrain(1, 0, le_bound(3))
        opened = DBM.zero(1, 4).up().constrain(1, 0, lt_bound(3))
        assert closed.includes(closed)
        assert closed.includes(opened) and not opened.includes(closed)
        assert opened.scale == 4  # comparing did not rescale the operands

    def test_clock_count_mismatch_rejected(self):
        with pytest.raises(ZoneError):
            DBM.zero(1).includes(DBM.zero(2))
        with pytest.raises(ZoneError):
            ReferenceDBM.zero(1).includes(ReferenceDBM.zero(2))
