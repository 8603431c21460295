"""Tests for the rational time grid."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TimingConditionError
from repro.core.discretize import discrete_options, grid_aligned, grid_times
from repro.core.time_automaton import time_of_boundmap

from tests.timed.test_conditions import pulse_timed


class TestGridTimes:
    def test_inclusive_ends(self):
        assert grid_times(1, 2, F(1, 2)) == [1, F(3, 2), 2]

    def test_misaligned_lower(self):
        assert grid_times(F(3, 4), 2, F(1, 2)) == [1, F(3, 2), 2]

    def test_misaligned_upper(self):
        assert grid_times(0, F(5, 4), F(1, 2)) == [0, F(1, 2), 1]

    def test_empty_when_inverted(self):
        assert grid_times(3, 2, F(1, 2)) == []

    def test_point(self):
        assert grid_times(2, 2, F(1, 2)) == [2]

    def test_point_misaligned(self):
        assert grid_times(F(1, 3), F(1, 3), F(1, 2)) == []

    def test_infinite_hi_rejected(self):
        with pytest.raises(TimingConditionError):
            grid_times(0, math.inf, F(1, 2))

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(TimingConditionError):
            grid_times(0, 1, 0)

    def test_grid_aligned(self):
        assert grid_aligned(F(3, 2), F(1, 2))
        assert not grid_aligned(F(1, 3), F(1, 2))
        assert grid_aligned(math.inf, F(1, 2))


@given(lo=st.integers(-50, 50), hi=st.integers(-50, 50), grid=st.integers(1, 12))
def test_int_inputs_give_ints_equal_to_the_fraction_path(lo, hi, grid):
    times = grid_times(lo, hi, grid)
    assert all(type(t) is int for t in times)
    assert times == grid_times(F(lo), F(hi), F(grid))
    if lo > hi:
        assert times == []
    else:
        assert times == [t for t in range(lo, hi + 1) if t % grid == 0]


@given(grid=st.integers(-5, 0) | st.fractions(max_value=0))
def test_nonpositive_grid_still_raises(grid):
    with pytest.raises(TimingConditionError):
        grid_times(0, 1, grid)


class TestDiscreteOptions:
    def test_options_respect_windows(self):
        auto = time_of_boundmap(pulse_timed())
        init = auto.initial("on")
        options = list(discrete_options(auto, init, F(1, 2), 10))
        # FIRE window is [1, 2]
        assert ("fire", 1) in options and ("fire", 2) in options
        assert ("fire", F(1, 2)) not in options

    def test_horizon_prunes(self):
        auto = time_of_boundmap(pulse_timed())
        init = auto.initial("on")
        options = list(discrete_options(auto, init, F(1, 2), F(3, 2)))
        assert options == [("fire", 1), ("fire", F(3, 2))]

    def test_every_option_is_a_real_step(self):
        auto = time_of_boundmap(pulse_timed())
        init = auto.initial("on")
        for action, t in discrete_options(auto, init, F(1, 2), 10):
            assert auto.successors(init, action, t)
