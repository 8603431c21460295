import math

import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile([3.0], 90.0) == 3.0


def test_failed_samples_count_as_over_every_limit():
    values = [0.1] * 95 + [math.inf] * 5
    assert stats.percentile(values, 90.0) == 0.1
    assert stats.percentile(values, 99.0) == math.inf


def test_p90_needs_a_hundred_samples():
    assert stats.tail([1.0] * 99) == (75.0, 1.0)
    assert stats.tail(list(range(100))) == (90.0, 89)
    assert stats.tail([1.0] * 19) is None


@pytest.mark.parametrize(
    "count, level",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_level_keeps_ten_samples_beyond(count, level):
    assert stats.tail_level(count) == level


def test_quartiles_match_the_acceptance_rule():
    q1, q2, q3 = stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.iqr_frac([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]) == 1.0


def test_union_length_merges_overlaps():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert stats.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert stats.union_length([(2.0, 1.0)]) == 0.0


def test_max_rps_interpolates_between_steps():
    steps = [(8.0, 0.4), (16.0, 0.8), (24.0, 1.6)]
    # p90 crosses 1.0 s a quarter of the way from 16 to 24 rps.
    assert stats.max_rps(steps, 1.0) == pytest.approx(18.0)


def test_max_rps_edges():
    assert stats.max_rps([(8.0, 0.4), (16.0, 0.9)], 1.0) == 16.0
    assert stats.max_rps([(8.0, 0.4), (16.0, math.inf)], 1.0) == 8.0
    assert stats.max_rps([(8.0, 1.2), (16.0, 2.0)], 1.0) == 0.0
    # The first step over the limit ends the search.
    assert stats.max_rps([(8.0, 0.4), (16.0, 1.4), (24.0, 0.5)], 1.0) == pytest.approx(12.8)
