import statistics

import pytest

from harness import percentile, segment_median, segment_rates, segments, spread


def test_percentile_interpolates_and_ignores_order():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.0) == 1.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 1.0) == 5.0
    assert percentile(list(range(101)), 0.99) == 99.0
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_segments_are_equal_and_drop_the_remainder():
    parts = segments(list(range(23)), 5)
    assert [len(p) for p in parts] == [4] * 5
    assert parts[0] == [0, 1, 2, 3] and parts[-1] == [16, 17, 18, 19]
    assert segments([1, 2], 5) == [[1, 2]]
    assert segments([], 5) == []


def test_segment_median_shrugs_off_one_bad_slice():
    # Four quiet slices and one with a stall: a whole-run p99 reports the
    # stall, the median over slices does not.
    samples = [1.0] * 400 + [1.0] * 90 + [50.0] * 10
    assert percentile(samples, 0.99) == 50.0
    assert segment_median(samples, 0.99) == 1.0
    assert segment_median(samples, 0.5) == 1.0


def test_segment_rates_count_weight_per_completion():
    ends = [0.1 * (i + 1) for i in range(50)]  # ten a second from t=0
    assert segment_rates(ends, 0.0) == pytest.approx([10.0] * 5)
    assert segment_rates(ends, 0.0, weight=64) == pytest.approx([640.0] * 5)
    # One slice twice as slow does not move the median.
    slow = ends[:40] + [4.0 + 0.2 * (i + 1) for i in range(10)]
    rates = segment_rates(slow, 0.0)
    assert rates[-1] == pytest.approx(5.0)
    assert statistics.median(rates) == pytest.approx(10.0)


def test_spread_is_interquartile_range_over_median():
    assert spread([10.0]) is None
    assert spread([10.0, 10.0, 10.0]) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    quartiles = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((quartiles[2] - quartiles[0]) / 10.0)
