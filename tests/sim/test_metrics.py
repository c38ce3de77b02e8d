"""Unit tests for metrics helpers."""

import pytest

from repro.sim import LatencyRecorder, TimeSeries, percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([5.0], 99) == 5.0

    def test_median_even(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        data = [float(i) for i in range(1, 101)]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 100.0

    def test_p99_interpolates(self):
        data = [float(i) for i in range(1, 101)]
        assert percentile(data, 99) == pytest.approx(99.01)

    def test_unsorted_input(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyRecorder:
    def test_summary(self):
        rec = LatencyRecorder("x")
        for v in [1.0, 2.0, 3.0]:
            rec.record(v)
        s = rec.summary()
        assert s["count"] == 3
        assert s["median"] == 2.0
        assert s["mean"] == 2.0
        assert s["max"] == 3.0

    def test_negative_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-0.1)

    def test_empty_stats_raise(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.median()

    def test_sorted_cache_invalidated_on_record(self):
        rec = LatencyRecorder()
        for v in [3.0, 1.0, 2.0]:
            rec.record(v)
        assert rec.median() == 2.0  # populates the cache
        rec.record(0.5)
        assert rec.sorted_samples() == [0.5, 1.0, 2.0, 3.0]
        assert rec.percentile(0) == 0.5
        assert rec.max() == 3.0

    def test_summary_matches_percentile_function(self):
        rec = LatencyRecorder()
        data = [float(i) for i in range(1, 101)]
        for v in data:
            rec.record(v)
        assert rec.p99() == percentile(data, 99)
        assert rec.summary()["p99"] == percentile(data, 99)


class TestTimeSeries:
    def test_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.add(float(t), t * 10.0)
        assert ts.window(2.0, 5.0) == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]

    def test_window_edges(self):
        ts = TimeSeries()
        for t in range(5):
            ts.add(float(t), float(t))
        assert ts.window(0.0, 5.0) == ts.points  # start-inclusive, end-exclusive
        assert ts.window(4.0, 4.0) == []
        assert ts.window(-1.0, 0.5) == [(0.0, 0.0)]
        assert ts.window(10.0, 20.0) == []

    def test_bucket_percentile(self):
        ts = TimeSeries()
        for t in range(10):
            ts.add(t / 10.0, float(t))
        buckets = ts.bucket_percentile(0.0, 1.0, 0.5, 50)
        assert len(buckets) == 2
        assert buckets[0][1] == 2.0  # median of 0..4
        assert buckets[1][1] == 7.0  # median of 5..9

    def test_empty_bucket_is_none(self):
        ts = TimeSeries()
        ts.add(0.9, 1.0)
        buckets = ts.bucket_percentile(0.0, 1.0, 0.5, 50)
        assert buckets[0][1] is None
        assert buckets[1][1] == 1.0

    def test_invalid_width(self):
        ts = TimeSeries()
        with pytest.raises(ValueError):
            ts.bucket_percentile(0, 1, 0, 50)
