"""Unit tests for metrics helpers."""

import pytest

from repro.sim import LatencyRecorder, percentile
from repro.sim.metrics import SampleWindow


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
        s = rec.summary_dict()
        assert s["count"] == 3
        assert s["p50"] == 2.0
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
        assert rec.summary_dict()["p99"] == percentile(data, 99)


class TestSampleWindowBoundaries:
    """The window-boundary cases the harness's latency timelines rely on
    (they were ``TimeSeries``'s): ``start <= t``, and the bisect on equal
    timestamps. ``end`` is inclusive here, where ``TimeSeries`` was not."""

    def test_window(self):
        win = SampleWindow()
        for t in range(10):
            win.record(float(t), t * 10.0)
        assert win.values(start=2.0, end=5.0) == [20.0, 30.0, 40.0, 50.0]

    def test_window_edges(self):
        win = SampleWindow()
        for t in range(5):
            win.record(float(t), float(t))
        assert win.values(start=0.0, end=5.0) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert win.values(start=4.0, end=4.0) == [4.0]  # both ends inclusive
        assert win.values(start=-1.0, end=0.5) == [0.0]
        assert win.values(start=10.0, end=20.0) == []
        assert win.values(start=3.0, end=1.0) == []

    def test_equal_timestamps_are_all_inside_or_all_outside(self):
        win = SampleWindow()
        for t, v in [(0.0, 1.0), (1.0, 2.0), (1.0, -3.0), (1.0, 4.0), (2.0, 5.0)]:
            win.record(t, v)
        assert win.values(start=1.0, end=1.0) == [2.0, -3.0, 4.0]
        assert win.values(start=1.0) == [2.0, -3.0, 4.0, 5.0]
        assert win.values(end=1.0) == [1.0, 2.0, -3.0, 4.0]
        assert win.values(start=1.5, end=1.9) == []
