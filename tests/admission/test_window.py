"""Unit tests: bounded inflight windows and CoDel queue-delay shedding.

Both are pure state machines driven by explicit times, so the CoDel
schedule (first drop after a full interval above target, then
``interval/sqrt(count)`` between drops) is asserted exactly.
"""

from math import sqrt

import pytest

from repro.admission import BoundedWindow, CoDelShedder

pytestmark = pytest.mark.admission


class TestBoundedWindow:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedWindow(0)

    def test_enter_exit_tracks_inflight_and_peak(self):
        window = BoundedWindow(4)
        window.enter()
        window.enter()
        assert window.inflight == 2
        assert window.peak == 2
        window.exit()
        window.enter()
        assert window.inflight == 2
        assert window.peak == 2  # peak is a high-water mark
        assert window.admitted == 3

    def test_full_at_capacity(self):
        window = BoundedWindow(2)
        assert not window.full
        window.enter()
        window.enter()
        assert window.full
        window.exit()
        assert not window.full

    def test_unmatched_exit_raises(self):
        window = BoundedWindow(1)
        with pytest.raises(RuntimeError):
            window.exit()


class TestCoDelShedder:
    """The times below are written for CODEL_TARGET = 10 ms and
    CODEL_INTERVAL = 100 ms."""

    def test_below_target_never_drops(self):
        codel = CoDelShedder()
        for i in range(100):
            assert not codel.should_drop(i * 0.001, 0.005)
        assert codel.dropped == 0

    def test_drop_only_after_a_sustained_interval_above_target(self):
        codel = CoDelShedder()
        assert not codel.should_drop(0.0, 0.020)   # arms first_above
        assert not codel.should_drop(0.05, 0.020)  # interval not yet elapsed
        assert codel.should_drop(0.11, 0.020)      # one full interval above
        assert codel.dropped == 1

    def test_drop_rate_ramps_as_interval_over_sqrt_count(self):
        codel = CoDelShedder()
        codel.should_drop(0.0, 0.020)
        assert codel.should_drop(0.10, 0.020)
        # After the first drop the gate reopens a full interval later...
        assert codel.drop_next == pytest.approx(0.10 + 0.100 / sqrt(1))
        assert not codel.should_drop(0.15, 0.020)  # too soon
        # ...and each subsequent drop shortens it by 1/sqrt(count).
        assert codel.should_drop(0.21, 0.020)
        assert codel.drop_next == pytest.approx(0.21 + 0.100 / sqrt(2))
        assert codel.should_drop(0.29, 0.020)
        assert codel.drop_next == pytest.approx(0.29 + 0.100 / sqrt(3))
        assert codel.dropped == 3

    def test_recovery_below_target_resets_the_controller(self):
        codel = CoDelShedder()
        codel.should_drop(0.0, 0.020)
        assert codel.should_drop(0.10, 0.020)
        assert not codel.should_drop(0.20, 0.001)  # queue drained: reset
        assert codel.first_above is None
        assert codel.count == 0
        # A fresh excursion must again sustain a full interval first.
        assert not codel.should_drop(0.30, 0.020)
        assert not codel.should_drop(0.35, 0.020)
        assert codel.should_drop(0.41, 0.020)
