"""Unit tests: the AIMD adaptive concurrency limiter.

The limiter is pure arithmetic (no RNG, no kernel events), so every
behaviour here is exactly computable: additive increase while the
latency EWMA sits at/below target, gentle decay above it, multiplicative
decrease on explicit downstream overload, and clamping at [min, max].
"""

import pytest

from repro.admission import AdaptiveLimiter
from repro.admission.limiter import (
    ALPHA,
    DEFAULT_SERVICE,
    MAX_LIMIT,
    MIN_LIMIT,
)

pytestmark = pytest.mark.admission


class TestValidation:
    def test_initial_must_lie_within_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveLimiter(initial=MIN_LIMIT - 1.0)
        with pytest.raises(ValueError):
            AdaptiveLimiter(initial=2 * MAX_LIMIT)


class TestAdditiveIncrease:
    def test_fast_completions_grow_the_limit_additively(self):
        limiter = AdaptiveLimiter(initial=10.0)
        limiter.on_success(0.010)
        # +increase/limit per completion: 10 + 1/10.
        assert limiter._limit == pytest.approx(10.1)
        assert limiter.limit == 10  # int floor

    def test_one_full_window_of_completions_grows_limit_by_about_one(self):
        limiter = AdaptiveLimiter(initial=10.0)
        for _ in range(10):
            limiter.on_success(0.010)
        assert 10.9 <= limiter._limit <= 11.1  # TCP-Reno style: +1/RTT

    def test_limit_caps_at_max(self):
        limiter = AdaptiveLimiter(initial=MAX_LIMIT - 0.01)
        for _ in range(100):
            limiter.on_success(0.001)
        assert limiter._limit == MAX_LIMIT


class TestDecrease:
    def test_slow_completions_decay_the_limit_gently(self):
        limiter = AdaptiveLimiter(initial=100.0)
        limiter.on_success(0.200)  # the first sample seeds the EWMA: > target
        assert limiter._limit == pytest.approx(98.0)  # x LATENCY_BACKOFF
        assert limiter.decreases == 1

    def test_downstream_overload_is_multiplicative_decrease(self):
        limiter = AdaptiveLimiter(initial=100.0)
        limiter.on_overload()
        assert limiter._limit == pytest.approx(70.0)  # x OVERLOAD_BACKOFF
        limiter.on_overload()
        assert limiter._limit == pytest.approx(49.0)
        assert limiter.decreases == 2

    def test_decrease_clamps_at_min_limit(self):
        limiter = AdaptiveLimiter(initial=MIN_LIMIT + 1.0)
        for _ in range(10):
            limiter.on_overload()
        assert limiter._limit == MIN_LIMIT
        assert limiter.limit == int(MIN_LIMIT)

    def test_clamped_decrease_below_min_is_not_counted_twice(self):
        limiter = AdaptiveLimiter(initial=MIN_LIMIT)
        limiter.on_overload()  # already at the floor: no actual decrease
        assert limiter.decreases == 0


class TestEwmaAndEstimates:
    def test_ewma_smooths_latency_observations(self):
        limiter = AdaptiveLimiter()
        limiter.on_success(0.100)
        assert limiter.ewma.value == pytest.approx(0.100)
        limiter.on_success(0.200)
        assert limiter.ewma.value == pytest.approx(
            ALPHA * 0.200 + (1 - ALPHA) * 0.100)

    def test_service_estimate_defaults_until_first_observation(self):
        limiter = AdaptiveLimiter()
        assert limiter.service_estimate() == DEFAULT_SERVICE
        limiter.on_success(0.040)
        assert limiter.service_estimate() == pytest.approx(0.040)

    def test_snapshot_is_json_ready(self):
        limiter = AdaptiveLimiter(initial=16.0)
        limiter.on_success(0.010)
        snap = limiter.snapshot()
        assert set(snap) == {"limit", "ewma_latency", "decreases"}
        assert snap["limit"] == 16
        assert snap["decreases"] == 0
