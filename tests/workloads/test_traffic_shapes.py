"""Traffic shapes: rate functions, thinning arrivals, Zipfian sampling."""

import random

import pytest

from repro.sim.kernel import Environment
from repro.workloads.harness import (
    FlashCrowdShape,
    ZipfianSampler,
    run_shaped_open_loop,
)


def test_flash_crowd_shape_piecewise():
    shape = FlashCrowdShape(base_rate=100, peak_rate=700, surge_at=1.0,
                            ramp=0.2, hold=0.5, decay=0.3)
    assert shape.rate_at(0.0) == 100
    assert shape.rate_at(1.1) == pytest.approx(400)   # mid-ramp
    assert shape.rate_at(1.5) == 700                  # holding
    assert shape.rate_at(1.85) == pytest.approx(400)  # mid-decay
    assert shape.rate_at(3.0) == 100


def test_shape_validation():
    with pytest.raises(ValueError):
        FlashCrowdShape(base_rate=500, peak_rate=100, surge_at=0)
    with pytest.raises(ValueError):
        FlashCrowdShape(base_rate=1, peak_rate=2, surge_at=0, ramp=-0.1)


def test_shaped_open_loop_tracks_the_shape():
    env = Environment()
    shape = FlashCrowdShape(base_rate=200, peak_rate=2000, surge_at=1.0,
                            ramp=0.2, hold=0.8, decay=0.2)
    rng = random.Random(42)

    def op(i):
        yield env.timeout(0.001)

    result = run_shaped_open_loop(env, op, shape, duration=3.0, rng=rng)
    assert result.completed == result.extra["launched"] > 0
    offered = result.extra["offered_series"]
    base = [v for t, v in offered.samples if t < 0.9]
    surge = [v for t, v in offered.samples if 1.3 <= t < 1.9]
    assert sum(base) / len(base) < 400
    assert sum(surge) / len(surge) > 1200, "surge must be visible in arrivals"
    # Latency series timestamps are relative to measurement start.
    series = result.extra["latency_series"]
    assert len(series) == result.completed
    assert all(0 <= t <= 3.5 for t, _ in series.samples)


def test_shaped_open_loop_deterministic_per_seed():
    def run(seed):
        env = Environment()
        shape = FlashCrowdShape(base_rate=100, peak_rate=400, surge_at=0.5)

        def op(i):
            yield env.timeout(0.002)

        result = run_shaped_open_loop(
            env, op, shape, duration=2.0, rng=random.Random(seed)
        )
        return result.completed, result.latencies.samples

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_zipfian_sampler_is_skewed_and_deterministic():
    sampler = ZipfianSampler(n=1000)
    rng = random.Random(11)
    samples = [sampler.sample(rng) for _ in range(5000)]
    assert all(0 <= s < 1000 for s in samples)
    hot = sum(1 for s in samples if s < 10)
    assert hot / len(samples) > 0.3, "zipf(0.99): top-1% keys dominate"
    rng_b = random.Random(11)
    assert samples == [sampler.sample(rng_b) for _ in range(5000)]


def test_zipfian_single_key():
    sampler = ZipfianSampler(n=1)
    rng = random.Random(0)
    assert {sampler.sample(rng) for _ in range(100)} == {0}


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianSampler(n=0)
