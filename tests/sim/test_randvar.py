"""Unit tests for seeded random streams and distributions."""

import pytest

from repro.sim.randvar import RandomStreams, weighted_choice, zipf_weights


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(seed=7).stream("x")
        b = RandomStreams(seed=7).stream("x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_independent(self):
        streams = RandomStreams(seed=7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("s") is streams.stream("s")

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(seed=9)
        first = s1.stream("main")
        draws_before = [first.random() for _ in range(3)]

        s2 = RandomStreams(seed=9)
        s2.stream("other")  # new consumer
        main = s2.stream("main")
        draws_after = [main.random() for _ in range(3)]
        assert draws_before == draws_after


class TestZipf:
    def test_normalized(self):
        w = zipf_weights(100, 1.5)
        assert sum(w) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(50, 2.0)
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))

    def test_zero_exponent_uniform(self):
        w = zipf_weights(10, 0.0)
        assert all(x == pytest.approx(0.1) for x in w)

    def test_high_exponent_concentrates(self):
        w = zipf_weights(128, 5.0)
        assert w[0] > 0.95

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


class TestWeightedChoice:
    def test_respects_weights(self):
        rng = RandomStreams(seed=2).stream("wc")
        counts = [0, 0]
        for _ in range(10000):
            counts[weighted_choice(rng, [0.9, 0.1])] += 1
        assert counts[0] > 8500

    def test_single_item(self):
        rng = RandomStreams(seed=2).stream("wc1")
        assert weighted_choice(rng, [1.0]) == 0
