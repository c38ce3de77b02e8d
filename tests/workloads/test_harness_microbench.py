"""Tests for the load harness and LogBook microbenchmarks."""

import pytest

from repro.core import BokiCluster
from repro.sim.kernel import Environment, SimulationError
from repro.workloads.harness import run_closed_loop, run_open_loop
from repro.workloads.microbench import append_and_read, append_latency_timeline, append_only


@pytest.fixture
def cluster():
    c = BokiCluster(num_function_nodes=4, num_storage_nodes=4)
    c.boot()
    return c


class TestClosedLoop:
    def test_counts_and_latencies(self, cluster):
        def make_op(i):
            def op():
                yield cluster.env.timeout(0.01)

            return op

        result = run_closed_loop(cluster.env, make_op, num_clients=2, duration=0.5)
        # 2 clients x ~50 ops of 10ms each in 0.5s.
        assert 80 <= result.completed <= 110
        assert result.median_latency() == pytest.approx(0.01, rel=0.01)

    def test_errors_counted_not_fatal(self, cluster):
        calls = {"n": 0}

        def make_op(i):
            def op():
                calls["n"] += 1
                yield cluster.env.timeout(0.01)
                if calls["n"] % 2 == 0:
                    raise RuntimeError("flaky")

            return op

        result = run_closed_loop(cluster.env, make_op, num_clients=1, duration=0.3)
        assert result.errors > 0
        assert result.completed > 0

    def test_op_failing_in_zero_virtual_time_fails_the_run(self):
        """Re-issued at the instant it failed, such an op would spin the
        host forever: the clock, and so the end of the run and
        ``run_until``'s virtual limit, would never arrive."""
        env = Environment()

        def failing_generator():
            raise RuntimeError("before the first yield")
            yield  # pragma: no cover - makes this a generator function

        make_op = lambda i: (lambda: failing_generator())  # noqa: E731
        with pytest.raises(SimulationError) as excinfo:
            run_closed_loop(env, make_op, num_clients=2, duration=0.3)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert env.now == pytest.approx(0.35)  # the run ended on time

    def test_throughput_scales_with_clients(self, cluster):
        def make_op(i):
            def op():
                yield cluster.env.timeout(0.01)

            return op

        one = run_closed_loop(cluster.env, make_op, num_clients=1, duration=0.3)
        four = run_closed_loop(cluster.env, make_op, num_clients=4, duration=0.3)
        assert four.completed > 3 * one.completed


class TestOpenLoop:
    def test_offered_rate_met_when_fast(self, cluster):
        rng = cluster.streams.stream("openloop-test")

        def make_op(i):
            def op():
                yield cluster.env.timeout(0.001)

            return op()

        result = run_open_loop(cluster.env, make_op, rate=500.0, duration=0.5, rng=rng)
        assert result.throughput == pytest.approx(500.0, rel=0.25)

    def test_latency_grows_under_overload(self, cluster):
        """A capacity-1 resource at 2x its service rate: open-loop latency
        should blow past the service time."""
        from repro.sim.sync import Resource

        rng = cluster.streams.stream("openloop-test2")
        bottleneck = Resource(cluster.env, capacity=1)

        def make_op(i):
            def op():
                req = bottleneck.request()
                yield req
                try:
                    yield cluster.env.timeout(0.01)  # 100/s capacity
                finally:
                    bottleneck.release(req)

            return op()

        result = run_open_loop(cluster.env, make_op, rate=200.0, duration=0.5, rng=rng)
        assert result.p99_latency() > 0.05


class TestAppendOnly:
    def test_produces_throughput(self, cluster):
        result = append_only(cluster, num_clients=16, duration=0.2)
        assert result.completed > 100
        assert result.errors == 0
        assert 0.0005 < result.median_latency() < 0.01

    def test_many_books(self, cluster):
        result = append_only(
            cluster, num_clients=8, duration=0.2, book_ids=list(range(20))
        )
        assert result.completed > 50

    def test_custom_logbook_factory(self, cluster):
        from repro.baselines.fixed_sharding import fixed_sharding_logbook

        result = append_only(
            cluster,
            num_clients=8,
            duration=0.2,
            book_ids=[1, 2, 3],
            logbook_factory=lambda client, book: fixed_sharding_logbook(cluster, book),
        )
        assert result.completed > 50


class TestAppendAndRead:
    def test_read_latency_hierarchy(self):
        """Local cache hit < local cache miss < remote engine (Table 3's
        defining ordering)."""
        def fresh():
            c = BokiCluster(num_function_nodes=8, num_storage_nodes=4, index_engines_per_log=4)
            c.boot()
            return c

        hit = append_and_read(fresh(), num_clients=8, duration=0.2)
        miss = append_and_read(fresh(), num_clients=8, duration=0.2, evict_between_reads=True)
        remote = append_and_read(fresh(), num_clients=8, duration=0.2, force_remote_engine=True)
        assert (
            hit["read"].median_latency()
            < miss["read"].median_latency()
            < remote["read"].median_latency()
        )

    def test_reads_counted(self, cluster):
        result = append_and_read(cluster, num_clients=4, duration=0.2)
        # 4 reads per append.
        assert result["read"].completed >= 3 * result["append"].completed


class TestTimeline:
    def test_timeline_records_latencies_over_time(self, cluster):
        series = append_latency_timeline(cluster, num_clients=8, duration=0.3)
        assert len(series["append"]) > 50
        times = [t for t, _ in series["append"].samples]
        assert times == sorted(times)

    def test_mixed_read_workload(self, cluster):
        series = append_latency_timeline(cluster, num_clients=8, duration=0.3, read_ratio=4)
        assert len(series["read"]) > len(series["append"])
