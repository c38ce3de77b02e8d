"""Unit tests for the simulation's counted resource."""

import pytest

from repro.sim import Environment, Resource


def run(env):
    env.run()


class TestResource:
    def test_serializes_when_capacity_one(self):
        env = Environment()
        r = Resource(env, capacity=1)
        done = []

        def worker(env, name):
            req = r.request()
            yield req
            yield env.timeout(1.0)
            r.release(req)
            done.append((name, env.now))

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        run(env)
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_parallel_up_to_capacity(self):
        env = Environment()
        r = Resource(env, capacity=2)
        done = []

        def worker(env, name):
            req = r.request()
            yield req
            yield env.timeout(1.0)
            r.release(req)
            done.append((name, env.now))

        for name in ["a", "b", "c"]:
            env.process(worker(env, name))
        run(env)
        assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_use_helper(self):
        env = Environment()
        r = Resource(env, capacity=1)
        times = []

        def worker(env):
            yield r.use(2.0)
            times.append(env.now)

        env.process(worker(env))
        env.process(worker(env))
        run(env)
        assert times == [2.0, 4.0]

    def test_release_without_request_raises(self):
        env = Environment()
        r = Resource(env, capacity=1)
        with pytest.raises(RuntimeError):
            r.release()

    def test_queued_count(self):
        env = Environment()
        r = Resource(env, capacity=1)
        r.request()
        r.request()
        r.request()
        assert r.in_use == 1
        assert r.queued == 2

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)
