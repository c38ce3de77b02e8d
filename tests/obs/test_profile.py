"""Kernel profiler: event counts, queue depth, events by kind."""

from repro.obs.profile import KernelProfiler
from repro.sim.kernel import Environment


def test_counts_events_and_rates():
    env = Environment()
    prof = KernelProfiler(env)

    def ticker():
        for _ in range(10):
            yield env.timeout(0.1)

    env.process(ticker())
    env.run(until=2.0)
    assert prof.events_processed >= 10
    assert prof.events_per_virtual_second() > 0
    assert prof.mean_queue_depth >= 0
    assert prof.max_queue_depth >= 0
    assert sum(prof.events_by_kind.values()) == prof.events_processed


def test_detach_removes_kernel_hook():
    env = Environment()
    prof = KernelProfiler(env)
    assert "call_later" in env.__dict__ and "timer" in env.__dict__

    def ticker():
        yield env.timeout(0.1)

    env.process(ticker())
    env.run(until=0.2)
    seen = prof.events_processed
    assert seen > 0
    prof.detach()
    assert "call_later" not in env.__dict__ and "timer" not in env.__dict__
    env.process(ticker())
    env.run(until=0.5)
    assert prof.events_processed == seen  # no longer counting


def test_report_lines_render():
    env = Environment()
    prof = KernelProfiler(env)

    def work():
        yield env.timeout(0.25)

    env.process(work(), name="busy")
    env.run(until=1.0)
    lines = prof.report_lines()
    assert any("kernel:" in line for line in lines)
    assert any("busy" in line for line in lines)

