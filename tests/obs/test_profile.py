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



class _Arg:
    name = "payload"


def test_a_timer_keeps_its_arg_while_profiled():
    """Profiling reroutes a timer's callback, never its argument: code
    that reads ``timer.arg`` sees the object it armed the timer with,
    whether the timer was armed before or after the profiler attached,
    and after it detached."""
    env = Environment()
    fired = []

    def fire(arg):
        fired.append(arg)

    early_arg, late_arg, left_arg = _Arg(), _Arg(), _Arg()
    early = env.timer(0.1, fire, early_arg)
    prof = KernelProfiler(env)
    late = env.timer(0.2, fire, late_arg)
    left = env.timer(0.5, fire, left_arg)
    assert early.arg is early_arg and late.arg is late_arg and left.arg is left_arg
    env.run(until=0.3)
    assert fired == [early_arg, late_arg]
    assert prof.events_by_kind == {(fire.__qualname__, "payload"): 2}
    prof.detach()
    assert left.arg is left_arg and left.fn is fire
    env.run(until=1.0)
    assert fired == [early_arg, late_arg, left_arg]
    assert prof.events_processed == 2


def test_detach_restores_every_queued_callback():
    """Entries queued before, during and after profiling each run once
    with their own callback and argument."""
    env = Environment()
    seen = []
    env.call_later(0.1, seen.append, "before")
    prof = KernelProfiler(env)
    env.call_later(0.2, seen.append, "during")
    timer = env.timer(0.3, seen.append, "timer")
    prof.detach()
    assert timer.fn == seen.append and timer.arg == "timer"
    assert all(entry[2] in (None, seen.append) for entry in env._heap)
    env.call_later(0.05, seen.append, "after")
    env.run(until=1.0)
    assert seen == ["after", "before", "during", "timer"]
    assert prof.events_processed == 0
