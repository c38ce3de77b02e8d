"""Attaching a kernel profiler changes nothing.

``KernelProfiler`` shadows ``Environment.call_later`` / ``timer`` and
reroutes the entries already queued through itself; the kernel has one
loop either way. The perf ledger counts ``events_per_op`` with a profiler
attached while its timed repetitions run without one, so through every
entry point the two must process the same entries in the same order:
same clock, same event count, same results — and the profiler must count
exactly the entries run while it was attached.
"""

import pytest

from repro.obs.profile import KernelProfiler
from repro.sim import Environment, Network, Node, RpcTimeout
from repro.sim.randvar import RandomStreams


def _run_all(env, procs):
    env.run()


def _run_until_time(env, procs):
    env.run(until=3.0)


def _run_until_event(env, procs):
    env.run_until(env.all_of(procs), limit=3.0)


def _step(env, procs):
    while env.step():
        pass


DRIVES = {
    "run": _run_all,
    "run-until": _run_until_time,
    "run_until": _run_until_event,
    "step": _step,
}


def _rpc_load(drive, profiled=False, before_drive=None):
    """Three clients making seeded RPCs to a worker whose handler holds a
    CPU slot for a drawn time; one call in ten goes to a crashed node and
    times out. The profiler, when asked for, is attached before anything
    has run; ``before_drive(env, profiler)``, if given, runs just before
    ``drive``.
    Returns the clock, the event count and each client's replies once
    ``drive`` is done, and the profiler."""
    env = Environment()
    profiler = KernelProfiler(env) if profiled else None
    net = Network(env, RandomStreams(seed=5))
    client_node, worker, down = (
        net.register(Node(env, name, cpu_capacity=2))
        for name in ("client", "worker", "down"))

    def work(hold):
        yield worker.cpu.use(hold)
        return hold * 2

    worker.handle("work", work)
    down.crash()

    def client(i):
        rng = net.streams.stream(f"client-{i}")
        replies = []
        for _ in range(20):
            dst = down if rng.random() < 0.1 else worker
            try:
                replies.append((yield net.rpc(client_node, dst, "work",
                                              rng.uniform(1e-4, 1e-3), timeout=0.05)))
            except RpcTimeout:
                replies.append(None)
        return replies

    procs = [env.process(client(i), name=f"client-{i}") for i in range(3)]
    if before_drive is not None:
        before_drive(env, profiler)
    drive(env, procs)
    return (env.now, env.events_processed, [proc.value for proc in procs]), profiler


@pytest.mark.parametrize("drive", list(DRIVES.values()), ids=list(DRIVES))
def test_profiled_and_plain_loops_run_the_same_entries(drive):
    plain, _ = _rpc_load(drive)
    profiled, profiler = _rpc_load(drive, profiled=True)
    assert profiled == plain
    replies = [reply for replies in plain[2] for reply in replies]
    assert len(replies) == 60 and None in replies and replies.count(None) < 30
    assert profiler.events_processed == plain[1]


def test_attached_mid_run_the_queued_entries_are_counted():
    plain, _ = _rpc_load(_run_all)
    attach = {}

    def run_then_attach(env, _):
        env.run(until=0.002)
        attach["before"], attach["queued"] = env.events_processed, len(env._heap)
        attach["profiler"] = KernelProfiler(env)

    profiled, _ = _rpc_load(_run_all, before_drive=run_then_attach)
    assert profiled == plain
    assert attach["before"] > 0 and attach["queued"] > 0
    assert attach["profiler"].events_processed == plain[1] - attach["before"]


def test_detached_mid_run_counting_stops_and_every_entry_still_runs_once():
    detach = {}

    def detach_later(env, profiler):
        """Both runs schedule this entry, so their event counts agree."""
        def detach_now(_):
            if profiler is not None:
                detach["counted"], detach["queued"] = profiler.events_processed, len(env._heap)
                profiler.detach()

        env.call_later(0.002, detach_now)

    plain, _ = _rpc_load(_run_all, before_drive=detach_later)
    profiled, profiler = _rpc_load(_run_all, profiled=True, before_drive=detach_later)
    assert profiled == plain  # each rerouted entry ran, and ran once
    assert detach["queued"] > 0
    assert profiler.events_processed == detach["counted"] < plain[1]
    assert "call_later" not in vars(profiler.env) and "timer" not in vars(profiler.env)


def test_a_cancelled_timer_is_neither_run_nor_counted():
    env = Environment()
    ran = []
    queued_before = env.timer(1.0, ran.append, "before")
    profiler = KernelProfiler(env)
    queued_after = env.timer(1.0, ran.append, "after")
    kept = env.timer(2.0, ran.append, "kept")
    queued_before.cancel()
    queued_after.cancel()
    env.run()
    assert ran == ["kept"] and kept.fn is None
    assert profiler.events_processed == env.events_processed == 1


def test_a_second_profiler_on_one_env_raises():
    env = Environment()
    first = KernelProfiler(env)
    with pytest.raises(ValueError):
        KernelProfiler(env)
    first.detach()
    first.detach()  # a no-op once detached
    second = KernelProfiler(env)
    env.call_later(0.1, lambda _: None)
    env.run()
    assert (first.events_processed, second.events_processed) == (0, 1)
