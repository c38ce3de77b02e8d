"""The kernel's two run loops are twins.

``Environment`` runs ``_loop`` when no profiler is attached and
``_profiled_loop`` when one is. The perf ledger counts ``events_per_op``
on the profiled loop while its timed repetitions run the plain one, so
the two must process the same entries in the same order through every
entry point: same clock, same event count, same results.
"""

import pytest

from repro.obs.profile import KernelProfiler
from repro.sim import Environment, Network, Node, RpcTimeout
from repro.sim.randvar import RandomStreams


def _run_all(env, procs):
    env.run()


def _run_until_time(env, procs):
    env.run(until=3.0)


def _run_max_events(env, procs):
    while env.peek() is not None:
        env.run(max_events=37)


def _run_until_event(env, procs):
    env.run_until(env.all_of(procs), limit=3.0)


def _step(env, procs):
    while env.step():
        pass


DRIVES = {
    "run": _run_all,
    "run-until": _run_until_time,
    "run-max-events": _run_max_events,
    "run_until": _run_until_event,
    "step": _step,
}


def _rpc_load(drive, profiled):
    """Three clients making seeded RPCs to a worker whose handler holds a
    CPU slot for a drawn time; one call in ten goes to a crashed node and
    times out. The profiler, when asked for, is attached before anything
    has run. Returns the clock, the event count and each client's
    replies once ``drive`` is done, and the profiler."""
    env = Environment()
    profiler = KernelProfiler(env) if profiled else None
    net = Network(env, RandomStreams(seed=5), rpc_timeout=0.05)
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
                                              rng.uniform(1e-4, 1e-3))))
            except RpcTimeout:
                replies.append(None)
        return replies

    procs = [env.process(client(i), name=f"client-{i}") for i in range(3)]
    drive(env, procs)
    return (env.now, env.events_processed, [proc.value for proc in procs]), profiler


@pytest.mark.parametrize("drive", list(DRIVES.values()), ids=list(DRIVES))
def test_profiled_and_plain_loops_run_the_same_entries(drive):
    plain, _ = _rpc_load(drive, profiled=False)
    profiled, profiler = _rpc_load(drive, profiled=True)
    assert profiled == plain
    replies = [reply for replies in plain[2] for reply in replies]
    assert len(replies) == 60 and None in replies and replies.count(None) < 30
    assert profiler.events_processed == plain[1]
