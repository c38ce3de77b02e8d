"""Helpers shared across the test tree."""

import json

import pytest

from repro.admission import AdaptiveLimiter
from repro.chaos.history import History
from repro.chaos.loads import gateway_store_clients, register_store_fn
from repro.chaos.runner import execute, verdict
from repro.core.cluster import BokiCluster
from repro.obs.profile import KernelProfiler
from repro.sim.randvar import RandomStreams


class Seed0Runs:
    """Seed-0 verdicts of the chaos scenarios, each scenario run at most
    once per session (per ``monitors`` setting) and only when a test asks
    for it — the golden-verdict, online/offline-agreement and
    monitors-do-not-perturb tests all read from here, and these runs
    dominate the suite's runtime."""

    def __init__(self):
        self._verdicts = {}

    def verdict(self, name, monitors=True):
        """Only the verdict is kept, so the finished run (and its cluster)
        dies here."""
        key = (name, monitors)
        if key not in self._verdicts:
            self._verdicts[key] = verdict(execute(name, seed=0, monitors=monitors))
        return self._verdicts[key]


def count_events(env, run) -> int:
    """Kernel events while ``run()`` executes. Prints what the entries
    were (``KernelProfiler.events_by_kind``), which pytest shows when the
    event-budget assert that follows fails."""
    profiler = KernelProfiler(env)
    try:
        run()
    finally:
        profiler.detach()
    print("\n".join(profiler.report_lines()))
    return profiler.events_processed


@pytest.fixture(scope="session")
def seed0():
    return Seed0Runs()


def fault_free_run(enable=None, seed=5, num_clients=2, ops_per_client=10,
                   **topology):
    """The transparency workload every optional layer is held to: an
    identical fault-free gateway store load on a same-seed cluster, with
    ``enable(cluster)`` (if given) switching a layer on before boot.
    Returns the cluster and a comparable fingerprint of the whole run —
    a layer that observes but never perturbs leaves it byte-identical."""
    topology = topology or dict(num_function_nodes=2, num_storage_nodes=3,
                                num_sequencer_nodes=3)
    cluster = BokiCluster(seed=seed, **topology)
    if enable is not None:
        enable(cluster)
    cluster.boot()
    history = History(cluster.env)
    register_store_fn(cluster)
    procs = gateway_store_clients(cluster, history, num_clients=num_clients,
                                  ops_per_client=ops_per_client)
    cluster.env.run_until(cluster.env.all_of(procs), limit=300.0)
    fingerprint = json.dumps({
        "now": round(cluster.env.now, 9),
        "messages_sent": cluster.net.messages_sent,
        "history": [op.to_dict() for op in history.ops],
    }, sort_keys=True)
    return cluster, fingerprint


class FixedLimiter(AdaptiveLimiter):
    """An admission limiter pinned at ``limit``, which may lie below the
    adaptive limiter's floor: completions still feed the latency EWMA,
    but neither they nor downstream overloads move the limit."""

    def __init__(self, limit: float):
        super().__init__()
        self._limit = float(limit)

    def on_success(self, latency: float) -> None:
        self.ewma.update(latency)

    def on_overload(self) -> None:
        pass


class MidpointRng:
    """A jitter stream, and the streams that hand it out, whose every
    draw is the midpoint 0.5: a jittered backoff comes out exactly at its
    un-jittered value."""

    def stream(self, name):
        return self

    def random(self) -> float:
        return 0.5


class ExactNetworkStreams(RandomStreams):
    """Seeded streams whose "network" stream draws every jitter at its
    mean, so each hop takes exactly half of ``DEFAULT_RTT``: a network
    built on them has exact timing. Every other stream is the seeded one."""

    def stream(self, name):
        return self if name == "network" else super().stream(name)

    def gauss(self, mu, sigma):
        return mu
