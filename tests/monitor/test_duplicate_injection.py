"""Seeded bug injection: the online queue monitor must catch a duplicate
delivery the moment it happens, not at end-of-run reconciliation.

The injected bug makes one queue shard's state machine "forget" to
remove the head element on a chosen pop, so the next pop delivers the
same value again — the classic at-least-once slip an offline checker
only sees after the fact. The QueueMonitor's pop tap must flag it
online, within a bounded number of subsequent monitor events.
"""

import pytest

from repro.core.cluster import BokiCluster
from repro.libs.bokiqueue import queue as queue_mod

pytestmark = [pytest.mark.chaos, pytest.mark.monitor]


class _ForgetfulShardState(queue_mod._ShardState):
    """Applies pops without consuming: pop N of each shard returns the
    head value but leaves it pending, so pop N+1 re-delivers it."""

    buggy_pop = 3  # 1-based index of the pop that forgets to consume
    _pops = 0

    def apply(self, record):
        if record.data["kind"] == "pop" and self.pending:
            type(self)._pops += 1
            if type(self)._pops == self.buggy_pop:
                _, value = self.pending[0]  # deliver without popping
                return value
        return super().apply(record)


def test_duplicate_delivery_caught_online(monkeypatch):
    monkeypatch.setattr(queue_mod, "_ShardState", _ForgetfulShardState)
    _ForgetfulShardState._pops = 0

    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=7,
    )
    hub = cluster.enable_monitoring(context={"test": "duplicate-injection"})
    cluster.boot()
    env = cluster.env
    engine = cluster.engines["func-0"]
    q = queue_mod.BokiQueue(cluster.logbook(1, engine=engine), "bug-q",
                            num_shards=1)
    hub.attach(q)

    total = 8
    delivered = []
    events_at_detection = []

    def producer():
        p = q.producer()
        for i in range(total):
            yield from p.push(f"msg-{i}")
            yield env.timeout(0.01)

    def consumer():
        c = q.consumer(0)
        for _ in range(total + 2):  # the duplicate adds an extra delivery
            value = yield from c.pop_wait(poll_interval=0.01, max_polls=50)
            if value is None:
                break
            delivered.append(value)
            if hub.queue.violations and not events_at_detection:
                events_at_detection.append(hub.events_seen)

    procs = [env.process(producer(), name="p"),
             env.process(consumer(), name="c")]
    env.run_until(env.all_of(procs), limit=120.0)

    # The bug really happened: some value was delivered twice.
    assert len(delivered) > len(set(delivered))
    # ...and the monitor flagged it online, at the offending pop (the
    # violation was visible to the consumer on the very delivery after
    # the duplicate, i.e. within a handful of monitor events).
    assert hub.queue.violations, "duplicate delivery escaped the monitor"
    assert any("duplicate" in v or "already delivered" in v
               for v in hub.queue.violations)
    assert events_at_detection, "violation not observed during the run"
    result = hub.queue.result()
    assert not result.ok


def test_clean_queue_run_has_no_violations():
    """Control: the same workload without the injected bug is clean."""
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=3, num_sequencer_nodes=3,
        seed=7,
    )
    hub = cluster.enable_monitoring()
    cluster.boot()
    env = cluster.env
    engine = cluster.engines["func-0"]
    q = queue_mod.BokiQueue(cluster.logbook(1, engine=engine), "clean-q",
                            num_shards=1)
    hub.attach(q)

    def producer():
        p = q.producer()
        for i in range(8):
            yield from p.push(f"msg-{i}")
            yield env.timeout(0.01)

    def consumer():
        c = q.consumer(0)
        for _ in range(8):
            value = yield from c.pop_wait(poll_interval=0.01, max_polls=50)
            if value is None:
                break

    procs = [env.process(producer(), name="p"),
             env.process(consumer(), name="c")]
    env.run_until(env.all_of(procs), limit=120.0)
    hub.finish()
    assert hub.queue.result().ok, hub.queue.violations
