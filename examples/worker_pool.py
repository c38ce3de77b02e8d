"""Elastic worker pool: shard leases + durable data structures.

Run:  python examples/worker_pool.py

An ephemeral fleet of worker functions processes a shared job queue. Each
worker *leases* a CSMR queue shard through a log-backed lock (the shared
log linearizes the race — two workers can never own the same shard), pulls
jobs from it, and tallies results into durable structures (a counter and a
map) that survive every worker's death. A late "replacement" worker proves
cold starts resume cleanly from the log.
"""

from repro.core import BokiCluster
from repro.faas import FunctionContext
from repro.libs.bokiflow import BokiFlowRuntime, WorkflowEnv
from repro.libs.bokiqueue import BokiQueue
from repro.libs.bokiqueue.leases import acquire_shard_wait
from repro.libs.bokistore import BokiStore
from repro.libs.bokistore.structures import DurableCounter, DurableMap


def main():
    cluster = BokiCluster(num_function_nodes=4, num_storage_nodes=3)
    cluster.boot()
    env = cluster.env
    runtime = BokiFlowRuntime(cluster)

    queue = BokiQueue(cluster.logbook(book_id=31), "jobs", num_shards=2)
    store = BokiStore(cluster.logbook(book_id=31))
    processed = DurableCounter(store, "processed")
    in_flight = DurableCounter(store, "in-flight")
    results = DurableMap(store, "results")

    def lease_env(worker_id):
        from repro.core.hashing import stable_hash

        fnode = cluster.function_nodes[stable_hash(worker_id) % 4]
        ctx = FunctionContext(node=fnode.node, gateway=None, book_id=31)
        return WorkflowEnv(runtime, ctx, worker_id)

    def producer():
        handle = queue.producer()
        for i in range(10):
            yield from handle.push({"job": f"job-{i}", "n": i})
        print(f"[{env.now*1e3:7.2f}ms] producer queued 10 jobs over 2 shards")

    def worker(worker_id, max_jobs):
        """Lease a shard, drain it, release; rotate to another shard while
        work remains (a worker must not camp on a drained shard while jobs
        sit elsewhere)."""
        handled = 0
        idle_rounds = 0
        while handled < max_jobs and idle_rounds < queue.num_shards:
            lease = yield from acquire_shard_wait(
                queue, lease_env(worker_id), worker_id, start_shard=idle_rounds
            )
            if lease is None:
                print(f"{worker_id}: no shard available")
                break
            print(f"[{env.now*1e3:7.2f}ms] {worker_id} leased shard {lease.shard}")
            drained_any = False
            while handled < max_jobs:
                job = yield from lease.consumer.pop_wait(poll_interval=0.002, max_polls=25)
                if job is None:
                    break
                yield from in_flight.increment()
                yield from results.put(job["job"], job["n"] * job["n"])
                yield from processed.increment()
                yield from in_flight.decrement()
                handled += 1
                drained_any = True
            yield from lease.release()
            print(f"[{env.now*1e3:7.2f}ms] {worker_id} released shard {lease.shard} "
                  f"({handled} jobs so far)")
            idle_rounds = 0 if drained_any else idle_rounds + 1
        return handled

    # Two workers take the two shards; worker-a "dies" early (processes
    # only 2 jobs); a replacement leases its freed shard and finishes.
    procs = [
        env.process(producer()),
        env.process(worker("worker-a", max_jobs=2)),
        env.process(worker("worker-b", max_jobs=10)),
    ]
    for proc in procs:
        env.run_until(proc, limit=120.0)
    replacement = env.process(worker("worker-c", max_jobs=10))
    env.run_until(replacement, limit=120.0)

    def report():
        total = yield from processed.get()
        items = yield from results.items()
        assert (yield from results.contains("job-9"))
        assert (yield from in_flight.get()) == 0
        return total, items

    total, items = cluster.drive(report())
    print(f"\njobs processed (durable counter): {total}")
    print(f"squares computed (durable map): {dict(items)}")
    assert total == 10
    assert len(items) == 10


if __name__ == "__main__":
    main()
