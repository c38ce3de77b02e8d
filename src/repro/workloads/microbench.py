"""LogBook microbenchmarks (§7.1, §7.5).

- append-only: each client loops appending 1 KB records to a LogBook
  (Table 2a/2b throughput scaling, Table 8, Figure 10/14 timelines);
- append-and-read: each client appends then reads the record back four
  times (Table 3 read latencies).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.core.cluster import BokiCluster
from repro.core.logbook import LogBook
from repro.sim.kernel import Interrupt
from repro.sim.metrics import SampleWindow
from repro.sim.randvar import weighted_choice
from repro.workloads.harness import RunResult, run_closed_loop

RECORD_1KB = "x" * 1024
#: Table 3's cycle: one append, then this many reads of the record.
READS_PER_APPEND = 4


def append_only(
    cluster: BokiCluster,
    num_clients: int,
    duration: float,
    book_ids: Optional[List[int]] = None,
    book_weights: Optional[List[float]] = None,
    logbook_factory: Optional[Callable[[int, int], LogBook]] = None,
) -> RunResult:
    """Closed-loop append throughput.

    ``book_ids``/``book_weights`` spread appends over many LogBooks
    (Table 2b uniform, Table 8 Zipf); default is a single book. A custom
    ``logbook_factory(client_index, book_id)`` swaps the placement policy
    (Table 8's fixed sharding)."""
    book_ids = book_ids or [1]
    rng = cluster.streams.stream("append-only-books")
    engines = list(cluster.engines.values())

    def make_op(client: int, measure) -> Callable[[], Generator]:
        engine = engines[client % len(engines)]
        books: Dict[int, LogBook] = {}

        def one_append() -> Generator:
            if book_weights is not None:
                book_id = book_ids[weighted_choice(rng, book_weights)]
            elif len(book_ids) > 1:
                book_id = book_ids[rng.randrange(len(book_ids))]
            else:
                book_id = book_ids[0]
            book = books.get(book_id)
            if book is None:
                if logbook_factory is not None:
                    book = logbook_factory(client, book_id)
                else:
                    book = cluster.logbook(book_id, engine=engine)
                books[book_id] = book
            yield from book.append(RECORD_1KB)

        return one_append

    return run_closed_loop(cluster.env, make_op, num_clients, duration, obs=cluster.obs)


def append_and_read(
    cluster: BokiCluster,
    num_clients: int,
    duration: float,
    force_remote_engine: bool = False,
    evict_between_reads: bool = False,
) -> Dict[str, RunResult]:
    """The Table 3 workload: append one record, read it back
    ``READS_PER_APPEND`` times.

    Returns separate recorders for append and read latencies. With
    ``force_remote_engine`` the reading LogBook is bound to an engine that
    does *not* index the log; with ``evict_between_reads`` the record is
    dropped from the local cache before each read (the cache-miss row)."""
    engines = list(cluster.engines.values())
    env = cluster.env

    def make_op(client: int, measure) -> Callable[[], Generator]:
        log_id = cluster.term.log_for_book(1)
        if force_remote_engine:
            pool = [e for e in engines if not e.indexes(log_id)]
            if not pool:
                raise ValueError("no non-indexing engine; lower index_engines_per_log")
        else:
            # The local-read rows of Table 3 run functions on nodes whose
            # engine indexes the log (the scheduler's locality optimization).
            pool = [e for e in engines if e.indexes(log_id)] or engines
        engine = pool[client % len(pool)]
        book = cluster.logbook(1, engine=engine)
        tag = 100 + client

        def one_cycle() -> Generator:
            started = env.now
            seqnum = yield from book.append(RECORD_1KB, tags=[tag])
            measure("append", started)
            for _ in range(READS_PER_APPEND):
                if evict_between_reads:
                    for e in engines:
                        e.cache.drop(seqnum)
                started = env.now
                yield from book.read_next(tag=tag, min_seqnum=seqnum)
                measure("read", started)

        return one_cycle

    result = run_closed_loop(env, make_op, num_clients, duration, obs=cluster.obs)
    appends, reads = result.extra["append"], result.extra["read"]
    return {
        "cycle": result,
        "append": RunResult(appends.count, duration, appends),
        "read": RunResult(reads.count, duration, reads),
    }


def append_latency_timeline(
    cluster: BokiCluster,
    num_clients: int,
    duration: float,
    read_ratio: int = 0,
) -> Dict[str, SampleWindow]:
    """Run appends (optionally mixed with check-tail reads at
    1:``read_ratio``) for ``duration`` from now and record per-op
    (completion time relative to the call, latency) series — the raw
    data behind Figures 10 and 14. Every op is recorded: a timeline has
    no warm-up."""
    env = cluster.env
    appends = SampleWindow()
    reads = SampleWindow()
    engines = list(cluster.engines.values())
    t0 = env.now
    t_end = t0 + duration
    stop = env.timeout(duration)

    def client(index: int) -> Generator:
        book = cluster.logbook(1, engine=engines[index % len(engines)])
        i = 0
        try:
            while env.now < t_end:
                started = env.now
                if read_ratio and i % (read_ratio + 1) != 0:
                    yield from book.check_tail()
                    reads.record(env.now - t0, env.now - started)
                else:
                    yield from book.append(RECORD_1KB)
                    appends.record(env.now - t0, env.now - started)
                i += 1
        except Interrupt:
            return

    procs = [env.process(client(i), name=f"tl-client-{i}") for i in range(num_clients)]
    env.run_until(stop, limit=t0 + duration * 50 + 120.0)
    for proc in procs:
        if proc.is_alive:
            proc.interrupt("done")
    return {"append": appends, "read": reads}
