"""Engine-level edge cases: batched reads, consistency waits, retries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import BokiCluster, BokiConfig
from repro.core.types import MetalogPosition
from repro.core.logbook import LogBookError


def make_cluster(**kwargs):
    cluster = BokiCluster(**kwargs)
    cluster.boot()
    return cluster


class TestReadRange:
    def test_range_returns_all_matching(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            seqnums = []
            for i in range(6):
                seqnums.append((yield from book.append({"i": i}, tags=[4])))
            records = yield from book.read_range(tag=4)
            return seqnums, [r.seqnum for r in records], [r.data["i"] for r in records]

        seqnums, got, values = c.drive(flow())
        assert got == seqnums
        assert values == list(range(6))

    def test_range_respects_bounds(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            seqnums = []
            for i in range(5):
                seqnums.append((yield from book.append({"i": i}, tags=[4])))
            records = yield from book.read_range(
                tag=4, min_seqnum=seqnums[1], max_seqnum=seqnums[3]
            )
            return [r.data["i"] for r in records]

        assert c.drive(flow()) == [1, 2, 3]

    def test_range_includes_cached_aux(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s = yield from book.append("x", tags=[4])
            yield from book.set_auxdata(s, "cached")
            records = yield from book.read_range(tag=4)
            return records[0].auxdata

        assert c.drive(flow()) == "cached"

    def test_range_from_non_indexing_engine(self):
        c = make_cluster(num_function_nodes=4, index_engines_per_log=2)
        non_indexer = next(n for n, e in c.engines.items() if not e.indexes(0))

        def flow():
            writer = c.logbook(1)
            for i in range(3):
                yield from writer.append({"i": i}, tags=[4])
            reader = c.logbook(1, engine=c.engine_of(non_indexer))
            records = yield from reader.read_range(tag=4)
            return [r.data["i"] for r in records]

        assert c.drive(flow()) == [0, 1, 2]

    def test_empty_range(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            return (yield from book.read_range(tag=99))

        assert c.drive(flow()) == []


class TestConsistencyWaits:
    def test_read_waits_for_index_catchup(self):
        """A reader holding a future metalog position must block until the
        index applies it — never see stale state (Figure 5)."""
        c = make_cluster(num_function_nodes=2, index_engines_per_log=2)

        def flow():
            writer = c.logbook(1, engine=c.engine_of("func-0"))
            yield from writer.append("visible", tags=[3])
            # Steal the writer's (advanced) position for a fresh reader on
            # the other engine: its read must return the record even if its
            # local index lags.
            reader = c.logbook(1, engine=c.engine_of("func-1"))
            reader._positions.update(writer._positions)
            record = yield from reader.read_next(tag=3, min_seqnum=0)
            return record.data

        assert c.drive(flow()) == "visible"

    def test_position_from_future_term_satisfied_after_reconfig(self):
        c = make_cluster(num_sequencer_nodes=6)

        def flow():
            book = c.logbook(1)
            yield from book.append("old")
            yield from c.controller.reconfigure()
            yield from book.append("new")
            # Position now references term 2; reading again is fine.
            tail = yield from book.check_tail()
            return tail.data

        assert c.drive(flow()) == "new"


class TestLogBookApi:
    def test_tag_zero_reserved_for_append(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            yield from book.append("x", tags=[0])

        with pytest.raises(LogBookError):
            c.drive(flow())

    def test_read_prev_bounds(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s1 = yield from book.append("a", tags=[2])
            s2 = yield from book.append("b", tags=[2])
            at_s1 = yield from book.read_prev(tag=2, max_seqnum=s1)
            below_s1 = yield from book.read_prev(tag=2, max_seqnum=s1 - 1)
            return at_s1.data, below_s1

        assert c.drive(flow()) == ("a", None)

    def test_multiple_tags_per_record(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s = yield from book.append("multi", tags=[5, 6, 7])
            via_5 = yield from book.read_next(tag=5, min_seqnum=0)
            via_7 = yield from book.read_next(tag=7, min_seqnum=0)
            return via_5.seqnum == s and via_7.seqnum == s

        assert c.drive(flow()) is True

    def test_large_tag_values(self):
        c = make_cluster()
        big_tag = (1 << 61) - 7

        def flow():
            book = c.logbook(1)
            yield from book.append("big", tags=[big_tag])
            record = yield from book.read_next(tag=big_tag, min_seqnum=0)
            return record.data

        assert c.drive(flow()) == "big"


class TestCacheBehavior:
    def test_second_read_hits_cache(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s = yield from book.append("data", tags=[2])
            engine = book.engine
            yield from book.read_next(tag=2, min_seqnum=s)
            hits_before = engine.cache.hits
            yield from book.read_next(tag=2, min_seqnum=s)
            return engine.cache.hits - hits_before

        assert c.drive(flow()) >= 1

    def test_each_read_returns_a_fresh_record(self):
        """A read hands back a record built for it alone: rebinding its
        ``auxdata`` reaches neither the engine's cache nor a later reader,
        whether the read was a storage fetch, a cache hit or a remote
        read served by the log's index engine."""
        c = make_cluster(num_function_nodes=3, index_engines_per_log=1)
        indexer = next(e for e in c.engines.values() if e.indexes(0))
        remote = next(e for e in c.engines.values() if not e.indexes(0))
        local_book, remote_book = c.logbook(1, engine=indexer), c.logbook(1, engine=remote)

        def flow():
            s = yield from local_book.append("data", tags=[2])
            yield from local_book.set_auxdata(s, {"view": 1})
            records, seen = [], []
            for book in (local_book, local_book, remote_book, remote_book):
                record = yield from book.read_next(tag=2, min_seqnum=s)
                records.append(record)
                seen.append(record.auxdata)
                record.auxdata = "rebound"
            return s, records, seen

        s, records, seen = c.drive(flow())
        assert (indexer.cache.hits, indexer.cache.misses) == (3, 1)
        assert seen == [{"view": 1}] * 4
        assert len({id(r) for r in records}) == 4
        assert all(r.auxdata == "rebound" and r.data == "data" for r in records)
        assert indexer.cache.lookup(s)[1] == {"view": 1}

    def test_list_tags_read_back_as_a_tuple(self):
        """Tags appended as a list come back as a tuple, whether the read
        fetched the record from storage or found it in the cache."""
        c = make_cluster()
        engine = next(iter(c.engines.values()))
        book = c.logbook(1, engine=engine)

        def flow():
            s = yield from book.append("data", tags=[2, 3])
            fetched = yield from book.read_next(tag=2, min_seqnum=s)
            cached = yield from book.read_next(tag=3, min_seqnum=s)
            return fetched, cached

        fetched, cached = c.drive(flow())
        assert (engine.cache.misses, engine.cache.hits) == (1, 1)
        for record in (fetched, cached):
            assert type(record.tags) is tuple and record.tags == (2, 3)

    def test_tiny_cache_still_correct(self):
        config = BokiConfig(cache_bytes=2048)
        c = make_cluster(config=config)

        def flow():
            book = c.logbook(1)
            for i in range(20):
                yield from book.append("x" * 500, tags=[2])
            records = yield from book.read_range(tag=2)
            return len(records)

        assert c.drive(flow()) == 20


class TestRecordMetadata:
    def test_dropped_once_the_record_is_ordered(self):
        """``(shard, local_id) -> (book, tags)`` is needed until the metalog
        orders the record, on the index engines that got it by message and
        on the shard owner that made it — and not a moment longer."""
        c = make_cluster(num_function_nodes=4, index_engines_per_log=2, seed=0)
        engines = list(c.engines.values())
        log_id = c.term.log_for_book(1)
        assert {e.indexes(log_id) for e in engines} == {True, False}

        def flow():
            books = [c.logbook(1, engine=e) for e in engines]
            for i in range(10):
                for book in books:
                    yield from book.append(f"r{i}", tags=[5])

        c.drive(flow())
        c.env.run(until=c.env.now + 0.002)  # the last entry reaches every subscriber
        for engine in engines:
            assert [s.meta for s in engine._states.values()] == [{}], engine.name
            if engine.indexes(log_id):
                assert len(engine.indices[log_id].query(1, 5, 0, 2**63, None, False)) == 40

    def test_late_metadata_of_an_ordered_record_is_not_kept(self):
        """The lost-``index.meta`` recovery fetches a shard's metadata from
        local id 0; what it (or the delayed message) brings for records
        already ordered must not pile up again."""
        c = make_cluster(num_function_nodes=2, index_engines_per_log=2, seed=0)
        c.net.partition("func-0", "func-1")  # index.meta from func-0 never arrives
        reader = c.engine_of("func-1")

        def flow():
            writer = c.logbook(1, engine=c.engine_of("func-0"))
            for i in range(3):
                yield from writer.append(f"r{i}", tags=[5])
                yield c.env.timeout(0.02)  # func-1 stalls, then fetches from storage
            record = yield from c.logbook(1, engine=reader).read_prev(tag=5)
            return record.data

        assert c.drive(flow(), limit=120.0) == "r2"
        assert [s.meta for s in reader._states.values()] == [{}]
        c.net.heal("func-0", "func-1")
        reader._h_index_meta({"term": 1, "log_id": c.term.log_for_book(1), "shard": "func-0",
                              "local_id": 0, "book_id": 1, "tags": (5,)})
        assert [s.meta for s in reader._states.values()] == [{}]


#: Three engines append at once while partitioned from func-3, so func-3
#: misses their metadata and fetches three shards' from storage; prints
#: the fetches it sends, in order.
META_FETCH_PROBE = """
import json
from repro.core import BokiCluster
from repro.sim.seam import subscribe

c = BokiCluster(num_function_nodes=4, index_engines_per_log=4, seed=0)
c.boot()
writers = ("func-0", "func-1", "func-2")
for writer in writers:
    c.net.partition(writer, "func-3")
sent = []
subscribe(c.net, "message_sent", lambda msg, is_rpc: sent.append(
    (msg.method, msg.payload["shard"])) if msg.method == "storage.fetch_meta" else None)
for writer in writers:
    c.env.process(c.logbook(1, engine=c.engine_of(writer)).append(writer, tags=[5]))
c.env.run(until=c.env.now + 0.2)
print(json.dumps(sent))
"""


def test_metadata_fetches_go_out_in_the_same_order_under_every_hash_seed():
    src = str(Path(__file__).resolve().parents[2] / "src")
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", META_FETCH_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert len({shard for _, shard in runs[0]}) >= 2
    assert runs[1] == runs[0] and runs[2] == runs[0]


class TestAppendRetry:
    def test_append_retries_when_storage_briefly_down(self):
        """A storage node that misses a replicate and comes back lets the
        engine's retry loop complete the append without reconfiguration."""
        c = make_cluster(num_function_nodes=1, num_storage_nodes=3)

        def flow():
            book = c.logbook(1)
            target = c.storage_nodes[0]
            target.node.crash()

            def revive():
                yield c.env.timeout(0.02)
                target.node.restart()

            c.env.process(revive())
            seqnum = yield from book.append("persistent")
            record = yield from book.check_tail()
            return record.data

        assert c.drive(flow(), limit=120.0) == "persistent"


class TestStorageReadFailover:
    @pytest.mark.parametrize("ndata", [2, 4])
    def test_failed_storage_read_reaches_the_live_replica(self, ndata):
        """With an even number of backers the old retry loop stepped the
        rotation by two per try and kept hitting the dead replica."""
        c = make_cluster(
            num_function_nodes=2, num_storage_nodes=ndata,
            config=BokiConfig(ndata=ndata),
        )
        engine = c.engines["func-0"]
        book = c.logbook(1, engine=engine)
        seqnum = c.drive(book.append("payload", tags=[4]))
        engine.cache.drop(seqnum)  # force the read to storage
        log_id = c.term.log_for_book(1)
        backers = c.term.assignment(log_id).shard_storage[engine.name]
        assert len(backers) == ndata
        first_pick = backers[engine._storage_rr % ndata]
        c.net.node(first_pick).crash()
        rotation = engine._storage_rr

        record = c.drive(book.read_next(tag=4, min_seqnum=seqnum))
        assert record.data == "payload"
        assert engine._storage_rr == rotation + 1  # one step per call, not per try
