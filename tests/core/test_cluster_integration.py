"""Integration tests: full Boki cluster, end to end."""

import pytest

from repro.core import BokiCluster, BokiConfig
from repro.core.types import seqnum_log_id, seqnum_term


def make_cluster(**kwargs):
    cluster = BokiCluster(**kwargs)
    cluster.boot()
    return cluster


class TestAppendRead:
    def test_append_returns_increasing_seqnums(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            seqnums = []
            for i in range(5):
                seqnums.append((yield from book.append({"i": i})))
            return seqnums

        seqnums = c.drive(flow())
        assert seqnums == sorted(seqnums)
        assert len(set(seqnums)) == 5

    def test_read_next_iterates_in_order(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            for i in range(4):
                yield from book.append({"i": i}, tags=[9])
            records = yield from book.read_range(tag=9)
            return [r.data["i"] for r in records]

        assert c.drive(flow()) == [0, 1, 2, 3]

    def test_read_prev_and_check_tail(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            first = yield from book.append("first", tags=[4])
            last = yield from book.append("last", tags=[4])
            tail = yield from book.check_tail(tag=4)
            prev = yield from book.read_prev(tag=4, max_seqnum=last - 1)
            return tail.data, prev.data

        assert c.drive(flow()) == ("last", "first")

    def test_tag_selective_reads(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            yield from book.append("a", tags=[1])
            yield from book.append("b", tags=[2])
            yield from book.append("c", tags=[1])
            only_1 = yield from book.read_range(tag=1)
            only_2 = yield from book.read_range(tag=2)
            return [r.data for r in only_1], [r.data for r in only_2]

        assert c.drive(flow()) == (["a", "c"], ["b"])

    def test_empty_book_reads_none(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            r = yield from book.read_next(tag=0, min_seqnum=0)
            t = yield from book.check_tail()
            return r, t

        assert c.drive(flow()) == (None, None)

    def test_books_are_isolated(self):
        c = make_cluster()

        def flow():
            book_a = c.logbook(1)
            book_b = c.logbook(2)
            yield from book_a.append("for-a")
            yield from book_b.append("for-b")
            a = yield from book_a.check_tail()
            b = yield from book_b.check_tail()
            return a.data, b.data

        assert c.drive(flow()) == ("for-a", "for-b")

    def test_concurrent_appenders_no_seqnum_collision(self):
        c = make_cluster(num_function_nodes=4)
        results = []

        def appender(engine_name):
            book = c.logbook(1, engine=c.engine_of(engine_name))
            seqnums = []
            for i in range(10):
                seqnums.append((yield from book.append({"from": engine_name})))
            results.append(seqnums)

        procs = [
            c.env.process(appender(f"func-{i}")) for i in range(4)
        ]
        for proc in procs:
            c.env.run_until(proc, limit=120.0)
        all_seqnums = [s for group in results for s in group]
        assert len(set(all_seqnums)) == 40

    def test_total_order_agreed_across_engines(self):
        """Readers on different engines see the same record order."""
        c = make_cluster(num_function_nodes=4, index_engines_per_log=4)

        def write():
            for i in range(8):
                book = c.logbook(1, engine=c.engine_of(f"func-{i % 4}"))
                yield from book.append({"i": i}, tags=[5])

        c.drive(write())

        def read_from(name):
            book = c.logbook(1, engine=c.engine_of(name))
            records = yield from book.read_range(tag=5)
            return [r.seqnum for r in records]

        orders = [c.drive(read_from(f"func-{i}")) for i in range(4)]
        assert all(o == orders[0] for o in orders)
        assert len(orders[0]) == 8


class TestConsistency:
    def test_read_your_writes_single_function(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            seqnum = yield from book.append("mine", tags=[3])
            record = yield from book.read_next(tag=3, min_seqnum=seqnum)
            return record.data

        assert c.drive(flow()) == "mine"

    def test_child_inherits_parent_view(self):
        """A child function must see its parent's appends (§4.4)."""
        c = make_cluster(num_function_nodes=4, index_engines_per_log=4)
        seen = []

        def child(ctx, arg):
            book = c.logbook_for(ctx)
            record = yield from book.check_tail(tag=8)
            seen.append(record.data if record else None)
            return None

        def parent(ctx, arg):
            book = c.logbook_for(ctx)
            yield from book.append("parent-write", tags=[8])
            yield from ctx.invoke("child")
            return None

        c.register_function("child", child)
        c.register_function("parent", parent)

        def flow():
            yield from c.invoke("parent", book_id=1)

        c.drive(flow())
        assert seen == ["parent-write"]

    def test_parent_absorbs_child_position(self):
        """After a child returns, the parent sees the child's appends."""
        c = make_cluster(num_function_nodes=4, index_engines_per_log=4)
        seen = []

        def child(ctx, arg):
            book = c.logbook_for(ctx)
            yield from book.append("child-write", tags=[8])
            return None

        def parent(ctx, arg):
            book = c.logbook_for(ctx)
            yield from ctx.invoke("child")
            record = yield from book.check_tail(tag=8)
            seen.append(record.data if record else None)
            return None

        c.register_function("child", child)
        c.register_function("parent", parent)

        def flow():
            yield from c.invoke("parent", book_id=1)

        c.drive(flow())
        assert seen == ["child-write"]

    @pytest.mark.parametrize("first_child", [False, True])
    def test_a_child_after_a_child_sees_the_parents_later_append(self, first_child):
        """A handle bound before a child call keeps advancing the positions
        the parent's next child inherits: absorbing the first child must not
        swap the parent's map for a copy the handle no longer writes."""
        c = make_cluster()
        nodes = {f.name: f for f in c.function_nodes}
        c.gateway.scheduler = lambda fn, book, pool: nodes[
            "func-0" if fn == "parent" else "func-1"]
        # func-1's index lags the parent's append by 5 ms, so only the
        # inherited position makes the reader wait for it.
        c.net.set_link_fault(c.term.logs[0].primary, "func-1", delay=5e-3,
                             symmetric=False)

        def noop(ctx, arg):
            yield c.env.timeout(0)

        def reader(ctx, arg):
            record = yield from c.logbook_for(ctx).read_prev(tag=7)
            return None if record is None else record.seqnum

        def parent(ctx, arg):
            book = c.logbook_for(ctx)
            if first_child:
                yield from ctx.invoke("noop")
            seqnum = yield from book.append("x", tags=[7])
            return seqnum, (yield from ctx.invoke("reader"))

        for name, fn in (("noop", noop), ("reader", reader), ("parent", parent)):
            c.register_function(name, fn)
        appended, read = c.drive(c.invoke("parent", book_id=1))
        assert read == appended


class TestVirtualization:
    def test_books_spread_over_logs(self):
        c = make_cluster(num_logs=4, num_storage_nodes=4)
        logs_used = {c.term.log_for_book(b) for b in range(200)}
        assert logs_used == {0, 1, 2, 3}

    def test_many_books_roundtrip_multi_log(self):
        c = make_cluster(num_logs=2, num_storage_nodes=4)

        def flow():
            out = {}
            for book_id in range(10):
                book = c.logbook(book_id)
                yield from book.append({"book": book_id})
                tail = yield from book.check_tail()
                out[book_id] = tail.data["book"]
            return out

        result = c.drive(flow())
        assert result == {b: b for b in range(10)}

    def test_seqnum_embeds_log_id(self):
        c = make_cluster(num_logs=4, num_storage_nodes=4)

        def flow():
            book = c.logbook(5)
            return (yield from book.append("x"))

        seqnum = c.drive(flow())
        assert seqnum_log_id(seqnum) == c.term.log_for_book(5)
        assert seqnum_term(seqnum) == 1

    def test_the_log_count_leaves_a_shared_config_as_it_was(self):
        """The log count is the cluster's, not the config's: a config
        handed to two clusters reaches the second one unchanged."""
        cfg = BokiConfig()
        c = make_cluster(num_logs=2, num_storage_nodes=4, config=cfg)
        assert cfg == BokiConfig()
        assert len(c.term.logs) == 2


class TestAuxData:
    def test_aux_roundtrip_local(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            seqnum = yield from book.append("data", tags=[2])
            yield from book.set_auxdata(seqnum, {"view": 42})
            record = yield from book.read_next(tag=2, min_seqnum=seqnum)
            return record.auxdata

        assert c.drive(flow()) == {"view": 42}

    def test_aux_not_shared_across_engines_without_backup(self):
        """Aux data is per-node cache only (§4.4): another engine's reads
        do not see it (no exchange between nodes)."""
        c = make_cluster(num_function_nodes=2, index_engines_per_log=2)

        def flow():
            book_a = c.logbook(1, engine=c.engine_of("func-0"))
            seqnum = yield from book_a.append("data", tags=[2])
            yield from book_a.set_auxdata(seqnum, "aux-on-0")
            book_b = c.logbook(1, engine=c.engine_of("func-1"))
            record = yield from book_b.read_next(tag=2, min_seqnum=seqnum)
            return record.auxdata

        assert c.drive(flow()) is None

    def test_aux_backup_on_storage(self):
        """With aux backup enabled (Table 7), other engines recover aux
        data from storage nodes on cache miss."""
        config = BokiConfig(aux_backup=True)
        c = make_cluster(num_function_nodes=2, index_engines_per_log=2, config=config)

        def flow():
            book_a = c.logbook(1, engine=c.engine_of("func-0"))
            seqnum = yield from book_a.append("data", tags=[2])
            yield from book_a.set_auxdata(seqnum, "backed-up")
            yield c.env.timeout(0.01)  # let the backup propagate
            book_b = c.logbook(1, engine=c.engine_of("func-1"))
            record = yield from book_b.read_next(tag=2, min_seqnum=seqnum)
            return record.auxdata

        assert c.drive(flow()) == "backed-up"


class TestTrim:
    def test_trim_removes_from_reads(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s1 = yield from book.append("old", tags=[2])
            s2 = yield from book.append("new", tags=[2])
            yield from book.trim(s1, tag=2)
            yield c.env.timeout(0.05)  # let the trim order + apply
            first = yield from book.read_next(tag=2, min_seqnum=0)
            return first.data

        assert c.drive(flow()) == "new"

    def test_trim_whole_book(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            yield from book.append("a", tags=[1])
            s = yield from book.append("b", tags=[2])
            yield from book.trim(s)  # tag 0: everything
            yield c.env.timeout(0.05)
            return (yield from book.read_next(tag=0, min_seqnum=0))

        assert c.drive(flow()) is None

    def test_storage_reclaims_trimmed(self):
        c = make_cluster()

        def flow():
            book = c.logbook(1)
            s = yield from book.append("x", tags=[1])
            yield from book.trim(s)
            yield c.env.timeout(0.05)

        c.drive(flow())
        assert sum(s.trimmed_count for s in c.storage_nodes) > 0


class TestRemoteEngineReads:
    def test_non_indexing_engine_reads_remotely(self):
        c = make_cluster(num_function_nodes=4, index_engines_per_log=2)
        # func-2 / func-3 do not index log 0.
        non_indexer = next(
            name for name, e in c.engines.items() if not e.indexes(0)
        )

        def flow():
            writer = c.logbook(1, engine=c.any_engine())
            seqnum = yield from writer.append("remote-me", tags=[3])
            reader = c.logbook(1, engine=c.engine_of(non_indexer))
            record = yield from reader.read_next(tag=3, min_seqnum=0)
            return record.data

        assert c.drive(flow()) == "remote-me"
        assert sum(e.remote_reads for e in c.engines.values()) == 1


class TestStorageRestart:
    def test_a_restarted_storage_node_rejoins_its_term_by_itself(self):
        """Records survive a storage crash, so a restarted node re-installs
        the term it had and reports again: an append that needs its
        report is ordered without any caller re-configuring it."""
        c = make_cluster(num_function_nodes=1, num_storage_nodes=3)
        book = c.logbook(1)
        c.drive(book.append("before"))
        victim = c.storage_nodes[0]
        victim.node.crash()
        c.env.run(until=c.env.now + 1e-3)
        victim.node.restart()
        # ndata = 3 backers: every record needs all three reports.
        seqnum = c.drive(book.append("after"), limit=c.env.now + 1.0)
        assert seqnum_term(seqnum) == 1


class TestReconfiguration:
    def test_term_changes_and_appends_continue(self):
        c = make_cluster(num_sequencer_nodes=6)

        def flow():
            book = c.logbook(1)
            s1 = yield from book.append("before")
            yield from c.controller.reconfigure(
                sequencer_names=["seq-3", "seq-4", "seq-5"]
            )
            s2 = yield from book.append("after")
            return s1, s2

        s1, s2 = c.drive(flow())
        assert seqnum_term(s1) == 1
        assert seqnum_term(s2) == 2
        assert s2 > s1

    def test_records_readable_across_terms(self):
        c = make_cluster(num_sequencer_nodes=6)

        def flow():
            book = c.logbook(1)
            yield from book.append("old-term", tags=[2])
            yield from c.controller.reconfigure()
            yield from book.append("new-term", tags=[2])
            records = yield from book.read_range(tag=2)
            return [r.data for r in records]

        assert c.drive(flow()) == ["old-term", "new-term"]

    def test_append_in_flight_during_reconfig_retries(self):
        """An append racing the seal must eventually complete (in the old
        term if ordered before sealing, else retried into the new term)."""
        c = make_cluster(num_sequencer_nodes=6)
        results = []

        def appender():
            book = c.logbook(1)
            for i in range(20):
                results.append((yield from book.append({"i": i})))

        def reconfigurer():
            yield c.env.timeout(0.004)
            yield from c.controller.reconfigure(
                sequencer_names=["seq-3", "seq-4", "seq-5"]
            )

        pa = c.env.process(appender())
        pr = c.env.process(reconfigurer())
        c.env.run_until(pa, limit=120.0)
        c.env.run_until(pr, limit=120.0)
        assert len(results) == 20
        assert results == sorted(results)
        assert len(set(results)) == 20

    def test_sequencer_crash_detected_and_recovered(self):
        """With sessions on, killing the primary sequencer triggers
        automatic reconfiguration and appends keep working."""
        c = BokiCluster(num_sequencer_nodes=6, use_coord_sessions=True)
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("pre-crash")
            primary = c.term.assignment(0).primary
            node = c.controller.components[primary].node
            node.crash()
            # Session timeout (2s) + sweep + reconfig.
            yield c.env.timeout(6.0)
            seqnum = yield from book.append("post-crash")
            return seqnum

        seqnum = c.drive(flow(), limit=200.0)
        assert seqnum_term(seqnum) == 2
        assert c.controller.reconfig_count == 1

    def test_storage_crash_recovered(self):
        c = BokiCluster(
            num_storage_nodes=5, num_sequencer_nodes=3, use_coord_sessions=True
        )
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("pre")
            c.storage_nodes[0].node.crash()
            yield c.env.timeout(6.0)
            yield from book.append("post")
            tail = yield from book.check_tail()
            return tail.data

        assert c.drive(flow(), limit=200.0) == "post"
        assert c.controller.reconfig_count >= 1
