"""Resilience machinery: lost metadata messages, stalled subscriptions."""

import pytest

from repro.core import BokiCluster
from repro.core.types import seqnum_term
from tests.core.test_event_budget import _sends


class TestIndexMetaLoss:
    def test_lost_meta_messages_recovered_from_storage(self):
        """The appending engine ships record metadata to index engines as
        one-way messages; if they are lost (here: a partition between the
        appender and an index engine), the index engine's subscription
        stalls and its maintenance loop must fetch the metadata from
        storage nodes so reads eventually succeed."""
        c = BokiCluster(num_function_nodes=2, num_storage_nodes=3, index_engines_per_log=2)
        c.boot()
        writer_name, reader_name = "func-0", "func-1"
        # Cut ONLY the engine-to-engine link; both still reach storage and
        # sequencers.
        c.net.partition(writer_name, reader_name)

        def flow():
            writer = c.logbook(1, engine=c.engine_of(writer_name))
            yield from writer.append("needs-meta", tags=[3])
            # Give the reader's maintenance loop time to notice the stall
            # and fetch metadata from storage (STALL_FETCH_DELAY + poll).
            yield c.env.timeout(0.05)
            reader = c.logbook(1, engine=c.engine_of(reader_name))
            record = yield from reader.read_next(tag=3, min_seqnum=0)
            return record.data if record else None

        assert c.drive(flow(), limit=120.0) == "needs-meta"

    def test_reader_on_writer_engine_unaffected_by_meta_loss(self):
        c = BokiCluster(num_function_nodes=2, num_storage_nodes=3, index_engines_per_log=2)
        c.boot()
        c.net.partition("func-0", "func-1")

        def flow():
            book = c.logbook(1, engine=c.engine_of("func-0"))
            yield from book.append("local", tags=[3])
            record = yield from book.read_next(tag=3, min_seqnum=0)
            return record.data

        assert c.drive(flow(), limit=120.0) == "local"


class TestTailDropWatchdog:
    def test_a_quiet_spell_is_not_a_lost_broadcast(self):
        """The watchdog times how long an unordered append has waited with
        no progress. On a log that was merely idle for longer than
        TAIL_FETCH_DELAY, the next append's pending entry must not look
        like a lost ``metalog.entry``: no sequencer poll, no stall mark."""
        c = BokiCluster(num_function_nodes=1, num_storage_nodes=3, seed=0)
        c.boot()
        polls = _sends(c, "seq.fetch_entries")
        book = c.logbook(1)

        def flow():
            for i in range(20):
                yield from book.append(f"spaced-{i}")
                yield c.env.timeout(20.3e-3)

        c.drive(flow(), limit=5.0)
        assert polls == []
        assert all(s.stalled_since is None for s in c.any_engine()._states.values())

    def test_a_failed_tail_poll_is_repeated(self):
        """The engine is cut off from every sequencer, so the broadcast
        ordering its append is lost and so is its first tail poll. The
        watchdog keeps polling every TAIL_FETCH_DELAY, and the append
        returns soon after the partition heals."""
        c = BokiCluster(num_function_nodes=1, num_storage_nodes=3, seed=0)
        c.boot()
        sequencers = [q.name for q in c.sequencer_nodes]
        for name in sequencers:
            c.net.partition("func-0", name)
        polls = _sends(c, "seq.fetch_entries")

        def heal():
            yield c.env.timeout(0.3)
            for name in sequencers:
                c.net.heal("func-0", name)

        c.env.process(heal())
        c.drive(c.logbook(1).append("cut-off"), limit=2.0)
        assert 0.3 < c.env.now < 0.4
        assert len(polls) > 1

    def test_a_sealed_term_leaves_the_watchdog_parked(self):
        """An append that a seal aborts is retried in the next term. Once
        it has returned, the sealed term's state is not stalled and an
        idle engine's watchdog parks."""
        c = BokiCluster(num_sequencer_nodes=4, use_coord_sessions=True)
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("pre-crash")
            primary = c.term.assignment(0).primary
            c.controller.components[primary].node.crash()
            seqnum = yield from book.append("retried")
            yield c.env.timeout(0.5)
            return seqnum

        assert seqnum_term(c.drive(flow(), limit=30.0)) == 2
        for engine in c.engines.values():
            assert all(s.stalled_since is None for s in engine._states.values())
            assert engine._watchdog._parked is not None, engine.name


class TestStorageReplicaLoss:
    def test_read_falls_over_to_surviving_replicas(self):
        """A storage replica crashing after a record was stored must not
        break reads: the engine rotates to surviving backers."""
        c = BokiCluster(num_function_nodes=1, num_storage_nodes=3)
        c.boot()

        def flow():
            book = c.logbook(1)
            seqnum = yield from book.append("replicated", tags=[2])
            # Drop the record from the engine cache so the read must go to
            # storage, then kill one backer.
            c.any_engine().cache.drop(seqnum)
            backers = c.term.assignment(0).shard_storage["func-0"]
            c.controller.components[backers[0]].node.crash()
            record = yield from book.read_next(tag=2, min_seqnum=0)
            return record.data

        assert c.drive(flow(), limit=120.0) == "replicated"


class TestMidRunEngineDeath:
    def test_surviving_engines_keep_appending(self):
        """An engine (function node) crash mid-run: other engines' appends
        continue once reconfiguration removes the dead shard from the
        progress computation."""
        c = BokiCluster(
            num_function_nodes=3, num_storage_nodes=3, use_coord_sessions=True
        )
        c.boot()

        def flow():
            book0 = c.logbook(1, engine=c.engine_of("func-0"))
            yield from book0.append("before-crash")
            c.function_nodes[2].node.crash()
            yield c.env.timeout(6.0)  # failure detection + reconfig
            yield from book0.append("after-crash")
            records = yield from book0.read_range()
            return [r.data for r in records]

        data = c.drive(flow(), limit=200.0)
        assert data == ["before-crash", "after-crash"]
        assert c.controller.reconfig_count >= 1
