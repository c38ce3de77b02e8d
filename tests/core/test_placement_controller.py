"""Tests for placement building and the controller's failure paths."""

import pytest

from repro.core import BokiCluster, BokiConfig
from repro.core.controller import ReconfigurationFailed
from repro.core.placement import build_term
from repro.core.types import MAX_POS, pack_seqnum


class TestPlacement:
    def setup_method(self):
        self.config = BokiConfig(ndata=3, nmeta=3)
        self.engines = [f"e{i}" for i in range(8)]
        self.storage = [f"s{i}" for i in range(6)]
        self.sequencers = [f"q{i}" for i in range(3)]

    def build(self, num_logs=1, **kwargs):
        return build_term(
            self.config, 1, self.engines, self.storage, self.sequencers, num_logs, **kwargs
        )

    def test_every_engine_owns_a_shard(self):
        term = self.build()
        for asg in term.logs.values():
            assert set(asg.shards) == set(self.engines)

    def test_every_shard_has_ndata_backers(self):
        term = self.build(num_logs=2)
        for asg in term.logs.values():
            for shard, backers in asg.shard_storage.items():
                assert len(backers) == 3
                assert len(set(backers)) == 3

    def test_sequencer_count_and_primary(self):
        term = self.build()
        asg = term.assignment(0)
        assert len(asg.sequencers) == 3
        assert asg.primary in asg.sequencers

    def test_index_engines_default_four(self):
        term = self.build()
        assert len(term.assignment(0).index_engines) == 4

    def test_index_engines_override(self):
        term = self.build(index_engines_per_log=2)
        assert len(term.assignment(0).index_engines) == 2

    def test_subscribers_cover_everything(self):
        term = self.build()
        asg = term.assignment(0)
        subs = set(asg.subscribers())
        assert set(asg.shards) <= subs
        assert set(asg.index_engines) <= subs
        assert set(asg.storage_nodes()) <= subs

    def test_deterministic(self):
        a = self.build(num_logs=2)
        b = self.build(num_logs=2)
        assert a.logs[1].shard_storage == b.logs[1].shard_storage

    def test_books_map_to_valid_logs(self):
        term = self.build(num_logs=4)
        for book in range(100):
            assert term.log_for_book(book) in term.logs

    def test_insufficient_resources_rejected(self):
        with pytest.raises(ValueError):
            build_term(self.config, 1, [], self.storage, self.sequencers, 1)
        with pytest.raises(ValueError):
            build_term(self.config, 1, self.engines, ["s0"], self.sequencers, 1)
        with pytest.raises(ValueError):
            build_term(self.config, 1, self.engines, self.storage, ["q0"], 1)
        with pytest.raises(ValueError):
            build_term(self.config, 1, self.engines, self.storage, self.sequencers, 0)


class TestControllerFailures:
    def test_seal_fails_without_quorum(self):
        """If a quorum of sequencers is unreachable, sealing must fail
        loudly rather than silently losing the term."""
        c = BokiCluster(num_sequencer_nodes=3)
        c.boot()
        for seq in c.sequencer_nodes[:2]:
            seq.node.crash()

        def flow():
            yield from c.controller.reconfigure()

        with pytest.raises(ReconfigurationFailed):
            c.drive(flow(), limit=60.0)

    def test_seal_succeeds_with_one_dead_secondary(self):
        c = BokiCluster(num_sequencer_nodes=4)
        c.boot()
        asg = c.term.assignment(0)
        secondary = next(s for s in asg.sequencers if s != asg.primary)
        c.controller.components[secondary].node.crash()

        def flow():
            term = yield from c.controller.reconfigure()
            return term.term_id

        assert c.drive(flow(), limit=60.0) == 2

    def test_consecutive_reconfigurations(self):
        c = BokiCluster(num_sequencer_nodes=3)
        c.boot()

        def flow():
            book = c.logbook(1)
            for round_ in range(3):
                yield from book.append(f"round-{round_}")
                yield from c.controller.reconfigure()
            records = yield from book.read_range()
            return c.controller.current_term.term_id, [r.data for r in records]

        term_id, data = c.drive(flow(), limit=120.0)
        assert term_id == 4
        assert data == ["round-0", "round-1", "round-2"]

    def test_reconfigure_changes_log_count(self):
        c = BokiCluster(num_storage_nodes=8, num_logs=1)
        c.boot()

        def flow():
            book = c.logbook(5)
            yield from book.append("before")
            yield from c.controller.reconfigure(num_logs=4)
            yield from book.append("after")
            records = yield from book.read_range()
            return len(c.controller.current_term.logs), [r.data for r in records]

        num_logs, data = c.drive(flow(), limit=120.0)
        assert num_logs == 4
        assert data == ["before", "after"]

    def test_book_routes_follow_a_term_that_changes_the_log_count(self):
        """``_book_routes`` is memoized per book; installing a term must
        drop the memo, or a read of a new-term seqnum finds no route."""
        c = BokiCluster(num_storage_nodes=8, num_logs=1)
        c.boot()
        engine = c.engines["func-0"]
        book = c.logbook(5, engine=engine)

        def flow():
            yield from book.append("before")
            old = engine._book_routes(5)
            yield from c.controller.reconfigure(num_logs=4)
            after = yield from book.append("after")
            record = yield from book.read_next(min_seqnum=after)
            return old, after, record

        old, after, record = c.drive(flow(), limit=120.0)
        term = c.controller.current_term
        log_id = term.log_for_book(5)
        assert log_id != 0
        assert len(old) == 1
        assert engine._book_routes(5) == old + [
            (term.term_id, log_id, pack_seqnum(term.term_id, log_id, 0),
             pack_seqnum(term.term_id, log_id, MAX_POS)),
        ]
        assert (record.seqnum, record.data) == (after, "after")

    def test_failure_detector_ignores_unused_node_death(self):
        """A spare (unassigned) node dying must not trigger reconfiguration."""
        c = BokiCluster(num_sequencer_nodes=6, use_coord_sessions=True)
        c.boot()
        # seq-3..5 are spares (nmeta=3).
        spare = c.controller.components["seq-5"]
        spare.node.crash()

        def flow():
            yield c.env.timeout(6.0)

        c.drive(flow(), limit=120.0)
        assert c.controller.reconfig_count == 0
