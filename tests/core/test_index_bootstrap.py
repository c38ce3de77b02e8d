"""Tests for index bootstrap: newly promoted index engines learn history."""

import pytest

from repro.core import BokiCluster


class TestIndexBootstrap:
    def test_new_index_engine_serves_old_records(self):
        """After a reconfiguration widens the index-engine set, the newly
        promoted engine must serve reads of records from earlier terms."""
        c = BokiCluster(num_function_nodes=4, index_engines_per_log=2)
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("historical", tags=[3])
            # Widen the index set to all 4 engines in the next term.
            yield from c.controller.reconfigure(index_engines_per_log=4)
            yield c.env.timeout(0.05)  # bootstrap runs in the background
            # Find an engine that indexes now but did not before.
            old = set()
            for term_id, cfg in c.engines["func-0"].term_history.items():
                if term_id == 1:
                    old = set(cfg.assignment(0).index_engines)
            new_cfg = c.controller.current_term
            promoted = [
                name for name in new_cfg.assignment(0).index_engines
                if name not in old
            ]
            assert promoted, "expected newly promoted index engines"
            reader = c.logbook(1, engine=c.engine_of(promoted[0]))
            record = yield from reader.read_next(tag=3, min_seqnum=0)
            return record.data if record else None

        assert c.drive(flow(), limit=120.0) == "historical"

    def test_bootstrap_preserves_tag_rows(self):
        c = BokiCluster(num_function_nodes=4, index_engines_per_log=2)
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("a", tags=[5])
            yield from book.append("b", tags=[6])
            yield from book.append("c", tags=[5])
            yield from c.controller.reconfigure(index_engines_per_log=4)
            yield c.env.timeout(0.05)
            new_cfg = c.controller.current_term
            promoted = new_cfg.assignment(0).index_engines[-1]
            reader = c.logbook(1, engine=c.engine_of(promoted))
            tagged = yield from reader.read_range(tag=5)
            return [r.data for r in tagged]

        assert c.drive(flow(), limit=120.0) == ["a", "c"]

    def test_bootstrap_not_needed_for_first_term(self):
        """Term-1 index engines must not attempt bootstrap (no history)."""
        c = BokiCluster(num_function_nodes=2, index_engines_per_log=2)
        c.boot()

        def flow():
            book = c.logbook(1)
            yield from book.append("x")
            tail = yield from book.check_tail()
            return tail.data

        assert c.drive(flow(), limit=60.0) == "x"
