"""Model-based tests: the simulated cluster vs a reference log.

Hypothesis generates random operation sequences (appends with random tags
across several LogBooks, interleaved reads); we execute them against a
real cluster and against a trivial in-memory reference, and require
identical results. This catches ordering, indexing, and consistency bugs
that targeted tests miss.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BokiCluster
from repro.core.types import MAX_SEQNUM


class ReferenceLog:
    """The spec: a totally ordered list per book with tag filtering."""

    def __init__(self):
        self.records = []  # (seqnum, book, tags, data)

    def append(self, seqnum, book, tags, data):
        self.records.append((seqnum, book, set(tags) | {0}, data))

    def read_next(self, book, tag, min_seqnum):
        for seqnum, b, tags, data in sorted(self.records):
            if b == book and tag in tags and seqnum >= min_seqnum:
                return data
        return None

    def read_prev(self, book, tag, max_seqnum):
        for seqnum, b, tags, data in sorted(self.records, reverse=True):
            if b == book and tag in tags and seqnum <= max_seqnum:
                return data
        return None

    def iter_tag(self, book, tag):
        return [
            data
            for seqnum, b, tags, data in sorted(self.records)
            if b == book and tag in tags
        ]


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.integers(1, 3),              # book
            st.lists(st.integers(1, 4), max_size=2),  # tags
        ),
        st.tuples(st.just("read_next"), st.integers(1, 3), st.integers(0, 4)),
        st.tuples(st.just("read_prev"), st.integers(1, 3), st.integers(0, 4)),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
@given(ops=ops_strategy, num_logs=st.sampled_from([1, 2]))
def test_logbook_matches_reference_model(ops, num_logs):
    cluster = BokiCluster(
        num_function_nodes=2, num_storage_nodes=4, num_logs=num_logs,
        index_engines_per_log=2,
    )
    cluster.boot()
    reference = ReferenceLog()

    def run():
        books = {b: cluster.logbook(b) for b in (1, 2, 3)}
        payload_counter = [0]
        outcomes = []
        for op in ops:
            if op[0] == "append":
                _, book_id, tags = op
                data = f"r{payload_counter[0]}"
                payload_counter[0] += 1
                seqnum = yield from books[book_id].append(data, tags=tags)
                reference.append(seqnum, book_id, tags, data)
            elif op[0] == "read_next":
                _, book_id, tag = op
                record = yield from books[book_id].read_next(tag=tag, min_seqnum=0)
                outcomes.append(
                    (record.data if record else None, reference.read_next(book_id, tag, 0))
                )
            else:
                _, book_id, tag = op
                record = yield from books[book_id].read_prev(tag=tag, max_seqnum=MAX_SEQNUM)
                outcomes.append(
                    (
                        record.data if record else None,
                        reference.read_prev(book_id, tag, MAX_SEQNUM),
                    )
                )
        # Final full-stream comparison for every (book, tag).
        for book_id in (1, 2, 3):
            for tag in (0, 1, 2, 3, 4):
                records = yield from books[book_id].read_range(tag=tag)
                outcomes.append(
                    ([r.data for r in records], reference.iter_tag(book_id, tag))
                )
        return outcomes

    outcomes = cluster.drive(run(), limit=600.0)
    for got, expected in outcomes:
        assert got == expected


@settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    appends=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=15),
    reconfig_after=st.integers(0, 10),
)
def test_total_order_survives_reconfiguration(appends, reconfig_after):
    """Appends interleaved with a reconfiguration: seqnums stay strictly
    increasing in issue order per client, and every record stays readable."""
    cluster = BokiCluster(num_function_nodes=2, num_storage_nodes=4, num_sequencer_nodes=6)
    cluster.boot()

    def run():
        books = {b: cluster.logbook(b) for b in (1, 2, 3)}
        seqnums = []
        for i, (book_id, tag) in enumerate(appends):
            if i == min(reconfig_after, len(appends) - 1):
                yield from cluster.controller.reconfigure()
            seqnum = yield from books[book_id].append({"i": i}, tags=[tag])
            seqnums.append(seqnum)
        counts = {}
        for book_id in (1, 2, 3):
            records = yield from books[book_id].read_range()
            counts[book_id] = len(records)
        return seqnums, counts

    seqnums, counts = cluster.drive(run(), limit=600.0)
    assert seqnums == sorted(seqnums)
    assert len(set(seqnums)) == len(seqnums)
    expected = {b: sum(1 for bb, _ in appends if bb == b) for b in (1, 2, 3)}
    assert counts == expected
