"""Every index and every storage node remove the same records on a trim.

A generated run of tagged appends and trims over two LogBooks, on a
fault-free cluster, is judged against :class:`TrimReference`, a model of
the rule stated on ``TrimCommand`` written without the code under test:
reads through either engine list what the model's rows hold, and every
record an index lists is still on every storage node.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import BokiCluster

BOOKS = (1, 2)
TAGS = (1, 2, 3)


class TrimReference:
    """What a LogBook holds after its trims. A trim ``(book, tag, until)``
    takes the book's records carrying ``tag`` with seqnum <= ``until`` out
    of row ``tag``; a record with explicit tags goes once no row of them
    holds it, and any record goes once tag 0 is trimmed past it."""

    def __init__(self) -> None:
        #: seqnum -> (book, data, explicit tags whose rows hold it)
        self.records: Dict[int, Tuple[int, str, Set[int]]] = {}

    def append(self, seqnum: int, book: int, data: str, tags) -> None:
        self.records[seqnum] = (book, data, set(tags))

    def trim(self, book: int, tag: int, until: int) -> None:
        for seqnum, (owner, _, held) in list(self.records.items()):
            if owner != book or seqnum > until:
                continue
            if tag == 0:
                del self.records[seqnum]
            elif tag in held:
                held.discard(tag)
                if not held:
                    del self.records[seqnum]

    def row(self, book: int, tag: int) -> List[Tuple[int, str]]:
        return sorted((seqnum, data) for seqnum, (owner, data, held) in self.records.items()
                      if owner == book and (tag == 0 or tag in held))


append_op = st.tuples(st.just("append"), st.integers(0, 1), st.sampled_from(BOOKS),
                      st.lists(st.sampled_from(TAGS), max_size=3, unique=True))
trim_op = st.tuples(st.just("trim"), st.integers(0, 1), st.sampled_from(BOOKS),
                    st.sampled_from((0,) + TAGS), st.integers(0, 30))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ops=st.lists(st.one_of(append_op, append_op, trim_op), max_size=30))
def test_indexes_and_storage_agree_with_the_trim_rule(ops):
    """Appends with 0 to 3 explicit tags across two books, interleaved with
    tag and tag-0 trims (``until`` is the n-th record appended so far):
    once the trims have applied, every (book, tag) range read through
    either engine, from storage, equals the reference's row (so no read of
    a listed seqnum fails), every index lists exactly the reference's
    records, and every storage node holds exactly them."""
    cluster = BokiCluster(num_function_nodes=2, num_storage_nodes=3,
                          index_engines_per_log=2, seed=0)
    cluster.boot()
    engines = list(cluster.engines.values())
    reference = TrimReference()

    def run():
        appended = []
        for i, op in enumerate(ops):
            book = cluster.logbook(op[2], engine=engines[op[1]])
            if op[0] == "append":
                seqnum = yield from book.append(f"r{i}", tags=op[3])
                reference.append(seqnum, op[2], f"r{i}", op[3])
                appended.append(seqnum)
            elif appended:
                until = appended[min(op[4], len(appended) - 1)]
                yield from book.trim(until, tag=op[3])
                reference.trim(op[2], op[3], until)
        yield cluster.env.timeout(0.05)  # the last trims reach every subscriber
        rows = {}
        for engine in engines:
            for seqnum in list(engine.cache._entries):
                engine.cache.drop(seqnum)  # every read goes to a storage node
            for book_id in BOOKS:
                book = cluster.logbook(book_id, engine=engine)
                for tag in (0,) + TAGS:
                    records = yield from book.read_range(tag=tag)
                    rows[engine.name, book_id, tag] = [(r.seqnum, r.data) for r in records]
        return rows

    rows = cluster.drive(run())
    for (_, book_id, tag), got in rows.items():
        assert got == reference.row(book_id, tag), (book_id, tag)
    live = set(reference.records)
    for engine in engines:
        (index,) = engine.indices.values()
        assert set(index._entries) == live, engine.name
    for storage in cluster.storage_nodes:
        assert set(storage._by_seqnum) == live, storage.name
