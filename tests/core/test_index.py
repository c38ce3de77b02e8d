"""Unit tests for the log index (§4.4, Figure 4)."""

from hypothesis import given, settings, strategies as st

from repro.core.index import ALL_TAG, LogIndex
from repro.core.metalog import TrimCommand
from repro.core.types import MAX_SEQNUM


def make_index_with(records):
    """records: list of (book_id, tags, seqnum, shard)."""
    index = LogIndex(log_id=0)
    for book_id, tags, seqnum, shard in records:
        index.add_record(book_id, tags, seqnum, shard)
    return index


def read_next(index, book_id, tag, min_seqnum):
    """logReadNext as the engine asks it: one seqnum from ``min_seqnum`` up."""
    found = index.query(book_id, tag, min_seqnum, MAX_SEQNUM, 1, False)
    return found[0] if found else None


def read_prev(index, book_id, tag, max_seqnum):
    """logReadPrev as the engine asks it: one seqnum from ``max_seqnum`` down."""
    found = index.query(book_id, tag, 0, max_seqnum, 1, True)
    return found[0] if found else None


def every(index, book_id, tag, lo=0, hi=MAX_SEQNUM):
    """A range read as the engine asks it: every seqnum in [lo, hi]."""
    return index.query(book_id, tag, lo, hi, None, False)


class TestReads:
    def test_read_next_finds_first_at_or_after(self):
        index = make_index_with([
            (3, [2], 8, "a"),
            (3, [2], 9, "a"),
            (3, [2], 12, "b"),
        ])
        assert read_next(index, 3, 2, 8) == 8
        assert read_next(index, 3, 2, 10) == 12
        assert read_next(index, 3, 2, 13) is None

    def test_read_prev_finds_last_at_or_before(self):
        index = make_index_with([
            (3, [2], 8, "a"),
            (3, [2], 12, "b"),
        ])
        assert read_prev(index, 3, 2, 20) == 12
        assert read_prev(index, 3, 2, 11) == 8
        assert read_prev(index, 3, 2, 7) is None

    def test_paper_figure4_workflow(self):
        """Figure 4: row (book=3, tag=2) = [8, 6, 7, 9, 10] sorted; a read
        with min_seqnum=8 returns 9... the figure's query result is 9 for
        min_seqnum=8 excluded-8 semantics aside: we verify seek semantics on
        the sorted row [6, 7, 8, 9, 10]."""
        index = make_index_with([
            (3, [2], s, "a") for s in [8, 6, 7, 9, 10]
        ])
        assert read_next(index, 3, 2, 8) == 8
        assert read_next(index, 3, 2, 9) == 9

    def test_rows_isolated_by_book(self):
        index = make_index_with([
            (1, [5], 10, "a"),
            (2, [5], 11, "a"),
        ])
        assert read_next(index, 1, 5, 0) == 10
        assert read_next(index, 2, 5, 0) == 11
        assert read_next(index, 3, 5, 0) is None

    def test_rows_isolated_by_tag(self):
        index = make_index_with([
            (1, [5], 10, "a"),
            (1, [6], 11, "a"),
        ])
        assert read_next(index, 1, 5, 0) == 10
        assert read_next(index, 1, 6, 0) == 11

    def test_all_tag_row_contains_everything(self):
        index = make_index_with([
            (1, [5], 10, "a"),
            (1, [6], 11, "a"),
            (1, [], 12, "a"),
        ])
        assert every(index, 1, ALL_TAG) == [10, 11, 12]

    def test_multi_tag_record_in_all_rows(self):
        index = make_index_with([(1, [5, 6], 10, "a")])
        assert read_next(index, 1, 5, 0) == 10
        assert read_next(index, 1, 6, 0) == 10
        assert read_next(index, 1, ALL_TAG, 0) == 10

    def test_out_of_order_insertion(self):
        index = LogIndex(0)
        index.add_record(1, [], 20, "a")
        index.add_record(1, [], 10, "a")
        assert every(index, 1, ALL_TAG) == [10, 20]

    def test_duplicate_insertion_ignored(self):
        index = LogIndex(0)
        index.add_record(1, [], 10, "a")
        index.add_record(1, [], 10, "a")
        assert every(index, 1, ALL_TAG) == [10]

    def test_shard_of(self):
        index = make_index_with([(1, [], 10, "shard-x")])
        assert index.shard_of(10) == "shard-x"
        assert index.shard_of(11) is None

    def test_range_bounds(self):
        index = make_index_with([(1, [2], s, "a") for s in [5, 10, 15, 20]])
        assert every(index, 1, 2, 6, 19) == [10, 15]
        assert every(index, 1, 2, 10, 15) == [10, 15]


class TestTrims:
    def test_trim_tag_removes_prefix(self):
        index = make_index_with([(1, [2], s, "a") for s in [5, 10, 15]])
        index.apply_trim(TrimCommand(book_id=1, tag=2, until_seqnum=10))
        assert every(index, 1, 2) == [15]

    def test_trim_whole_book_with_all_tag(self):
        index = make_index_with([
            (1, [2], 5, "a"),
            (1, [3], 6, "a"),
            (1, [2], 15, "a"),
        ])
        index.apply_trim(TrimCommand(book_id=1, tag=ALL_TAG, until_seqnum=10))
        assert every(index, 1, ALL_TAG) == [15]
        assert every(index, 1, 2) == [15]
        assert every(index, 1, 3) == []

    def test_trim_does_not_touch_other_books(self):
        index = make_index_with([
            (1, [2], 5, "a"),
            (9, [2], 6, "a"),
        ])
        index.apply_trim(TrimCommand(book_id=1, tag=2, until_seqnum=100))
        assert every(index, 9, 2) == [6]

    def test_trim_reports_unreachable_records(self):
        index = make_index_with([(1, [2], 5, "a"), (1, [2], 15, "a")])
        dropped = index.apply_trim(TrimCommand(1, ALL_TAG, 10))
        assert dropped == [5]
        assert index.record_count == 1

    def test_record_reachable_via_other_tag_not_dropped(self):
        """Trimming one tag must not drop a record still reachable via
        another of its tags."""
        index = make_index_with([(1, [2, 3], 5, "a")])
        dropped = index.apply_trim(TrimCommand(1, 2, 10))
        assert dropped == []
        assert read_next(index, 1, 3, 0) == 5


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 1000)),
        min_size=1,
        max_size=60,
        unique_by=lambda t: t[2],
    )
)
def test_read_next_prev_consistent_property(records):
    """read_next and read_prev agree with a brute-force scan."""
    index = LogIndex(0)
    for book, tag, seqnum in records:
        index.add_record(book, [tag], seqnum, "a")
    for book, tag, seqnum in records:
        row = sorted(s for b, t, s in records if b == book and t == tag)
        for probe in [0, seqnum - 1, seqnum, seqnum + 1, 2000]:
            expected_next = next((s for s in row if s >= probe), None)
            expected_prev = next((s for s in reversed(row) if s <= probe), None)
            assert read_next(index, book, tag, probe) == expected_next
            assert read_prev(index, book, tag, probe) == expected_prev


def reference_query(seqnums, lo, hi, limit, reverse):
    """What a query must return, by filtering the sorted seqnums."""
    found = [s for s in sorted(seqnums) if lo <= s <= hi]
    if reverse:
        found.reverse()
    return found if limit is None else found[:limit]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seqnums=st.lists(st.integers(0, 100), max_size=40, unique=True),
    trim_until=st.none() | st.integers(0, 100),
    lo=st.integers(-5, 105),
    hi=st.integers(-5, 105),
    limit=st.none() | st.integers(1, 5),
    reverse=st.booleans(),
)
def test_query_matches_a_filtered_sorted_list(seqnums, trim_until, lo, hi, limit, reverse):
    """One row, inserted in any order and perhaps trimmed: every query
    over it is the reference's filter of the surviving seqnums."""
    index = make_index_with([(1, [2], s, "a") for s in seqnums])
    if trim_until is not None:
        index.apply_trim(TrimCommand(book_id=1, tag=2, until_seqnum=trim_until))
        seqnums = [s for s in seqnums if s > trim_until]
    assert index.query(1, 2, lo, hi, limit, reverse) == reference_query(
        seqnums, lo, hi, limit, reverse)
    assert index.query(1, 3, lo, hi, limit, reverse) == []  # an absent row
