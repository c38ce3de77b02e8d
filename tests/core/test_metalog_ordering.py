"""Unit tests for the metalog state machine and delta-set ordering."""

import pytest
from hypothesis import given, strategies as st

from repro.core.metalog import (
    Metalog,
    MetalogEntry,
    SealedError,
    TrimCommand,
    freeze_progress,
)
from repro.core.ordering import delta_set, merge_progress_by_shard, position_of


def entry(index, progress, start_pos, trims=()):
    return MetalogEntry(
        index=index,
        progress=freeze_progress(progress),
        start_pos=start_pos,
        trims=tuple(trims),
    )


class TestMetalog:
    def test_append_and_length(self):
        ml = Metalog(log_id=0, term_id=1)
        ml.append(entry(0, {"a": 2}, 0))
        assert len(ml) == 1
        assert ml.tail_progress() == {"a": 2}

    def test_append_wrong_index_rejected(self):
        ml = Metalog(0, 1)
        with pytest.raises(ValueError):
            ml.append(entry(1, {"a": 1}, 0))

    def test_progress_regression_rejected(self):
        ml = Metalog(0, 1)
        ml.append(entry(0, {"a": 5}, 0))
        with pytest.raises(ValueError):
            ml.append(entry(1, {"a": 3}, 5))

    def test_seal_blocks_appends(self):
        ml = Metalog(0, 1)
        ml.append(entry(0, {"a": 1}, 0))
        assert ml.seal() == 1
        with pytest.raises(SealedError):
            ml.append(entry(1, {"a": 2}, 1))

    def test_total_ordered(self):
        ml = Metalog(0, 1)
        ml.append(entry(0, {"a": 2, "b": 1}, 0))
        assert ml.total_ordered() == 3
        ml.append(entry(1, {"a": 4, "b": 1}, 3))
        assert ml.total_ordered() == 5

    def test_entries_from(self):
        ml = Metalog(0, 1)
        ml.append(entry(0, {"a": 1}, 0))
        ml.append(entry(1, {"a": 2}, 1))
        assert [e.index for e in ml.entries_from(1)] == [1]

    def test_empty_tail_progress(self):
        assert Metalog(0, 1).tail_progress() == {}


class TestDeltaSet:
    def test_paper_figure3_example(self):
        """Reproduce Figure 3: shards a, b, c; metalog entries (2,1,1),
        (3,1,3), (5,3,4), (5,4,6)."""
        entries = [
            entry(0, {"a": 2, "b": 1, "c": 1}, 0),
            entry(1, {"a": 3, "b": 1, "c": 3}, 4),
            entry(2, {"a": 5, "b": 3, "c": 4}, 7),
            entry(3, {"a": 5, "b": 4, "c": 6}, 12),
        ]
        prev = {}
        total = []
        for e in entries:
            total.extend((s, l) for s, l, _ in delta_set(prev, e))
            prev = e.progress_dict()
        # Figure 3 total order: 0a 1a 0b 0c 2a 1c 2c 3a 4a 1b 2b 3c 3b 4c 5c
        expected = [
            ("a", 0), ("a", 1), ("b", 0), ("c", 0),
            ("a", 2), ("c", 1), ("c", 2),
            ("a", 3), ("a", 4), ("b", 1), ("b", 2), ("c", 3),
            ("b", 3), ("c", 4), ("c", 5),
        ]
        assert total == expected

    def test_positions_consecutive(self):
        e = entry(0, {"a": 2, "b": 2}, 10)
        positions = [p for _, _, p in delta_set({}, e)]
        assert positions == [10, 11, 12, 13]

    def test_position_of_matches_delta_set(self):
        prev = {"a": 1, "b": 0}
        e = entry(1, {"a": 3, "b": 2}, 7)
        for shard, local_id, pos in delta_set(prev, e):
            assert position_of(prev, e, shard, local_id) == pos

    def test_position_of_outside_delta_is_none(self):
        prev = {"a": 1}
        e = entry(1, {"a": 3}, 0)
        assert position_of(prev, e, "a", 0) is None  # already ordered
        assert position_of(prev, e, "a", 3) is None  # not yet ordered
        assert position_of(prev, e, "zz", 0) is None  # unknown shard

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 5), min_size=1
        ),
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 5), min_size=1
        ),
    )
    def test_delta_never_reorders_within_shard(self, base, incr):
        prev = dict(base)
        cur = {s: prev.get(s, 0) + incr.get(s, 0) for s in set(prev) | set(incr)}
        e = entry(1, cur, 100)
        last_per_shard = {}
        for shard, local_id, pos in delta_set(prev, e):
            if shard in last_per_shard:
                last_lid, last_pos = last_per_shard[shard]
                assert local_id == last_lid + 1
                assert pos > last_pos
            last_per_shard[shard] = (local_id, pos)


class TestMergeProgress:
    def test_min_over_backers(self):
        reports = {
            "s1": {"a": 5, "b": 2},
            "s2": {"a": 3, "b": 4},
            "s3": {"a": 4, "b": 3},
        }
        shard_storage = {"a": ["s1", "s2", "s3"], "b": ["s1", "s2", "s3"]}
        assert merge_progress_by_shard(reports, shard_storage) == {"a": 3, "b": 2}

    def test_unreported_node_counts_zero(self):
        reports = {"s1": {"a": 5}}
        shard_storage = {"a": ["s1", "s2"]}
        assert merge_progress_by_shard(reports, shard_storage) == {"a": 0}

    def test_shard_subsets(self):
        """A node not backing a shard does not limit that shard (the paper's
        'infinity' elements)."""
        reports = {"s1": {"a": 5}, "s2": {"b": 7}}
        shard_storage = {"a": ["s1"], "b": ["s2"]}
        assert merge_progress_by_shard(reports, shard_storage) == {"a": 5, "b": 7}

    def test_empty(self):
        assert merge_progress_by_shard({}, {}) == {}


class TestTrimCommand:
    def test_carried_in_entry(self):
        t = TrimCommand(book_id=1, tag=0, until_seqnum=100)
        e = entry(0, {"a": 1}, 0, trims=[t])
        assert e.trims == (t,)
