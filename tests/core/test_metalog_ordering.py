"""Unit tests for the metalog state machine and delta-set ordering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metalog import (
    Metalog,
    MetalogEntry,
    SealedError,
    TrimCommand,
)
from repro.core.ordering import delta_set, merge_progress_by_shard, position_of


def entry(index, progress, start_pos, trims=()):
    return MetalogEntry(
        index=index,
        progress=dict(sorted(progress.items())),
        start_pos=start_pos,
        trims=tuple(trims),
    )


SHARDS = ["a", "b", "c", "d"]


def reference_total_ordered(entries):
    """Positions assigned by ``entries``, recomputed from the last two: the
    last entry's ``start_pos`` plus its delta over the entry before it.
    The reference ``Metalog.ordered`` must equal."""
    if not entries:
        return 0
    last = entries[-1]
    prev = entries[-2].progress if len(entries) > 1 else {}
    return last.start_pos + sum(count - prev.get(shard, 0)
                                for shard, count in last.progress.items())


class TestMetalog:
    def test_append_and_length(self):
        ml = Metalog(log_id=0, term_id=1)
        ml.append(entry(0, {"a": 2}, 0))
        assert len(ml) == 1
        assert ml.tail == {"a": 2}

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
        assert ml.ordered == 3
        ml.append(entry(1, {"a": 4, "b": 1}, 3))
        assert ml.ordered == 5

    def test_entries_from(self):
        ml = Metalog(0, 1)
        ml.append(entry(0, {"a": 1}, 0))
        ml.append(entry(1, {"a": 2}, 1))
        assert [e.index for e in ml.entries_from(1)] == [1]

    def test_empty_tail_progress(self):
        assert Metalog(0, 1).tail == {}

    @settings(derandomize=True, max_examples=300)
    @given(st.data())
    def test_tail_and_ordered_follow_each_append(self, data):
        """Over a random monotone sequence of vectors: after each append,
        ``tail`` is that entry's progress and ``ordered`` what
        :func:`reference_total_ordered` computes; an entry that
        regresses a shard raises and changes none of length, tail and
        ordered, even if it advances other shards first."""
        ml = Metalog(0, 1)
        progress = {}
        for index in range(data.draw(st.integers(1, 8))):
            for shard in data.draw(st.lists(st.sampled_from(SHARDS), unique=True)):
                progress[shard] = progress.get(shard, 0) + data.draw(st.integers(0, 3))
            # A start_pos past the count ordered so far: ordered is read off
            # the last entry, not summed over all of them.
            e = entry(index, progress, ml.ordered + data.draw(st.integers(0, 2)))
            ml.append(e)
            assert ml.tail is e.progress
            assert ml.ordered == reference_total_ordered(ml.entries)

            behind = sorted(s for s, c in progress.items() if c > 0)
            if not behind:
                continue
            shard = data.draw(st.sampled_from(behind))
            regressed = {s: c + 1 for s, c in progress.items()}
            regressed["a0"] = 1  # a new shard, ordered before the others
            regressed[shard] = progress[shard] - data.draw(st.integers(1, progress[shard]))
            before = (len(ml), ml.tail, ml.ordered)
            with pytest.raises(ValueError, match="regressed"):
                ml.append(entry(index + 1, regressed, ml.ordered))
            assert (len(ml), ml.tail, ml.ordered) == before
            assert ml.tail is e.progress


def expand(runs):
    """The ``(shard, local_id, pos)`` records a delta set's runs order."""
    return [(shard, local_id, pos + local_id - lo)
            for shard, lo, hi, pos in runs for local_id in range(lo, hi)]


VECTORS = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 5))


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
            total.extend((s, l) for s, l, _ in expand(delta_set(prev, e)))
            prev = e.progress
        # Figure 3 total order: 0a 1a 0b 0c 2a 1c 2c 3a 4a 1b 2b 3c 3b 4c 5c
        expected = [
            ("a", 0), ("a", 1), ("b", 0), ("c", 0),
            ("a", 2), ("c", 1), ("c", 2),
            ("a", 3), ("a", 4), ("b", 1), ("b", 2), ("c", 3),
            ("b", 3), ("c", 4), ("c", 5),
        ]
        assert total == expected

    def test_one_run_per_advanced_shard(self):
        """Figure 3's second entry advances a by one and c by two; b's
        count is unchanged, so b has no run."""
        prev = {"a": 2, "b": 1, "c": 1}
        e = entry(1, {"a": 3, "b": 1, "c": 3}, 4)
        assert delta_set(prev, e) == [("a", 2, 3, 4), ("c", 1, 3, 5)]

    def test_positions_consecutive(self):
        e = entry(0, {"a": 2, "b": 2}, 10)
        positions = [p for _, _, p in expand(delta_set({}, e))]
        assert positions == [10, 11, 12, 13]

    def test_position_of_matches_delta_set(self):
        prev = {"a": 1, "b": 0}
        e = entry(1, {"a": 3, "b": 2}, 7)
        for shard, local_id, pos in expand(delta_set(prev, e)):
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
        for shard, local_id, pos in expand(delta_set(prev, e)):
            if shard in last_per_shard:
                last_lid, last_pos = last_per_shard[shard]
                assert local_id == last_lid + 1
                assert pos > last_pos
            last_per_shard[shard] = (local_id, pos)

    @settings(derandomize=True, max_examples=300)
    @given(VECTORS, VECTORS, st.integers(0, 1000))
    def test_runs_order_exactly_the_records_between_the_vectors(self, prev, incr, start_pos):
        cur = {s: prev.get(s, 0) + incr.get(s, 0) for s in set(prev) | set(incr)}
        e = entry(1, cur, start_pos)
        runs = delta_set(prev, e)
        # One run per shard the entry advances, none empty.
        assert [shard for shard, *_ in runs] == sorted(s for s in cur if cur[s] > prev.get(s, 0))
        assert all(lo < hi for _, lo, hi, _ in runs)
        records = expand(runs)
        between = sorted((s, l) for s in cur for l in range(prev.get(s, 0), cur[s]))
        assert [(s, l) for s, l, _ in records] == between
        assert [p for _, _, p in records] == list(range(start_pos, start_pos + len(between)))
        for shard, local_id, pos in records:
            assert position_of(prev, e, shard, local_id) == pos


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
