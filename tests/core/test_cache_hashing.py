"""Unit tests for the record cache and consistent hashing."""

from collections import Counter, OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import RecordCache
from repro.core.hashing import ConsistentHashRing, log_tag, stable_hash
from repro.core.types import LogRecord, _approx_size


def record(seqnum, size=100):
    return LogRecord(seqnum=seqnum, tags=(), data="x" * size)


class TestRecordCache:
    def test_put_get_roundtrip(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        found, aux = cache.lookup(1)
        assert (found.seqnum, aux) == (1, None)

    def test_miss_returns_none(self):
        cache = RecordCache(10_000)
        assert cache.lookup(42) is None
        assert cache.misses == 1

    def test_lru_eviction_under_pressure(self):
        cache = RecordCache(500)
        for s in range(10):
            cache.put_record(record(s, size=100))
        assert cache.lookup(0) is None  # oldest evicted
        assert cache.lookup(9) is not None
        assert cache.evictions > 0

    def test_access_refreshes_lru_order(self):
        cache = RecordCache(400)
        cache.put_record(record(1, 100))
        cache.put_record(record(2, 100))
        cache.lookup(1)  # refresh 1
        cache.put_record(record(3, 100))
        cache.put_record(record(4, 100))  # evicts 2, not 1
        assert cache.lookup(1) is not None
        assert cache.lookup(2) is None

    def test_aux_data_shares_cache(self):
        cache = RecordCache(10_000)
        cache.put_aux(5, {"view": 1})
        assert cache.put_record(record(5)) == {"view": 1}
        assert cache.lookup(5)[1] == {"view": 1}  # preserved alongside record

    def test_aux_without_record(self):
        cache = RecordCache(10_000)
        cache.put_aux(7, "aux")
        assert cache.lookup(7) is None  # aux data alone is a miss
        assert cache.misses == 1
        assert cache.put_record(record(7)) == "aux"

    def test_drop(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        cache.drop(1)
        assert cache.lookup(1) is None
        assert cache.used_bytes == 0

    def test_used_bytes_tracks_updates(self):
        cache = RecordCache(100_000)
        cache.put_record(record(1, 100))
        first = cache.used_bytes
        cache.put_record(record(1, 100))  # overwrite, no growth
        assert cache.used_bytes == first

    def test_hit_rate(self):
        cache = RecordCache(10_000)
        cache.put_record(record(1))
        cache.lookup(1)
        cache.lookup(2)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RecordCache(0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
    def test_capacity_never_exceeded_property(self, accesses):
        cache = RecordCache(1000)
        for s in accesses:
            cache.put_record(record(s, size=150))
            assert cache.used_bytes <= max(cache.capacity_bytes, 150 + 32)


    @given(st.lists(st.tuples(
        st.sampled_from(["put_record", "put_aux", "drop", "lookup"]),
        st.integers(0, 8),
        st.one_of(st.none(), st.integers(0, 400),
                  st.dictionaries(st.text(max_size=4), st.integers(), max_size=4)),
    ), max_size=120))
    def test_accounting_matches_resizing_every_entry(self, ops):
        """Sizing only what a put changed leaves ``used_bytes``, the LRU
        order and ``evictions`` exactly where sizing record and aux afresh
        on every store (the model below) puts them; one lookup answers
        what the model holds and counts one hit or one miss."""
        cache = RecordCache(1000)
        model, evictions = OrderedDict(), 0  # seqnum -> (record, aux), LRU first
        hits = misses = 0

        def size(entry):
            rec, aux = entry
            return (rec.size_bytes() if rec is not None else 0) + _approx_size(aux)

        for op, seqnum, arg in ops:
            if op == "put_record":
                rec = record(seqnum, size=arg if isinstance(arg, int) else 50)
                aux = model.pop(seqnum, (None, None))[1]
                assert cache.put_record(rec) is aux
                model[seqnum] = (rec, aux)
            elif op == "put_aux":
                cache.put_aux(seqnum, arg)
                model[seqnum] = (model.pop(seqnum, (None, None))[0], arg)
            elif op == "drop":
                cache.drop(seqnum)
                model.pop(seqnum, None)
            elif seqnum in model and model[seqnum][0] is not None:
                found = cache.lookup(seqnum)
                assert found[0] is model[seqnum][0] and found[1] is model[seqnum][1]
                model.move_to_end(seqnum)
                hits += 1
            else:
                assert cache.lookup(seqnum) is None
                misses += 1
            while sum(map(size, model.values())) > cache.capacity_bytes and len(model) > 1:
                model.popitem(last=False)
                evictions += 1
            assert cache.used_bytes == sum(map(size, model.values()))
            assert list(cache._entries) == list(model)
            assert cache.evictions == evictions
            assert (cache.hits, cache.misses) == (hits, misses)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42, "x") == stable_hash(42, "x")

    def test_salt_changes_value(self):
        assert stable_hash(42, "a") != stable_hash(42, "b")


class TestLogTag:
    def test_the_five_library_tags_keep_their_values(self):
        """Tags are addresses into committed logs and goldens: the one
        ``log_tag`` must keep producing what the five inline
        ``stable_hash(...) % _TAG_MOD + 1`` spellings did."""
        from repro.libs.bokiflow.env import step_tag
        from repro.libs.bokiflow.locks import lock_tag
        from repro.libs.bokiqueue.queue import shard_tag
        from repro.libs.bokistore.store import WRITE_STREAM_TAG, object_tag

        assert step_tag("wf-1", 3, "pre0") == 1337846737424681171
        assert lock_tag(("inventory", "item-7")) == 1693177898257525867
        assert object_tag("user:42") == 1962981952286277718
        assert object_tag("user:42") == 1962981952286277718  # memoized
        assert WRITE_STREAM_TAG == 1846654867864682218
        assert shard_tag("jobs", 1) == 1979403347747999698

    def test_tags_are_nonzero_and_salted(self):
        assert log_tag("a", ("x", 1)) != log_tag("b", ("x", 1))
        assert all(0 < log_tag("a", i) < (1 << 61) for i in range(100))


class TestConsistentHashRing:
    def test_lookup_in_members(self):
        ring = ConsistentHashRing([0, 1, 2], num_partitions=64)
        for book in range(100):
            assert ring.lookup(book) in (0, 1, 2)

    def test_memoized_lookup_is_the_partition_owner(self):
        ring = ConsistentHashRing([0, 1, 2], num_partitions=64, seed=5)
        books = range(10_000)
        expected = [ring._partition_owner[stable_hash(b, salt="book") % 64] for b in books]
        assert [ring.lookup(b) for b in books] == expected
        assert [ring.lookup(b) for b in books] == expected

    def test_deterministic(self):
        r1 = ConsistentHashRing([0, 1], num_partitions=64, seed=3)
        r2 = ConsistentHashRing([0, 1], num_partitions=64, seed=3)
        assert all(r1.lookup(b) == r2.lookup(b) for b in range(50))

    def test_balance(self):
        """Strategy 3's equal partitions keep load within ~2x of fair share
        for many books."""
        ring = ConsistentHashRing([0, 1, 2, 3], num_partitions=256)
        counts = Counter(ring.lookup(book_id) for book_id in range(100_000))
        fair = 100_000 / 4
        assert set(counts) == {0, 1, 2, 3}
        for member, count in counts.items():
            assert 0.6 * fair < count < 1.6 * fair

    def test_partitions_equally_owned(self):
        ring = ConsistentHashRing([0, 1, 2, 3], num_partitions=256)
        owned = Counter(ring._partition_owner)
        assert owned == {0: 64, 1: 64, 2: 64, 3: 64}

    def test_single_member_gets_everything(self):
        ring = ConsistentHashRing([7], num_partitions=16)
        assert all(ring.lookup(b) == 7 for b in range(20))

    def test_errors(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([], num_partitions=8)
        with pytest.raises(ValueError):
            ConsistentHashRing([1, 2, 3], num_partitions=2)

    def test_growing_ring_remaps_subset(self):
        """Adding a member moves some books but most stay (consistent
        hashing's defining property)."""
        before = ConsistentHashRing([0, 1], num_partitions=256)
        after = ConsistentHashRing([0, 1, 2], num_partitions=256)
        moved = sum(
            1 for b in range(10_000)
            if before.lookup(b) != after.lookup(b) and after.lookup(b) != 2
        )
        # Books should only move TO the new member, almost never between
        # old members (equal-partition reassignment keeps most in place).
        assert moved < 3000
