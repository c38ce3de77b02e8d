"""Unit tests for seqnums, records, and metalog positions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import (
    MAX_LOG,
    MAX_POS,
    MAX_SEQNUM,
    MAX_TERM,
    ZERO_POSITION,
    LogRecord,
    MetalogPosition,
    _approx_size,
    merge_positions,
    pack_seqnum,
    seqnum_log_id,
    seqnum_term,
)


class TestSeqnum:
    def test_pack_unpack_roundtrip(self):
        s = pack_seqnum(3, 7, 1234)
        assert (seqnum_term(s), seqnum_log_id(s), s & MAX_POS) == (3, 7, 1234)

    def test_accessors(self):
        s = pack_seqnum(5, 2, 99)
        assert seqnum_term(s) == 5
        assert seqnum_log_id(s) == 2
        assert s & MAX_POS == 99

    def test_zero(self):
        assert pack_seqnum(0, 0, 0) == 0

    def test_max_values(self):
        s = pack_seqnum(MAX_TERM, MAX_LOG, MAX_POS)
        assert s == MAX_SEQNUM

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_seqnum(MAX_TERM + 1, 0, 0)
        with pytest.raises(ValueError):
            pack_seqnum(0, MAX_LOG + 1, 0)
        with pytest.raises(ValueError):
            pack_seqnum(0, 0, MAX_POS + 1)
        with pytest.raises(ValueError):
            pack_seqnum(-1, 0, 0)

    def test_term_dominates_order(self):
        """Seqnum order matches chronological term order (§4.2)."""
        old_term = pack_seqnum(1, 5, MAX_POS)
        new_term = pack_seqnum(2, 0, 0)
        assert old_term < new_term

    def test_pos_orders_within_log(self):
        assert pack_seqnum(1, 3, 10) < pack_seqnum(1, 3, 11)

    @given(
        st.integers(0, MAX_TERM),
        st.integers(0, MAX_LOG),
        st.integers(0, MAX_POS),
    )
    def test_roundtrip_property(self, term, log, pos):
        s = pack_seqnum(term, log, pos)
        assert (seqnum_term(s), seqnum_log_id(s), s & MAX_POS) == (term, log, pos)

    @given(
        st.tuples(st.integers(0, MAX_TERM), st.integers(0, 3), st.integers(0, MAX_POS)),
        st.tuples(st.integers(0, MAX_TERM), st.integers(0, 3), st.integers(0, MAX_POS)),
    )
    def test_same_log_order_matches_tuple_order(self, a, b):
        """For records of the same physical log, integer seqnum order
        equals (term, pos) lexicographic order."""
        a = (a[0], 1, a[2])
        b = (b[0], 1, b[2])
        sa, sb = pack_seqnum(*a), pack_seqnum(*b)
        assert (sa < sb) == ((a[0], a[2]) < (b[0], b[2]))


class TestLogRecord:
    def test_size_accounts_for_data(self):
        small = LogRecord(seqnum=1, tags=(), data="x")
        big = LogRecord(seqnum=2, tags=(), data="x" * 1024)
        assert big.size_bytes() - small.size_bytes() == 1023

    def test_size_of_dict_data(self):
        r = LogRecord(seqnum=1, tags=(), data={"key": "value"})
        assert r.size_bytes() > 0


def _reference_size(value):
    """The plain isinstance sizing ``_approx_size`` must agree with: the
    recursive formula it had before containers sized their scalar members
    in their own loop."""
    if value is None:
        return 0
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (int, float, bool)):
        return 8
    if isinstance(value, dict):
        return sum(_reference_size(k) + _reference_size(v) for k, v in value.items()) + 8
    if isinstance(value, (list, tuple, set)):
        return sum(_reference_size(v) for v in value) + 8
    return 64


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8),
    st.integers().map(_Int), st.text(max_size=8).map(_Str),
    st.binary(max_size=8).map(bytearray),
    st.frozensets(st.integers(), max_size=3).map(set),
    st.frozensets(st.integers(), max_size=3),
    st.builds(MetalogPosition, st.integers(0, 9), st.integers(0, 9)),
    st.builds(object),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=4),
        st.dictionaries(st.one_of(st.booleans(), st.binary(max_size=4), st.none()),
                        inner, max_size=4).map(_Dict),
    ),
    max_leaves=20,
)


class TestApproxSize:
    @settings(derandomize=True, max_examples=300)
    @given(_values)
    def test_matches_the_isinstance_rules(self, value):
        assert _approx_size(value) == _reference_size(value)

    def test_pinned_sizes(self):
        assert _approx_size(None) == 0
        assert _approx_size(object()) == 64
        assert _approx_size(True) == _approx_size(_Int(3)) == 8
        assert _approx_size(_Str("abc")) == _approx_size(bytearray(b"abc")) == 3
        assert _approx_size({1, 2}) == 24
        assert _approx_size({"k": [1, "ab"]}) == 1 + (8 + 2 + 8) + 8
        assert _approx_size([1, 2.0, True, None, "ab", b"c"]) == 8 * 3 + 0 + 2 + 1 + 8
        assert _approx_size(frozenset({1})) == 64
        assert _approx_size(_Dict(a=[1])) == 1 + 16 + 8


class TestMetalogPosition:
    def test_ordering_term_major(self):
        assert MetalogPosition(1, 100) < MetalogPosition(2, 0)
        assert MetalogPosition(1, 5) < MetalogPosition(1, 6)

    @settings(derandomize=True, max_examples=200)
    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_orders_and_equals_as_term_then_index(self, a, b):
        pa, pb = MetalogPosition(*a), MetalogPosition(*b)
        term_first = (a[0], a[1]) < (b[0], b[1])
        assert (pa < pb, pa == pb, pa > pb) == (term_first, a == b, (b[0], b[1]) < (a[0], a[1]))
        assert max(pa, pb) == MetalogPosition(*max(a, b))
        if a == b:
            assert hash(pa) == hash(pb)

    def test_fields_and_repr(self):
        pos = MetalogPosition(2, 7)
        assert (pos.term_id, pos.entry_index) == tuple(pos) == (2, 7)
        assert MetalogPosition(entry_index=7, term_id=2) == pos
        assert repr(pos) == "MetalogPosition(term_id=2, entry_index=7)"
        with pytest.raises(AttributeError):
            pos.term_id = 3

    def test_zero(self):
        assert ZERO_POSITION == MetalogPosition(0, 0) == MetalogPosition()
        assert ZERO_POSITION < MetalogPosition(0, 1)
        assert ZERO_POSITION < MetalogPosition(1, 0)
        assert (ZERO_POSITION.term_id, ZERO_POSITION.entry_index) == (0, 0)

    def test_merge_positions(self):
        a = {0: MetalogPosition(1, 5), 1: MetalogPosition(1, 2)}
        b = {0: MetalogPosition(1, 3), 2: MetalogPosition(1, 7)}
        merge_positions(a, b)  # in place: a handle bound to ``a`` sees it
        assert a == {
            0: MetalogPosition(1, 5),
            1: MetalogPosition(1, 2),
            2: MetalogPosition(1, 7),
        }
        assert b == {0: MetalogPosition(1, 3), 2: MetalogPosition(1, 7)}
        merge_positions(a, a)  # a child that shared the parent's map
        assert len(a) == 3

    def test_merge_is_commutative(self):
        a = {0: MetalogPosition(2, 1)}
        b = {0: MetalogPosition(1, 9)}
        ab, ba = dict(a), dict(b)
        merge_positions(ab, b)
        merge_positions(ba, a)
        assert ab == ba == a
