"""MetalogFollower: applying one (term, log) metalog from out-of-order,
duplicated broadcasts, the single meaning of ``stalled_since``, and when
a node asks the sequencers for what it is missing."""

from hypothesis import given, settings, strategies as st

from repro.core.metalog import Metalog, MetalogEntry, freeze_progress
from repro.core.ordering import (STALL_FETCH_DELAY, TAIL_FETCH_DELAY, MetalogFollower,
                                 delta_set)

SHARDS = ("a", "b", "c")


@st.composite
def metalogs(draw):
    """A metalog of 1-12 entries whose progress vectors grow by random
    steps (each entry orders at least one record, so no two delta sets are
    equal), with each entry's expected delta set."""
    metalog = Metalog(log_id=0, term_id=1)
    progress = {}
    deltas = []
    for index in range(draw(st.integers(1, 12))):
        prev = dict(progress)
        grown = draw(st.sampled_from(SHARDS))
        for shard in SHARDS:
            step = draw(st.integers(0, 3)) + (shard == grown)
            progress[shard] = progress.get(shard, 0) + step
        entry = MetalogEntry(index=index, progress=freeze_progress(progress),
                             start_pos=metalog.total_ordered())
        metalog.append(entry)
        deltas.append(delta_set(prev, entry))
    return metalog.entries_from(0), deltas


def blocked_on_gap(follower):
    return bool(follower.buffer) and follower.applied not in follower.buffer


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), log=metalogs())
def test_out_of_order_offers_apply_once_in_index_order(data, log):
    entries, deltas = log
    n = len(entries)
    # Every entry at least once, in a random order, plus duplicates and
    # drains (None) interleaved anywhere.
    extras = data.draw(st.lists(st.sampled_from(list(range(n)) + [None]), max_size=3 * n))
    steps = data.draw(st.permutations(list(range(n)) + extras))
    follower = MetalogFollower(term=1, log_id=0)
    applied = []

    def apply(state, entry, delta):
        assert state is follower
        applied.append((entry.index, delta))

    for now, step in enumerate(steps + [None]):
        if step is not None:
            follower.offer(entries[step])
            continue
        follower.drain(float(now), apply)
        assert (follower.stalled_since is not None) == blocked_on_gap(follower)
        if follower.stalled_since is not None:
            assert follower.stalled_since <= now
    assert applied == list(enumerate(deltas))
    assert follower.applied == n
    assert follower.buffer == {}
    assert follower.stalled_since is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), log=metalogs())
def test_a_refused_entry_blocks_the_drain_and_stamps_the_stall(data, log):
    entries, deltas = log
    refused = data.draw(st.integers(0, len(entries) - 1))
    follower = MetalogFollower(term=1, log_id=0)
    applied = []
    for entry in reversed(entries):
        follower.offer(entry)

    def apply(state, entry, delta):
        applied.append(entry.index)

    def ready(delta):
        return delta != deltas[refused]

    follower.drain(1.0, apply, ready)
    assert applied == list(range(refused))
    assert follower.applied == refused
    assert follower.stalled_since == 1.0
    assert follower.next_delta() == deltas[refused]
    # Still refused: the stall keeps the instant it began.
    follower.drain(2.0, apply, ready)
    assert follower.stalled_since == 1.0
    # Ready now: the rest applies and the stall clears.
    follower.drain(3.0, apply)
    assert applied == list(range(len(entries)))
    assert follower.stalled_since is None
    assert follower.next_delta() == []


def test_a_duplicate_of_an_applied_entry_is_dropped():
    follower = MetalogFollower(term=1, log_id=0)
    entry = MetalogEntry(index=0, progress=freeze_progress({"a": 1}), start_pos=0)
    follower.offer(entry)
    follower.drain(1.0, lambda state, entry, delta: None)
    follower.offer(entry)
    follower.drain(2.0, lambda state, entry, delta: None)
    assert follower.buffer == {}
    assert follower.stalled_since is None


def test_a_fetch_is_due_by_the_stall_and_tail_clocks():
    def entry(index):
        return MetalogEntry(index=index, progress=freeze_progress({"a": index + 1}),
                            start_pos=index)

    def apply(state, entry, delta):
        pass

    follower = MetalogFollower(term=1, log_id=0)
    # Neither blocked nor waiting: never due, however long it has been.
    assert follower.fetch_due(1.0, waiting=False) is None
    # Blocked at t=1 (entry 1 buffered, entry 0 missing): a gap fetch is
    # due after STALL_FETCH_DELAY, then every STALL_FETCH_DELAY.
    follower.offer(entry(1))
    follower.drain(1.0, apply)
    assert follower.stalled_since == 1.0
    assert follower.fetch_due(1.0 + 0.9 * STALL_FETCH_DELAY, waiting=False) is None
    first = 1.0 + 1.1 * STALL_FETCH_DELAY
    assert follower.fetch_due(first, waiting=False) == "gap"
    assert follower.fetch_due(first + 0.9 * STALL_FETCH_DELAY, waiting=False) is None
    assert follower.fetch_due(first + 1.1 * STALL_FETCH_DELAY, waiting=False) == "gap"
    # The gap fills at t=2: the drain advances and is no longer blocked.
    follower.offer(entry(0))
    follower.drain(2.0, apply)
    assert follower.stalled_since is None
    assert follower.fetch_due(3.0, waiting=False) is None
    # A wait that begins at t=3 with no advance: a tail poll is due after
    # TAIL_FETCH_DELAY, then every TAIL_FETCH_DELAY.
    follower.begin_wait(3.0)
    assert follower.fetch_due(3.0 + 0.9 * TAIL_FETCH_DELAY, waiting=True) is None
    poll = 3.0 + 1.1 * TAIL_FETCH_DELAY
    assert follower.fetch_due(poll, waiting=True) == "tail"
    assert follower.fetch_due(poll + 0.9 * TAIL_FETCH_DELAY, waiting=True) is None
    assert follower.fetch_due(poll + 1.1 * TAIL_FETCH_DELAY, waiting=True) == "tail"
    # An advance resets the tail clock.
    advanced = poll + 1.5 * TAIL_FETCH_DELAY
    follower.offer(entry(2))
    follower.drain(advanced, apply)
    assert follower.fetch_due(advanced + 0.9 * TAIL_FETCH_DELAY, waiting=True) is None
    assert follower.fetch_due(advanced + 1.1 * TAIL_FETCH_DELAY, waiting=True) == "tail"
    # A node that stops waiting is never due again.
    assert follower.fetch_due(advanced + 10 * TAIL_FETCH_DELAY, waiting=False) is None
