"""BokiStore views are shared snapshots (§5.4): the aux cache, every
``ObjectView`` and every ``TxnObject`` read of one object hold the same
dict, so nothing a caller does to what a read hands back may reach it."""

import copy

import pytest

from repro.libs.bokistore import BokiStore, Transaction, apply_ops
from tests.libs.conftest import drive

STATE = {"items": [1, 2], "meta": {"k": "v"}}


@pytest.fixture
def stores(cluster):
    """The object written through engine 0; one store per indexing engine
    (engine 1 has no aux view yet, so its first read replays)."""
    engines = list(cluster.engines.values())[:2]
    stores = [BokiStore(cluster.logbook(9, engine=e)) for e in engines]
    seqnum = drive(cluster, stores[0].put("obj", STATE))
    return stores, seqnum


def _mutate(found):
    """The two mutations a caller may make to what a read returned."""
    if isinstance(found, list):
        found.append("leak")
    else:
        found["leak"] = True


def _assert_untouched(cluster, stores, seqnum):
    for store in stores:
        view = drive(cluster, store.get_object("obj"))
        assert view.as_dict() == STATE
        _, cached = store.book.engine.cache.lookup(seqnum)
        assert cached["view"]["obj"] == STATE


@pytest.mark.parametrize("reader", [0, 1])
@pytest.mark.parametrize("path", ["items", "meta"])
def test_mutating_a_view_get_result_leaves_the_object(cluster, stores, reader, path):
    stores, seqnum = stores
    view = drive(cluster, stores[reader].get_object("obj"))
    _mutate(view.get(path))
    assert view.get(path) == STATE[path]
    _assert_untouched(cluster, stores, seqnum)


@pytest.mark.parametrize("reader", [0, 1])
@pytest.mark.parametrize("path", ["items", "meta"])
def test_mutating_as_dict_leaves_the_object(cluster, stores, reader, path):
    stores, seqnum = stores
    view = drive(cluster, stores[reader].get_object("obj"))
    whole = view.as_dict()
    _mutate(whole[path])
    whole["extra"] = 1
    assert view.as_dict() == STATE
    _assert_untouched(cluster, stores, seqnum)


@pytest.mark.parametrize("reader", [0, 1])
@pytest.mark.parametrize("path", ["items", "meta"])
def test_mutating_a_txn_get_result_leaves_the_object(cluster, stores, reader, path):
    stores, seqnum = stores

    def flow():
        txn = yield from Transaction(stores[reader]).begin()
        obj = yield from txn.get_object("obj")
        _mutate(obj.get(path))
        assert obj.get(path) == STATE[path]
        return (yield from txn.commit())

    assert drive(cluster, flow()) is True
    _assert_untouched(cluster, stores, seqnum)


def test_a_view_is_a_snapshot_across_later_updates(cluster, stores):
    """``update`` applies its ops to the shared view through ``apply_ops``;
    a reader holding the view keeps the state it read."""
    stores, seqnum = stores
    before = drive(cluster, stores[0].get_object("obj"))
    drive(cluster, stores[0].update("obj", [{"op": "push", "path": "items", "value": 3},
                                            {"op": "set", "path": "meta.k", "value": "w"}]))
    assert before.as_dict() == STATE
    assert stores[0].book.engine.cache.lookup(seqnum)[1]["view"]["obj"] == STATE
    after = drive(cluster, stores[1].get_object("obj"))
    assert after.as_dict() == {"items": [1, 2, 3], "meta": {"k": "w"}}


def test_a_txn_write_leaves_the_snapshot_it_read(cluster, stores):
    stores, seqnum = stores

    def flow():
        txn = yield from Transaction(stores[0]).begin()
        obj = yield from txn.get_object("obj")
        obj.push_array("items", 3)
        obj.set("meta.k", "w")
        return obj.get("items"), (yield from txn.abort())

    items, _ = drive(cluster, flow())
    assert items == [1, 2, 3]
    _assert_untouched(cluster, stores, seqnum)


def test_apply_ops_leaves_its_input():
    obj = copy.deepcopy(STATE)
    out = apply_ops(obj, [{"op": "push", "path": "items", "value": 3},
                          {"op": "set", "path": "meta.k", "value": "w"},
                          {"op": "delete", "path": "gone"}])
    assert obj == STATE
    assert out == {"items": [1, 2, 3], "meta": {"k": "w"}}
    assert apply_ops(obj, [{"op": "replace", "value": {"a": 1}}]) == {"a": 1}
    assert obj == STATE


def test_get_returns_the_default_itself(cluster, stores):
    stores, _ = stores
    sentinel = object()

    def flow():
        view = yield from stores[0].get_object("obj")
        missing = yield from stores[0].get_object("ghost")
        txn = yield from Transaction(stores[0]).begin()
        obj = yield from txn.get_object("obj")
        return [view.get("missing", sentinel), view.get("items.deeper", sentinel),
                missing.get("x", sentinel), obj.get("missing", sentinel)]

    assert all(found is sentinel for found in drive(cluster, flow()))
