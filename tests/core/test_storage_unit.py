"""Direct unit tests of storage-node handlers (replication, ordering,
out-of-order entry application, trims)."""

import pytest

from repro.core.config import BokiConfig
from repro.core.metalog import MetalogEntry, TrimCommand, freeze_progress
from repro.core.placement import build_term
from repro.core.storage import StorageNode
from repro.core.types import pack_seqnum
from repro.sim import Environment, Network, Node
from repro.sim.seam import subscribe
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def world():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=37))
    config = BokiConfig()
    storage = StorageNode(env, net, "s0", config)
    for name in ["s1", "s2", "e0", "q0", "q1", "q2"]:
        net.register(Node(env, name))
    term = build_term(config, 1, ["e0"], ["s0", "s1", "s2"], ["q0", "q1", "q2"], 1)
    storage.configure(term)
    caller = net.register(Node(env, "caller"))
    return env, net, storage, caller, term


def replicate(env, net, caller, local_id, data="x", tags=(2,), book=1):
    payload = {
        "term": 1, "log_id": 0, "shard": "e0", "local_id": local_id,
        "book_id": book, "tags": tuple(tags), "data": data, "seqnum": None,
    }
    proc = net.rpc(caller, "s0", "storage.replicate", payload, timeout=1.0)
    return env.run_until(proc, limit=60.0)


def entry(index, count, start_pos, trims=()):
    return MetalogEntry(
        index=index, progress=freeze_progress({"e0": count}),
        start_pos=start_pos, trims=tuple(trims),
    )


def deliver_entry(env, net, caller, storage, e):
    net.send(caller, "s0", "metalog.entry", {"term": 1, "log_id": 0, "entry": e})
    env.run(until=env.now + 0.01)


class TestReplication:
    def test_contiguous_prefix_tracking(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0)
        replicate(env, net, caller, 2)  # gap at 1
        assert storage._shard(1, 0, "e0").contiguous == 1
        replicate(env, net, caller, 1)
        assert storage._shard(1, 0, "e0").contiguous == 3

    def test_progress_reports_flow_to_primary(self, world):
        env, net, storage, caller, term = world
        reports = []
        primary = term.assignment(0).primary
        net.nodes[primary].handle(
            "seq.report_progress", lambda p: reports.append(p)
        )
        replicate(env, net, caller, 0)
        env.run(until=env.now + 0.01)
        assert reports
        assert reports[-1]["vector"] == {"e0": 1}


class TestOrdering:
    def test_entry_assigns_seqnums(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, data="first")
        deliver_entry(env, net, caller, storage, entry(0, 1, 0))
        seqnum = pack_seqnum(1, 0, 0)
        assert storage._by_seqnum[seqnum]["data"] == "first"

    def test_out_of_order_entries_buffered(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0)
        replicate(env, net, caller, 1)
        # Entry 1 arrives before entry 0 (network reordering).
        deliver_entry(env, net, caller, storage, entry(1, 2, 1))
        assert storage._log_state(1, 0).applied == 0
        deliver_entry(env, net, caller, storage, entry(0, 1, 0))
        assert storage._log_state(1, 0).applied == 2
        assert pack_seqnum(1, 0, 1) in storage._by_seqnum

    def test_read_served_after_ordering(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, data="readable")
        deliver_entry(env, net, caller, storage, entry(0, 1, 0))
        proc = net.rpc(caller, "s0", "storage.read",
                       {"seqnum": pack_seqnum(1, 0, 0)}, timeout=1.0)
        reply = env.run_until(proc, limit=60.0)
        assert reply["data"] == "readable"

    def test_ordering_leaves_the_shared_payload_unwritten(self, world):
        """Every backer of a shard holds the payload object the engine
        replicated; ordering indexes it by seqnum without writing it, and
        a read reply carries the seqnum that was asked for."""
        env, net, storage, caller, term = world
        payloads = [{
            "term": 1, "log_id": 0, "shard": "e0", "local_id": local_id,
            "book_id": 1, "tags": (2,), "data": f"r{local_id}", "seqnum": None,
        } for local_id in range(2)]
        for payload in payloads:
            env.run_until(net.rpc(caller, "s0", "storage.replicate", payload, timeout=1.0),
                          limit=60.0)
        deliver_entry(env, net, caller, storage, entry(0, 2, 7))
        for pos, payload in zip((7, 8), payloads):
            seqnum = pack_seqnum(1, 0, pos)
            assert storage._by_seqnum[seqnum] is payload
            assert payload["seqnum"] is None
            reply = env.run_until(
                net.rpc(caller, "s0", "storage.read", {"seqnum": seqnum}, timeout=1.0),
                limit=60.0)
            assert (reply["seqnum"], reply["data"]) == (seqnum, payload["data"])
            assert reply is not payload

    def test_read_unordered_record_fails(self, world):
        env, net, storage, caller, term = world
        from repro.sim.network import RpcError

        replicate(env, net, caller, 0)
        proc = net.rpc(caller, "s0", "storage.read",
                       {"seqnum": pack_seqnum(1, 0, 0)}, timeout=1.0)
        with pytest.raises(RpcError):
            env.run_until(proc, limit=60.0)


def test_a_backer_of_one_shard_applies_only_that_shards_records():
    """An entry ordering records of four shards: a node backing one of
    them orders and reports exactly that shard's records, at their
    positions in the entry's total order."""
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=37))
    config = BokiConfig(ndata=1)
    storage = StorageNode(env, net, "s0", config)
    for name in ["s1", "s2", "s3", "q0", "q1", "q2"]:
        net.register(Node(env, name))
    term = build_term(config, 1, ["e0", "e1", "e2", "e3"], ["s0", "s1", "s2", "s3"],
                      ["q0", "q1", "q2"], 1)
    backed = [shard for shard, nodes in term.assignment(0).shard_storage.items()
              if "s0" in nodes]
    assert backed == ["e2"]
    storage.configure(term)
    caller = net.register(Node(env, "caller"))
    applied = []
    subscribe(storage, "record_applied",
              lambda name, incarnation, term_id, log_id, shard, pos: applied.append((shard, pos)))
    for local_id in range(2):
        env.run_until(net.rpc(caller, "s0", "storage.replicate", {
            "term": 1, "log_id": 0, "shard": "e2", "local_id": local_id,
            "book_id": 1, "tags": (), "data": "x", "seqnum": None,
        }, timeout=1.0), limit=60.0)
    # Positions by (shard, local_id): e0 0-1, e1 2, e2 3-4, e3 5-7.
    e = MetalogEntry(index=0, progress=freeze_progress({"e0": 2, "e1": 1, "e2": 2, "e3": 3}),
                     start_pos=0)
    net.send(caller, "s0", "metalog.entry", {"term": 1, "log_id": 0, "entry": e})
    env.run(until=env.now + 0.01)
    assert applied == [("e2", 3), ("e2", 4)]
    assert storage.records_ordered == 2
    assert sorted(storage._by_seqnum) == [pack_seqnum(1, 0, 3), pack_seqnum(1, 0, 4)]


class TestTrims:
    def test_trim_command_reclaims_records(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, tags=(2,), book=1)
        replicate(env, net, caller, 1, tags=(2,), book=1)
        deliver_entry(env, net, caller, storage, entry(0, 2, 0))
        trim = TrimCommand(book_id=1, tag=2, until_seqnum=pack_seqnum(1, 0, 0))
        deliver_entry(env, net, caller, storage, entry(1, 2, 2, trims=[trim]))
        assert storage.trimmed_count == 1
        assert pack_seqnum(1, 0, 0) not in storage._by_seqnum
        assert pack_seqnum(1, 0, 1) in storage._by_seqnum

    def test_trim_other_book_untouched(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, book=1)
        replicate(env, net, caller, 1, book=9)
        deliver_entry(env, net, caller, storage, entry(0, 2, 0))
        trim = TrimCommand(book_id=1, tag=0, until_seqnum=pack_seqnum(1, 0, 5))
        deliver_entry(env, net, caller, storage, entry(1, 2, 2, trims=[trim]))
        assert storage.trimmed_count == 1
        assert pack_seqnum(1, 0, 1) in storage._by_seqnum

    def test_a_record_goes_once_none_of_its_tags_holds_it(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, tags=(2, 3), book=1)
        deliver_entry(env, net, caller, storage, entry(0, 1, 0))
        until = pack_seqnum(1, 0, 0)
        deliver_entry(env, net, caller, storage,
                      entry(1, 1, 1, trims=[TrimCommand(1, 2, until)]))
        assert until in storage._by_seqnum  # row 3 still holds it
        assert storage.trimmed_count == 0
        deliver_entry(env, net, caller, storage,
                      entry(2, 1, 1, trims=[TrimCommand(1, 3, until)]))
        assert until not in storage._by_seqnum and storage._held == {}
        assert storage.trimmed_count == 1


class TestMetaFetch:
    def test_fetch_meta_returns_contiguous_records(self, world):
        env, net, storage, caller, term = world
        replicate(env, net, caller, 0, tags=(4,), book=7)
        replicate(env, net, caller, 1, tags=(5,), book=7)
        proc = net.rpc(caller, "s0", "storage.fetch_meta",
                       {"term": 1, "log_id": 0, "shard": "e0", "from_local_id": 0},
                       timeout=1.0)
        metas = env.run_until(proc, limit=60.0)
        assert metas == {0: (7, (4,)), 1: (7, (5,))}


class TestAuxBackup:
    def test_backup_disabled_by_default(self, world):
        env, net, storage, caller, term = world
        net.send(caller, "s0", "storage.put_aux", {"seqnum": 1, "auxdata": "v"})
        env.run(until=env.now + 0.01)
        assert storage._aux_backup == {}

    def test_backup_stored_when_enabled(self):
        env = Environment()
        net = Network(env, ExactNetworkStreams(seed=38))
        config = BokiConfig(aux_backup=True)
        storage = StorageNode(env, net, "s0", config)
        caller = net.register(Node(env, "caller"))
        net.send(caller, "s0", "storage.put_aux", {"seqnum": 1, "auxdata": "v"})
        env.run(until=env.now + 0.01)
        assert storage._aux_backup == {1: "v"}
