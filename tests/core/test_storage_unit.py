"""Direct unit tests of storage-node handlers (replication, ordering,
out-of-order entry application, trims)."""

import pytest

from repro.core.config import BokiConfig
from repro.core.metalog import MetalogEntry, TrimCommand, freeze_progress
from repro.core.placement import build_term
from repro.core.storage import StorageNode
from repro.core.types import pack_seqnum
from repro.sim import Environment, Network, Node
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

    def test_read_unordered_record_fails(self, world):
        env, net, storage, caller, term = world
        from repro.sim.network import RpcError

        replicate(env, net, caller, 0)
        proc = net.rpc(caller, "s0", "storage.read",
                       {"seqnum": pack_seqnum(1, 0, 0)}, timeout=1.0)
        with pytest.raises(RpcError):
            env.run_until(proc, limit=60.0)


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
