"""Direct unit tests of sequencer-node handlers (replication protocol)."""

import pytest

from repro.core.config import BokiConfig
from repro.core.metalog import MetalogEntry, SealedError
from repro.core.placement import build_term
from repro.core.sequencer import SequencerNode
from repro.sim import Environment, Network, Node
from repro.sim.seam import subscribe
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def world():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=31))
    config = BokiConfig()
    sequencers = [SequencerNode(env, net, f"q{i}", config) for i in range(3)]
    # Register placeholder engine/storage nodes so placement is valid.
    for name in ["e0", "e1", "s0", "s1", "s2"]:
        net.register(Node(env, name))
    term = build_term(config, 1, ["e0", "e1"], ["s0", "s1", "s2"], ["q0", "q1", "q2"], 1)
    for seq in sequencers:
        seq.configure(term)
    caller = net.register(Node(env, "caller"))
    return env, net, sequencers, term, caller


def entry(index, progress, start_pos):
    return MetalogEntry(index=index, progress=dict(sorted(progress.items())), start_pos=start_pos)


def rpc(env, net, caller, dst, method, payload):
    proc = net.rpc(caller, dst, method, payload, timeout=1.0)
    return env.run_until(proc, limit=60.0)


class TestReplicateHandler:
    def test_accepts_in_order(self, world):
        env, net, sequencers, term, caller = world
        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        ok = rpc(env, net, caller, secondary.name, "seq.replicate",
                 {"term": 1, "log_id": 0, "entry": entry(0, {"e0": 1}, 0)})
        assert ok is True
        assert len(secondary.replicas[(1, 0)]) == 1

    def test_duplicate_is_idempotent(self, world):
        env, net, sequencers, term, caller = world
        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        payload = {"term": 1, "log_id": 0, "entry": entry(0, {"e0": 1}, 0)}
        rpc(env, net, caller, secondary.name, "seq.replicate", payload)
        ok = rpc(env, net, caller, secondary.name, "seq.replicate", payload)
        assert ok is True
        assert len(secondary.replicas[(1, 0)]) == 1

    def test_gap_rejected(self, world):
        env, net, sequencers, term, caller = world
        from repro.sim.network import RpcError

        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        with pytest.raises(RpcError):
            rpc(env, net, caller, secondary.name, "seq.replicate",
                {"term": 1, "log_id": 0, "entry": entry(5, {"e0": 9}, 40)})

    def test_rejected_after_seal(self, world):
        env, net, sequencers, term, caller = world
        from repro.sim.network import RpcError

        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        rpc(env, net, caller, secondary.name, "seq.seal", {"term": 1, "log_id": 0})
        with pytest.raises(RpcError):
            rpc(env, net, caller, secondary.name, "seq.replicate",
                {"term": 1, "log_id": 0, "entry": entry(0, {"e0": 1}, 0)})


class TestSealHandler:
    def test_returns_replica_length(self, world):
        env, net, sequencers, term, caller = world
        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        rpc(env, net, caller, secondary.name, "seq.replicate",
            {"term": 1, "log_id": 0, "entry": entry(0, {"e0": 2}, 0)})
        length = rpc(env, net, caller, secondary.name, "seq.seal", {"term": 1, "log_id": 0})
        assert length == 1

    def test_seal_is_idempotent(self, world):
        env, net, sequencers, term, caller = world
        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        first = rpc(env, net, caller, secondary.name, "seq.seal", {"term": 1, "log_id": 0})
        second = rpc(env, net, caller, secondary.name, "seq.seal", {"term": 1, "log_id": 0})
        assert first == second == 0

    def test_seal_of_unknown_log_reports_empty(self, world):
        env, net, sequencers, term, caller = world
        length = rpc(env, net, caller, sequencers[0].name, "seq.seal",
                     {"term": 9, "log_id": 7})
        assert length == 0


class TestFetchEntries:
    def test_returns_suffix(self, world):
        env, net, sequencers, term, caller = world
        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        for i in range(3):
            rpc(env, net, caller, secondary.name, "seq.replicate",
                {"term": 1, "log_id": 0, "entry": entry(i, {"e0": i + 1}, i)})
        entries = rpc(env, net, caller, secondary.name, "seq.fetch_entries",
                      {"term": 1, "log_id": 0, "from_index": 1})
        assert [e.index for e in entries] == [1, 2]

    def test_unknown_replica_returns_empty(self, world):
        env, net, sequencers, term, caller = world
        entries = rpc(env, net, caller, sequencers[0].name, "seq.fetch_entries",
                      {"term": 4, "log_id": 2, "from_index": 0})
        assert entries == []


class TestTrimHandler:
    def test_primary_buffers_trim(self, world):
        env, net, sequencers, term, caller = world
        primary = next(s for s in sequencers if s.name == term.assignment(0).primary)
        ok = rpc(env, net, caller, primary.name, "seq.append_trim",
                 {"term": 1, "log_id": 0, "book_id": 5, "tag": 2, "until_seqnum": 99})
        assert ok is True
        assert len(primary._primary_state[(1, 0)].pending_trims) == 1

    def test_secondary_rejects_trim(self, world):
        env, net, sequencers, term, caller = world
        from repro.sim.network import RpcError

        secondary = next(s for s in sequencers if s.name != term.assignment(0).primary)
        with pytest.raises(RpcError):
            rpc(env, net, caller, secondary.name, "seq.append_trim",
                {"term": 1, "log_id": 0, "book_id": 5, "tag": 2, "until_seqnum": 99})


class TestDriver:
    def test_a_late_report_never_regresses_the_tail(self, world):
        """A report that shrinks a shard's minimum below the tail (a slow
        or restarted storage node's) yields no entry below the tail on any
        shard: every entry the primary proposes is max-merged with it."""
        env, net, sequencers, term, caller = world
        primary = term.assignment(0).primary
        secondary = next(s for s in term.assignment(0).sequencers if s != primary)
        proposed = []  # every entry the primary asks a secondary to store
        subscribe(net, "message_sent", lambda call, is_rpc: proposed.append(call.payload["entry"])
                  if call.method == "seq.replicate" and call.dst.name == secondary else None)

        def report(storage, vector):
            net.send(caller, primary, "seq.report_progress",
                     {"term": 1, "log_id": 0, "storage": storage, "vector": vector})
            env.run(until=env.now + 0.01)

        for storage in ("s0", "s1", "s2"):
            report(storage, {"e0": 4, "e1": 2})
        report("s1", {"e0": 1, "e1": 3})  # e0's minimum drops to 1
        for storage in ("s0", "s2"):
            report(storage, {"e0": 4, "e1": 5})  # e1's minimum rises to 3

        replica = next(s for s in sequencers if s.name == primary).replicas[(1, 0)]
        assert replica.tail == {"e0": 4, "e1": 3}
        assert replica.ordered == 7
        tail = {}
        for proposal in proposed:
            assert list(proposal.progress) == sorted(proposal.progress)
            assert all(proposal.progress.get(shard, 0) >= count for shard, count in tail.items())
            tail = proposal.progress
        # The merged vector is compared with the tail before the max-merge,
        # so each report that leaves e0's minimum at 1 still makes an entry.
        assert [e.progress for e in replica.entries] == [
            {"e0": 0, "e1": 0}, {"e0": 4, "e1": 2}, {"e0": 4, "e1": 2}, {"e0": 4, "e1": 2},
            {"e0": 4, "e1": 3}]
        assert [p.progress for p in proposed] == [e.progress for e in replica.entries]
