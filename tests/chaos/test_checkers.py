"""Checker unit tests over hand-built histories.

Each checker is exercised both ways: a legal history passes, and a
deliberately broken one (stale read, duplicated effect, lost message) is
flagged — the checkers must have teeth.
"""

from math import inf

from repro.chaos.checkers import (
    register_linearizable,
    check_exactly_once,
    check_metalog,
    check_queue_delivery,
    check_store_linearizability,
)
from repro.chaos.history import History, Op
from repro.sim.kernel import Environment


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, dt=1.0):
        self.now += dt
        return self.now


def make_history():
    return History(FakeClock())


def add_op(history, clock, client, kind, key, value=None, result=None,
           status="ok", duration=1.0):
    clock.tick(0.5)  # strict gap: each op finishes before the next begins
    op = history.invoke(client, kind, key, value)
    clock.tick(duration)
    if status == "ok":
        history.ok(op, result=result)
    elif status == "fail":
        history.fail(op, error="boom")
    return op


class TestRegisterLinearizable:
    def test_sequential_write_read(self):
        ops = [
            {"op_id": 0, "kind": "w", "val": "1", "t_inv": 0, "t_ret": 1},
            {"op_id": 1, "kind": "r", "val": "1", "t_inv": 2, "t_ret": 3},
        ]
        assert register_linearizable(ops)

    def test_stale_read_rejected(self):
        ops = [
            {"op_id": 0, "kind": "w", "val": "1", "t_inv": 0, "t_ret": 1},
            {"op_id": 1, "kind": "w", "val": "2", "t_inv": 2, "t_ret": 3},
            {"op_id": 2, "kind": "r", "val": "1", "t_inv": 4, "t_ret": 5},
        ]
        assert not register_linearizable(ops)

    def test_concurrent_writes_allow_either_order(self):
        for read_val in ("1", "2"):
            ops = [
                {"op_id": 0, "kind": "w", "val": "1", "t_inv": 0, "t_ret": 3},
                {"op_id": 1, "kind": "w", "val": "2", "t_inv": 0, "t_ret": 3},
                {"op_id": 2, "kind": "r", "val": read_val, "t_inv": 4, "t_ret": 5},
            ]
            assert register_linearizable(ops)

    def test_indeterminate_write_may_take_effect_or_not(self):
        # The write never returned (client crashed); a later read may see
        # it or not — both must be accepted.
        for read_val in ("null", "1"):
            ops = [
                {"op_id": 0, "kind": "w", "val": "1", "t_inv": 0, "t_ret": inf},
                {"op_id": 1, "kind": "r", "val": read_val, "t_inv": 4, "t_ret": 5},
            ]
            assert register_linearizable(ops)

    def test_read_of_never_written_value_rejected(self):
        ops = [
            {"op_id": 0, "kind": "w", "val": "1", "t_inv": 0, "t_ret": 1},
            {"op_id": 1, "kind": "r", "val": "42", "t_inv": 2, "t_ret": 3},
        ]
        assert not register_linearizable(ops)


class TestStoreLinearizability:
    def test_legal_history_passes(self):
        clock = FakeClock()
        history = History(clock)
        add_op(history, clock, "c1", "store.put", "k", value={"v": 1})
        add_op(history, clock, "c1", "store.get", "k", result={"v": 1})
        result = check_store_linearizability(history)
        assert result.ok and result.checked == 2

    def test_stale_read_flagged(self):
        clock = FakeClock()
        history = History(clock)
        add_op(history, clock, "c1", "store.put", "k", value={"v": 1})
        add_op(history, clock, "c1", "store.put", "k", value={"v": 2})
        add_op(history, clock, "c2", "store.get", "k", result={"v": 1})
        result = check_store_linearizability(history)
        assert not result.ok
        assert "not linearizable" in result.violations[0]

    def test_keys_are_independent_registers(self):
        clock = FakeClock()
        history = History(clock)
        add_op(history, clock, "c1", "store.put", "a", value={"v": 1})
        add_op(history, clock, "c1", "store.put", "b", value={"v": 2})
        add_op(history, clock, "c1", "store.get", "a", result={"v": 1})
        add_op(history, clock, "c1", "store.get", "b", result={"v": 2})
        assert check_store_linearizability(history).ok

    def test_incomplete_write_tolerated(self):
        clock = FakeClock()
        history = History(clock)
        add_op(history, clock, "c1", "store.put", "k", value={"v": 1})
        add_op(history, clock, "c2", "store.put", "k", value={"v": 2},
               status="invoked")
        add_op(history, clock, "c1", "store.get", "k", result={"v": 1})
        assert check_store_linearizability(history).ok


class TestExactlyOnce:
    def test_clean_log_passes(self):
        log = [(("wf", 0), "t", "k0"), (("wf", 1), "t", "k1")]
        result = check_exactly_once(log, [("wf", 0), ("wf", 1)])
        assert result.ok and result.checked == 2

    def test_duplicate_effect_flagged(self):
        log = [(("wf", 0), "t", "k"), (("wf", 0), "t", "k")]
        result = check_exactly_once(log, [("wf", 0)])
        assert not result.ok
        assert "duplicate" in result.violations[0]

    def test_lost_effect_flagged(self):
        result = check_exactly_once([(("wf", 0), "t", "k")], [("wf", 0), ("wf", 1)])
        assert not result.ok
        assert any("lost write" in v for v in result.violations)


class TestQueueDelivery:
    def _push(self, history, clock, value, status="ok"):
        return add_op(history, clock, "p", "queue.push", "q", value=value,
                      status=status)

    def _pop(self, history, clock, value):
        return add_op(history, clock, "c", "queue.pop", "q", result=value)

    def test_clean_delivery_passes(self):
        clock = FakeClock()
        history = History(clock)
        self._push(history, clock, "m1")
        self._push(history, clock, "m2")
        self._pop(history, clock, "m1")
        self._pop(history, clock, "m2")
        assert check_queue_delivery(history).ok

    def test_lost_message_flagged_when_drained(self):
        clock = FakeClock()
        history = History(clock)
        self._push(history, clock, "m1")
        self._push(history, clock, "m2")
        self._pop(history, clock, "m1")
        result = check_queue_delivery(history)
        assert not result.ok
        assert "lost" in result.violations[0]

    def test_unacknowledged_push_may_be_absent(self):
        clock = FakeClock()
        history = History(clock)
        self._push(history, clock, "m1", status="invoked")
        assert check_queue_delivery(history).ok

    def test_duplicate_delivery_flagged(self):
        clock = FakeClock()
        history = History(clock)
        self._push(history, clock, "m1")
        self._pop(history, clock, "m1")
        self._pop(history, clock, "m1")
        result = check_queue_delivery(history)
        assert not result.ok
        assert "duplicate" in result.violations[0]

    def test_phantom_delivery_flagged(self):
        clock = FakeClock()
        history = History(clock)
        self._pop(history, clock, "ghost")
        result = check_queue_delivery(history)
        assert not result.ok
        assert "phantom" in result.violations[0]


class TestMetalogChecker:
    def test_healthy_cluster_passes(self):
        from repro.core.cluster import BokiCluster

        c = BokiCluster(num_function_nodes=2, seed=7)
        c.boot()

        def flow():
            book = c.logbook(1)
            for i in range(10):
                yield from book.append(f"r{i}")
            return True

        assert c.drive(flow(), limit=60.0)
        result = check_metalog(c)
        assert result.ok and result.checked > 0

    def test_tampered_replica_flagged(self):
        from repro.core.cluster import BokiCluster

        c = BokiCluster(num_function_nodes=2, seed=7)
        c.boot()

        def flow():
            book = c.logbook(1)
            for i in range(10):
                yield from book.append(f"r{i}")
            return True

        assert c.drive(flow(), limit=60.0)
        # Corrupt one replica's second entry: fork its start_pos.
        qnode = c.sequencer_nodes[0]
        (key, replica) = sorted(qnode.replicas.items())[0]
        entries = replica.entries_from(0)
        assert len(entries) >= 2
        object.__setattr__(entries[1], "start_pos", entries[1].start_pos + 5)
        result = check_metalog(c)
        assert not result.ok


def _entries(n, diverge_at=None):
    """``n`` well-formed metalog entries, each ordering one record of one
    shard; entry ``diverge_at`` carries a trim no other replica has."""
    from repro.core.metalog import MetalogEntry

    return [
        MetalogEntry(index=i, progress=(("s0", i + 1),), start_pos=i,
                     trims=("fork",) if i == diverge_at else ())
        for i in range(n)
    ]


def _stub_cluster(replicas):
    """A cluster with one sequencer per ``name -> entries`` item, each
    holding one replica of (term 1, log 0)."""
    from types import SimpleNamespace

    return SimpleNamespace(sequencer_nodes=[
        SimpleNamespace(name=name, replicas={
            (1, 0): SimpleNamespace(entries_from=lambda i, e=entries: e[i:]),
        })
        for name, entries in replicas.items()
    ])


class TestMetalogReplay:
    """What the replay through the metalog monitor must still catch, over
    stub clusters (no simulation)."""

    def test_consistent_replicas_pass(self):
        cluster = _stub_cluster({"q0": _entries(20), "q1": _entries(20),
                                 "q2": _entries(5)})
        result = check_metalog(cluster)
        assert result.ok and result.checked == 45

    def test_long_divergence_behind_a_short_replica_flagged(self):
        # The short replica stops 4,490 entries before the fork: more than
        # the monitor's digest cap. It must not hold the comparison of the
        # two long replicas back.
        cluster = _stub_cluster({
            "q0": _entries(5000),
            "q1": _entries(5000, diverge_at=4500),
            "q2": _entries(10),
        })
        result = check_metalog(cluster)
        assert result.violations == [
            "(1,0) entry 4500: replica q1 diverges from the agreed prefix"
        ]

    def test_index_gap_flagged(self):
        entries = _entries(6)
        del entries[3]
        result = check_metalog(_stub_cluster({"q0": entries}))
        assert result.violations[0] == "q0 (1,0): entry 3 has index 4"

    def test_progress_regression_flagged(self):
        from dataclasses import replace

        entries = _entries(4)
        entries[2] = replace(entries[2], progress=(("s0", 1),))
        result = check_metalog(_stub_cluster({"q0": entries}))
        assert any("progress for shard s0 regressed 2 -> 1" in v
                   for v in result.violations)

    def test_start_pos_miscount_flagged(self):
        from dataclasses import replace

        entries = _entries(4)
        entries[2] = replace(entries[2], start_pos=7)
        result = check_metalog(_stub_cluster({"q0": entries}))
        assert result.violations == [
            "q0 (1,0) entry 2: start_pos 7 != records ordered so far 2"
        ]


class TestQueueOrder:
    def test_reordered_delivery_flagged(self):
        # Consumer 0 delivers push seqnum 5, then the older seqnum 3.
        clock = FakeClock()
        history = History(clock)
        add_op(history, clock, "p", "queue.push", "q", value="m5", result=5)
        add_op(history, clock, "p", "queue.push", "q", value="m3", result=3)
        add_op(history, clock, "consumer-0", "queue.pop", "q", value=0,
               result="m5")
        add_op(history, clock, "consumer-0", "queue.pop", "q", value=0,
               result="m3")
        result = check_queue_delivery(history)
        assert not result.ok
        assert "reorder" in result.violations[0]
