"""fault / FaultInjector unit tests against a tiny two-node setup,
plus the fault timelines of the committed chaos goldens."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos.faults import ACTIONS, FaultInjector, book_primary, fault
from repro.core.cluster import BokiCluster
from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcTimeout
from repro.sim.node import Node
from repro.sim.seam import subscribe

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "bench" / "chaos"

#: Timeline entries that are not plan events: the autoscaler's decisions
#: (merged in by ``Run.result``) and the crashes workflow hooks report.
NON_PLAN_ACTIONS = {"scale-in", "scale-out", "reconfig-failed", "workflow_crash"}


def make_pair():
    env = Environment()
    net = Network(env)
    a = net.register(Node(env, "a"))
    b = net.register(Node(env, "b"))
    return env, net, a, b


def inject(env, net, *events):
    """Start an injector on the two-node setup (all it needs of a
    cluster is ``env`` and ``net``)."""
    injector = FaultInjector(SimpleNamespace(env=env, net=net), events)
    injector.start()
    return injector


class TestFault:
    def test_events_sorted_by_time_with_stable_ties(self):
        plan = [
            fault(0.5, "crash", "a"),
            fault(0.2, "restart", "a"),
            fault(0.5, "partition_groups", [["a"], ["b"]]),
            fault(0.1, "heal_all"),
        ]
        env, net, a, b = make_pair()
        ordered = FaultInjector(SimpleNamespace(env=env, net=net), plan).pending
        assert [e.at for e in ordered] == [0.1, 0.2, 0.5, 0.5]
        # Ties preserve insertion order: crash was added before the partition.
        assert [e.action for e in ordered[2:]] == ["crash", "partition_groups"]

    def test_a_partial_link_fault_records_every_default(self):
        """Required parameters are ``args``; every defaulted one is a
        kwarg, given or not, sorted by name."""
        event = fault(0.1, "link_fault", "a", "b", drop=0.5, symmetric=False)
        assert (event.action, event.args) == ("link_fault", ["a", "b"])
        assert event.kwargs == {"delay": 0.0, "drop": 0.5, "dup": 0.0, "symmetric": False}
        assert list(event.kwargs) == sorted(event.kwargs)
        assert fault(0.1, "link_fault", "a", "b", 0.5).kwargs["drop"] == 0.5

    def test_args_are_json_ready_when_the_plan_is_built(self):
        event = fault(0.1, "partition_groups", (("a",), ("b", "c")))
        assert event.args == [[["a"], ["b", "c"]]]
        assert json.loads(json.dumps(event.args)) == event.args

    @pytest.mark.parametrize("action, args, kwargs", [
        ("slowdown", ("a",), {}),
        ("crash", ("a", "b"), {}),
        ("link_fault", ("a", "b"), {"loss": 0.5}),
    ], ids=["missing-argument", "extra-argument", "unknown-keyword"])
    def test_arguments_off_the_actions_signature_raise_when_built(self, action, args, kwargs):
        """Each entry's signature is the arguments its events take."""
        with pytest.raises(TypeError):
            fault(0.0, action, *args, **kwargs)


class TestFaultInjector:
    def test_crash_and_restart_applied_at_scheduled_times(self):
        env, net, a, b = make_pair()
        injector = inject(env, net, fault(0.1, "crash", "b"), fault(0.25, "restart", "b"))
        observed = []

        def probe():
            for _ in range(4):
                observed.append((round(env.now, 3), b.alive))
                yield env.timeout(0.1)

        proc = env.process(probe())
        env.run_until(proc, limit=5.0)
        assert observed == [(0.0, True), (0.1, False), (0.2, False), (0.3, True)]
        assert [e["action"] for e in injector.timeline] == ["crash", "restart"]
        assert [e["t"] for e in injector.timeline] == [0.1, 0.25]
        assert injector.pending == []

    def test_partition_groups_and_heal_all(self):
        env, net, a, b = make_pair()
        inject(env, net, fault(0.1, "partition_groups", [["a"], ["b"]]), fault(0.3, "heal_all"))
        seen = []

        def probe():
            seen.append((round(env.now, 2), net.reachable("a", "b")))
            yield env.timeout(0.2)
            seen.append((round(env.now, 2), net.reachable("a", "b")))
            yield env.timeout(0.2)
            seen.append((round(env.now, 2), net.reachable("a", "b")))

        proc = env.process(probe())
        env.run_until(proc, limit=5.0)
        assert seen == [(0.0, True), (0.2, False), (0.4, True)]

    def test_partition_groups_blocks_rpc_until_healed(self):
        env, net, a, b = make_pair()
        b.handle("ping", lambda payload: "pong")
        inject(env, net, fault(0.1, "partition_groups", [["a"], ["b"]]), fault(0.2, "heal_all"))
        results = []

        def caller():
            for _ in range(3):
                try:
                    results.append((yield net.rpc(a, b, "ping", timeout=0.05)))
                except RpcTimeout:
                    results.append("timeout")
                yield env.timeout(0.1)

        proc = env.process(caller())
        env.run_until(proc, limit=5.0)
        assert results == ["pong", "timeout", "pong"]

    def test_slowdown_delays_message_handling(self):
        env, net, a, b = make_pair()
        b.handle("ping", lambda payload: "pong")
        inject(env, net, fault(0.05, "slowdown", "b", 0.01))
        latencies = []

        def caller():
            for _ in range(2):
                started = env.now
                yield net.rpc(a, b, "ping")
                latencies.append(env.now - started)
                yield env.timeout(0.1)

        proc = env.process(caller())
        env.run_until(proc, limit=5.0)
        assert latencies[0] < 0.005
        assert latencies[1] > 0.01  # slowdown applied to the request leg

    def test_mark_applies_nothing_and_logs_its_label(self):
        env, net, a, b = make_pair()
        injector = inject(env, net, fault(0.1, "mark", "surge"))
        env.run(until=0.2)
        assert a.alive and b.alive and net.reachable("a", "b")
        assert injector.timeline == [{"t": 0.1, "action": "mark", "args": ["surge"]}]

    def test_timeline_entry_is_the_event_itself(self):
        env, net, a, b = make_pair()
        injector = inject(env, net, fault(0.1, "link_fault", "a", "b", drop=0.5),
                          fault(0.2, "partition_groups", [["a"], ["b"]]))
        env.run(until=0.3)
        assert [{k: v for k, v in e.items() if k != "t"} for e in injector.timeline] == [
            {"action": "link_fault", "args": ["a", "b"],
             "kwargs": {"delay": 0.0, "drop": 0.5, "dup": 0.0, "symmetric": True}},
            {"action": "partition_groups", "args": [[["a"], ["b"]]]},
        ]

    def test_empty_plan_schedules_nothing_and_record_reports_a_fault(self):
        env, net, a, b = make_pair()
        injector = inject(env, net)
        assert env.peek() is None
        seen = []
        subscribe(injector, "fault_applied", seen.append)
        env.run(until=0.3)
        injector.record("workflow_crash", "wf-1", "before-step-2")
        entry = {"t": 0.3, "action": "workflow_crash", "args": ["wf-1", "before-step-2"]}
        assert injector.timeline == seen == [entry]

    def test_unknown_action_raises(self):
        """The table is the vocabulary: a plan cannot name anything else."""
        with pytest.raises(ValueError):
            fault(0.0, "explode")

    def test_an_event_that_raises_stays_pending_and_off_the_timeline(self):
        """Applying ``crash`` of a node the cluster does not have raises;
        the event is not applied, so it stays pending and unrecorded."""
        env, net, a, b = make_pair()
        injector = inject(env, net, fault(0.1, "crash", "c"), fault(0.2, "crash", "b"))
        env.run(until=0.3)
        assert [(e.action, e.args) for e in injector.pending] == [
            ("crash", ["c"]), ("crash", ["b"])]
        assert injector.timeline == [] and b.alive

    def test_crash_primary_crashes_the_current_terms_primary(self):
        """After a reconfiguration has moved book 1's log to another
        sequencer, ``crash_primary`` crashes that one, not the boot term's."""
        cluster = BokiCluster(num_sequencer_nodes=6)
        cluster.boot()
        boot_primary = book_primary(cluster, 1)
        others = [q.name for q in cluster.sequencer_nodes
                  if q.name not in cluster.term.assignment(cluster.term.log_for_book(1)).sequencers]
        cluster.drive(cluster.controller.reconfigure(sequencer_names=others))
        new_primary = book_primary(cluster, 1)
        assert cluster.controller.current_term.term_id == 2 and new_primary != boot_primary
        at = cluster.env.now + 0.1
        injector = FaultInjector(cluster, [fault(at, "crash_primary", 1)])
        injector.start()
        cluster.env.run(until=at + 0.1)
        assert not cluster.net.nodes[new_primary].alive
        assert cluster.net.nodes[boot_primary].alive
        assert injector.timeline == [{"t": round(at, 9), "action": "crash_primary", "args": [1]}]


class TestGoldenTimelines:
    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("chaos_*.json")),
                             ids=lambda path: path.stem)
    def test_every_entry_is_a_table_action_or_a_reported_decision(self, path):
        """A golden's timeline is a replayable record: each plan entry
        rebuilds into the event it was recorded from."""
        timeline = json.loads(path.read_text())["timeline"]
        assert timeline
        for entry in timeline:
            action = entry["action"]
            assert action in ACTIONS or action in NON_PLAN_ACTIONS, entry
            if action in ACTIONS:
                args, kwargs = entry["args"], entry.get("kwargs", {})
                event = fault(entry["t"], action, *args, **kwargs)
                assert (event.args, event.kwargs) == (args, kwargs)


class TestLinkFaults:
    def test_drop_probability_one_loses_every_send(self):
        env, net, a, b = make_pair()
        got = []
        b.handle("data", got.append)
        net.set_link_fault("a", "b", drop=1.0, symmetric=False)

        def sender():
            for i in range(5):
                net.send(a, b, "data", i)
                yield env.timeout(0.01)

        proc = env.process(sender())
        env.run_until(proc, limit=5.0)
        env.run(until=env.now + 0.05)
        assert got == []

    def test_dup_probability_one_duplicates_but_never_reduplicates(self):
        env, net, a, b = make_pair()
        got = []
        b.handle("data", got.append)
        net.set_link_fault("a", "b", dup=1.0, symmetric=False)
        net.send(a, b, "data", "x")
        env.run(until=0.1)
        assert got == ["x", "x"]  # exactly one duplicate

    def test_delay_defers_delivery(self):
        env, net, a, b = make_pair()
        got = []
        b.handle("data", lambda payload: got.append(env.now))
        net.set_link_fault("a", "b", delay=0.05, symmetric=False)
        net.send(a, b, "data", "x")
        env.run(until=0.2)
        assert len(got) == 1 and got[0] > 0.05

    def test_clearing_faults_restores_delivery(self):
        env, net, a, b = make_pair()
        got = []
        b.handle("data", got.append)
        net.set_link_fault("a", "b", drop=1.0)
        net.send(a, b, "data", 1)
        env.run(until=0.05)
        net.clear_link_faults()
        net.send(a, b, "data", 2)
        env.run(until=0.1)
        assert got == [2]

    def test_fault_free_runs_consume_no_chaos_randomness(self):
        """Installing the chaos stream lazily keeps fault-free simulations
        byte-for-byte identical to builds without chaos support."""
        env, net, a, b = make_pair()
        assert net._chaos_rng is None
        net.send(a, b, "data", 1)
        env.run(until=0.05)
        assert net._chaos_rng is None
