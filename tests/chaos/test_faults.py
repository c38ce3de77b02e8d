"""FaultPlan / FaultInjector unit tests against a tiny two-node setup."""

import pytest

from repro.chaos.faults import FaultInjector, FaultPlan
from repro.sim.kernel import Environment
from repro.sim.network import Network, RpcTimeout
from repro.sim.node import Node


def make_pair():
    env = Environment()
    net = Network(env)
    a = net.register(Node(env, "a"))
    b = net.register(Node(env, "b"))
    return env, net, a, b


class TestFaultPlan:
    def test_events_sorted_by_time_with_stable_ties(self):
        plan = (
            FaultPlan()
            .crash(0.5, "a")
            .restart(0.2, "a")
            .isolate(0.5, "b")
            .heal_all(0.1)
        )
        ordered = plan.sorted_events()
        assert [e.at for e in ordered] == [0.1, 0.2, 0.5, 0.5]
        # Ties preserve insertion order: crash was added before isolate.
        assert [e.action for e in ordered[2:]] == ["crash", "isolate"]

    def test_builder_is_chainable_and_records_kwargs(self):
        plan = FaultPlan().link_fault(0.1, "a", "b", drop=0.5, symmetric=False)
        (event,) = plan.events
        assert event.action == "link_fault"
        assert event.kwargs_dict()["drop"] == 0.5
        assert event.kwargs_dict()["symmetric"] is False


class TestFaultInjector:
    def test_crash_and_restart_applied_at_scheduled_times(self):
        env, net, a, b = make_pair()
        plan = FaultPlan().crash(0.1, "b").restart(0.25, "b")
        injector = FaultInjector(env, net, plan)
        injector.start()
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

    def test_partition_groups_and_heal_all(self):
        env, net, a, b = make_pair()
        plan = (
            FaultPlan()
            .partition_groups(0.1, [["a"], ["b"]])
            .heal_all(0.3)
        )
        FaultInjector(env, net, plan).start()
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

    def test_isolate_blocks_rpc_until_unisolated(self):
        env, net, a, b = make_pair()
        b.handle("ping", lambda payload: "pong")
        plan = FaultPlan().isolate(0.1, "b").unisolate(0.2, "b")
        FaultInjector(env, net, plan).start()
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
        plan = FaultPlan().slowdown(0.05, "b", 0.01)
        FaultInjector(env, net, plan).start()
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

    def test_call_event_runs_callable_and_logs_label_only(self):
        env, net, a, b = make_pair()
        fired = []
        plan = FaultPlan().call(0.1, "custom-recovery", lambda: fired.append(env.now))
        injector = FaultInjector(env, net, plan)
        injector.start()
        env.run(until=0.2)
        assert fired == [0.1]
        assert injector.timeline == [
            {"t": 0.1, "action": "call", "args": ["custom-recovery"]}
        ]

    def test_unknown_action_raises(self):
        env, net, a, b = make_pair()
        plan = FaultPlan()
        plan._add(0.0, "explode")
        injector = FaultInjector(env, net, plan)
        with pytest.raises(ValueError):
            injector._apply(plan.events[0])


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
