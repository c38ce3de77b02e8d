"""Gateway failure semantics: typed errors, timeout-vs-failure, failover ids."""

import pytest

from repro.chaos.loads import pin_store_spread_bulk
from repro.core.cluster import BokiCluster
from repro.faas import FunctionNode, FunctionNotFoundError, Gateway
from repro.faas.gateway import NO_NODES_RETRY_AFTER, NoLiveNodesError
from repro.faas.scheduling import enable_locality_scheduling, enable_tenant_scheduling
from repro.resil import Resilience
from repro.sim import Environment, Network, Node
from repro.sim.network import RpcError, RpcTimeout
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def faas():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=9))
    gateway = Gateway(env, net)
    fnodes = [FunctionNode(env, net, f"fn-{i}", workers=4) for i in range(2)]
    for fnode in fnodes:
        gateway.add_function_node(fnode)
    client = net.register(Node(env, "client"))
    return env, net, gateway, fnodes, client


def drive(env, gen, limit=300.0):
    return env.run_until(env.process(gen), limit=limit)


class TestTypedErrors:
    def test_pick_node_without_nodes_is_typed(self):
        env = Environment()
        net = Network(env, ExactNetworkStreams(seed=1))
        gateway = Gateway(env, net)
        with pytest.raises(NoLiveNodesError):
            gateway.pick_node("f", None)

    def test_pick_node_all_dead_is_typed(self, faas):
        env, net, gateway, fnodes, client = faas
        for fnode in fnodes:
            fnode.node.crash()
        with pytest.raises(NoLiveNodesError):
            gateway.pick_node("f", None)

    def test_typed_error_is_still_a_runtime_error(self):
        # Compatibility: callers that caught the old untyped error keep
        # working.
        assert issubclass(NoLiveNodesError, RuntimeError)

    def test_no_live_nodes_surfaces_through_external_invoke(self, faas):
        env, net, gateway, fnodes, client = faas

        def noop(ctx, arg):
            yield env.timeout(0.001)
            return None

        gateway.register_function("noop", noop)
        for fnode in fnodes:
            fnode.node.crash()

        def flow():
            yield from gateway.external_invoke(client, "noop")

        with pytest.raises(NoLiveNodesError):
            drive(env, flow())

    def test_unknown_function_not_wrapped_in_rpc_error(self, faas):
        env, net, gateway, fnodes, client = faas

        def flow():
            yield from gateway.external_invoke(client, "missing")

        with pytest.raises(FunctionNotFoundError):
            drive(env, flow())

    def test_unknown_function_permanent_under_resilience(self, faas):
        env, net, gateway, fnodes, client = faas
        resil = Resilience(env, net, net.streams)
        resil.attach_gateway(gateway)

        def flow():
            yield from gateway.external_invoke(client, "missing")

        with pytest.raises(FunctionNotFoundError):
            drive(env, flow())
        assert resil.counters["retries"] == 0


def _tenant_scheduling(cluster):
    cluster.tenancy.registry.register("acme", weight=1.0)
    enable_tenant_scheduling(cluster)


#: Every picker, by name, with what installs it; the gateway's own
#: round-robin needs nothing installed.
PICKERS = {
    "gateway": lambda cluster: None,
    "locality": enable_locality_scheduling,
    "tenant": _tenant_scheduling,
    "chaos-store-spread-bulk": pin_store_spread_bulk,
}


class TestOneEligibilityRule:
    """Every picker schedules over ``Gateway.live_nodes``: the live
    nodes, narrowed to the active fleet."""

    @staticmethod
    def _cluster(install, **spares):
        cluster = BokiCluster(num_function_nodes=2, num_storage_nodes=3,
                              num_sequencer_nodes=3, **spares)
        cluster.enable_tenancy()
        cluster.boot()
        install(cluster)
        return cluster

    @pytest.mark.parametrize("install", list(PICKERS.values()), ids=list(PICKERS))
    def test_all_nodes_down_raises_the_typed_error(self, install):
        cluster = self._cluster(install)
        for fnode in cluster.function_nodes:
            fnode.node.crash()
        with pytest.raises(NoLiveNodesError) as raised:
            cluster.gateway.pick_node("bulk-op", 1)
        assert raised.value.retry_after == NO_NODES_RETRY_AFTER

    def test_locality_scheduler_never_picks_a_spare(self):
        cluster = self._cluster(enable_locality_scheduling, num_spare_function_nodes=2)
        assert cluster.gateway.active_nodes == {"func-0", "func-1"}
        picked = {cluster.gateway.pick_node("f", book_id).name
                  for book_id in (None, 5) for _ in range(8)}
        assert picked == {"func-0", "func-1"}


class TestTimeoutVsFailure:
    def test_handler_exception_surfaces_with_original_type(self, faas):
        env, net, gateway, fnodes, client = faas

        def bad(ctx, arg):
            yield env.timeout(0.001)
            raise ValueError("application bug")

        gateway.register_function("bad", bad)

        def flow():
            yield from gateway.external_invoke(client, "bad")

        with pytest.raises(ValueError, match="application bug"):
            drive(env, flow())

    def test_unreachable_gateway_surfaces_ambiguous_timeout(self, faas):
        env, net, gateway, fnodes, client = faas

        def noop(ctx, arg):
            yield env.timeout(0.001)
            return None

        gateway.register_function("noop", noop)
        net.partition("client", "gateway")

        def flow():
            yield from gateway.external_invoke(client, "noop", timeout=0.05)

        # No reply is ambiguous — the invocation may have executed — so the
        # client must see RpcTimeout, never a definite application error.
        with pytest.raises(RpcTimeout):
            drive(env, flow())

    def test_slow_function_surfaces_timeout_not_failure(self, faas):
        env, net, gateway, fnodes, client = faas

        def slow(ctx, arg):
            yield env.timeout(10.0)
            return None

        gateway.register_function("slow", slow)

        def flow():
            yield from gateway.external_invoke(client, "slow", timeout=0.1)

        with pytest.raises(RpcTimeout):
            drive(env, flow())


class TestInvocationIds:
    def test_invocation_id_stable_across_failover_retries(self, faas):
        env, net, gateway, fnodes, client = faas
        resil = Resilience(env, net, net.streams)
        resil.attach_gateway(gateway)
        state = {"failures_left": 2}

        def flaky(ctx, arg):
            yield env.timeout(0.001)
            if state["failures_left"] > 0:
                state["failures_left"] -= 1
                raise RuntimeError("transient")
            return "ok"

        gateway.register_function("flaky", flaky)
        exec_ids = []

        def tap(msg, is_rpc):
            if msg.method == "faas.exec":
                exec_ids.append(msg.payload["invocation_id"])

        net.message_sent.subscribe(tap)

        def flow():
            return (yield from gateway.external_invoke(client, "flaky"))

        assert drive(env, flow()) == "ok"
        assert len(exec_ids) == 3  # two failed executions + the success
        assert len(set(exec_ids)) == 1  # rerouted attempts reuse the id
        assert resil.counters["reroutes"] == 2

    def test_distinct_invocations_get_distinct_ids(self, faas):
        env, net, gateway, fnodes, client = faas

        def noop(ctx, arg):
            yield env.timeout(0.001)
            return None

        gateway.register_function("noop", noop)
        exec_ids = []

        def tap(msg, is_rpc):
            if msg.method == "faas.exec":
                exec_ids.append(msg.payload["invocation_id"])

        net.message_sent.subscribe(tap)

        def flow():
            for _ in range(3):
                yield from gateway.external_invoke(client, "noop")

        drive(env, flow())
        assert len(exec_ids) == 3
        assert len(set(exec_ids)) == 3
