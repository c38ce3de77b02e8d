"""A call carries its metalog positions by value (§4.4, Figure 5).

A child is sent a copy of its parent's positions map and the parent merges
the child's map back when the child returns. No two executions share one
map: not a parent and its child, not two concurrent children, not two
executions of one rerouted request. A child is bound to its parent's book,
so a tenant call tree never leaves its log space.
"""

import pytest

from repro.core.cluster import BokiCluster
from repro.core.index import logspace_of
from repro.core.types import MetalogPosition
from repro.faas import FunctionNode, Gateway
from repro.resil import Resilience
from repro.sim import Environment, Network
from tests.conftest import ExactNetworkStreams

BOOK = 5


def _cluster():
    return BokiCluster(seed=0, num_function_nodes=2, num_storage_nodes=3,
                       num_sequencer_nodes=3)


def test_child_map_is_its_own_and_parent_advances_on_return():
    cluster = _cluster()
    cluster.boot()
    seen = {}

    def child(ctx, arg):
        book = cluster.logbook_for(ctx)
        parent = seen["parent_ctx"]
        seen["shared"] = ctx.positions is parent.positions
        seen["child_sent"] = dict(ctx.positions)
        yield from book.append({"by": "child"})
        seen["parent_while_child_ran"] = dict(parent.positions)
        seen["child_after_append"] = dict(ctx.positions)
        return None

    def parent(ctx, arg):
        seen["parent_ctx"] = ctx
        book = cluster.logbook_for(ctx)
        yield from book.append({"by": "parent"})
        seen["parent_before"] = dict(ctx.positions)
        yield from ctx.invoke("child")
        seen["parent_after"] = dict(ctx.positions)
        seen["handle_still_bound"] = book._positions is ctx.positions
        return None

    cluster.register_function("child", child)
    cluster.register_function("parent", parent)
    cluster.drive(cluster.invoke("parent", book_id=BOOK))

    assert seen["shared"] is False
    assert seen["child_sent"] == seen["parent_before"]
    assert seen["parent_while_child_ran"] == seen["parent_before"]
    (log_id,) = seen["parent_before"]
    assert seen["child_after_append"][log_id] > seen["parent_before"][log_id]
    assert seen["parent_after"] == seen["child_after_append"]
    assert seen["handle_still_bound"]


def test_a_rerouted_retry_of_one_payload_gets_its_own_map():
    """Resilience failover resends the very payload a failed execution was
    sent; what that execution did to its positions must not reach the
    retry or the payload."""
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=9))
    gateway = Gateway(env, net)
    for i in range(2):
        gateway.add_function_node(FunctionNode(env, net, f"fn-{i}", workers=4))
    resil = Resilience(env, net, net.streams)
    resil.attach_gateway(gateway)
    sent = {0: MetalogPosition(1, 1)}
    executions = []

    def flaky(ctx, arg):
        executions.append(dict(ctx.positions))
        ctx.positions[0] = MetalogPosition(1, 9)
        yield env.timeout(0.001)
        if len(executions) == 1:
            raise RuntimeError("transient")
        return "ok"

    gateway.register_function("flaky", flaky)
    payload = {"fn": "flaky", "arg": None, "book_id": BOOK,
               "positions": sent, "invocation_id": "inv-1"}
    reply = env.run_until(env.process(gateway._dispatch(payload)), limit=60.0)

    assert reply["result"] == "ok"
    assert resil.counters["reroutes"] == 1
    assert executions == [{0: MetalogPosition(1, 1)}, {0: MetalogPosition(1, 1)}]
    assert payload["positions"] is sent and sent == {0: MetalogPosition(1, 1)}
    assert reply["positions"] == {0: MetalogPosition(1, 9)}


@pytest.mark.tenant
def test_a_tenant_child_is_bound_to_its_parents_book():
    cluster = _cluster()
    hub = cluster.enable_tenancy()
    hub.registry.register("acme")
    cluster.boot()
    seen = {}

    def child(ctx, arg):
        book = cluster.logbook_for(ctx)
        seen["child"] = (ctx.tenant, ctx.book_id, book.logspace)
        yield cluster.env.timeout(0)
        return None

    def parent(ctx, arg):
        seen["parent_book"] = ctx.book_id
        with pytest.raises(TypeError):
            ctx.invoke("child", None, book_id=BOOK)
        yield from ctx.invoke("child")
        return None

    cluster.register_function("child", child)
    cluster.register_function("parent", parent)
    cluster.drive(cluster.invoke("parent", book_id=BOOK, tenant="acme"))

    assert logspace_of(seen["parent_book"]) == 1
    assert seen["child"] == ("acme", seen["parent_book"], 1)
