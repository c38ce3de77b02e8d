"""Unit tests for the FaaS runtime (gateway, function nodes, contexts)."""

import pytest

from repro.core.types import MetalogPosition
from repro.faas import FunctionNode, FunctionNotFoundError, Gateway
from repro.sim import Environment, Network, Node
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def faas():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=5))
    gateway = Gateway(env, net)
    fnodes = [FunctionNode(env, net, f"fn-{i}", workers=4) for i in range(2)]
    for fnode in fnodes:
        gateway.add_function_node(fnode)
    client = net.register(Node(env, "client"))
    return env, net, gateway, fnodes, client


def drive(env, gen, limit=300.0):
    return env.run_until(env.process(gen), limit=limit)


def test_external_invoke_returns_result(faas):
    env, net, gateway, fnodes, client = faas

    def double(ctx, arg):
        yield env.timeout(0.001)
        return arg * 2

    gateway.register_function("double", double)

    def flow():
        return (yield from gateway.external_invoke(client, "double", 21))

    assert drive(env, flow()) == 42


def test_unknown_function_raises(faas):
    env, net, gateway, fnodes, client = faas

    def flow():
        yield from gateway.external_invoke(client, "nope", 1)

    with pytest.raises(FunctionNotFoundError):
        drive(env, flow())


def test_round_robin_spreads_load(faas):
    env, net, gateway, fnodes, client = faas

    def noop(ctx, arg):
        yield env.timeout(0.0001)
        return None

    gateway.register_function("noop", noop)

    def flow():
        for _ in range(10):
            yield from gateway.external_invoke(client, "noop")

    drive(env, flow())
    assert fnodes[0].invocations == 5
    assert fnodes[1].invocations == 5


def test_child_invocation_and_result(faas):
    env, net, gateway, fnodes, client = faas

    def child(ctx, arg):
        yield env.timeout(0.001)
        return arg + 1

    def parent(ctx, arg):
        mid = yield from ctx.invoke("child", arg)
        final = yield from ctx.invoke("child", mid)
        return final

    gateway.register_function("child", child)
    gateway.register_function("parent", parent)

    def flow():
        return (yield from gateway.external_invoke(client, "parent", 10))

    assert drive(env, flow()) == 12


def test_positions_sent_to_child(faas):
    env, net, gateway, fnodes, client = faas
    seen = []

    def child(ctx, arg):
        seen.append(dict(ctx.positions))
        yield env.timeout(0)
        return None

    def parent(ctx, arg):
        ctx.positions[0] = MetalogPosition(1, 7)
        yield from ctx.invoke("child")
        return None

    gateway.register_function("child", child)
    gateway.register_function("parent", parent)

    def flow():
        yield from gateway.external_invoke(client, "parent")

    drive(env, flow())
    assert seen == [{0: MetalogPosition(1, 7)}]


def test_positions_merged_back_with_max(faas):
    """The child's positions are merged into the parent's own map in
    place, by per-log maximum."""
    env, net, gateway, fnodes, client = faas
    final = []

    def child(ctx, arg):
        ctx.positions.update({0: MetalogPosition(1, 10), 1: MetalogPosition(1, 2)})
        yield env.timeout(0)
        return None

    def parent(ctx, arg):
        positions = ctx.positions
        positions[0] = MetalogPosition(1, 3)
        yield from ctx.invoke("child")
        final.append((ctx.positions is positions, dict(positions)))
        return None

    gateway.register_function("child", child)
    gateway.register_function("parent", parent)

    def flow():
        yield from gateway.external_invoke(client, "parent")

    drive(env, flow())
    assert final == [(True, {0: MetalogPosition(1, 10), 1: MetalogPosition(1, 2)})]


def test_child_stale_positions_do_not_regress_parent(faas):
    env, net, gateway, fnodes, client = faas
    final = []

    def child(ctx, arg):
        # Child returns an older position than the one it was sent.
        ctx.positions[0] = MetalogPosition(1, 1)
        yield env.timeout(0)
        return None

    def parent(ctx, arg):
        ctx.positions[0] = MetalogPosition(1, 5)
        yield from ctx.invoke("child")
        final.append(ctx.positions)
        return None

    gateway.register_function("child", child)
    gateway.register_function("parent", parent)

    def flow():
        yield from gateway.external_invoke(client, "parent")

    drive(env, flow())
    assert final == [{0: MetalogPosition(1, 5)}]


def test_book_id_propagates_to_child(faas):
    env, net, gateway, fnodes, client = faas
    books = []

    def child(ctx, arg):
        books.append(ctx.book_id)
        yield env.timeout(0)
        return None

    def parent(ctx, arg):
        yield from ctx.invoke("child")
        return None

    gateway.register_function("child", child)
    gateway.register_function("parent", parent)

    def flow():
        yield from gateway.external_invoke(client, "parent", book_id=99)

    drive(env, flow())
    assert books == [99]


def test_worker_pool_limits_concurrency(faas):
    env, net, gateway, fnodes, client = faas
    peak = [0]
    running = [0]

    def busy(ctx, arg):
        running[0] += 1
        peak[0] = max(peak[0], running[0])
        yield env.timeout(0.1)
        running[0] -= 1
        return None

    gateway.register_function("busy", busy)

    def one_call():
        yield from gateway.external_invoke(client, "busy")

    procs = [env.process(one_call()) for _ in range(20)]
    for proc in procs:
        env.run_until(proc, limit=300.0)
    # 2 nodes x 4 workers each.
    assert peak[0] <= 8


def test_function_exception_propagates_to_client(faas):
    env, net, gateway, fnodes, client = faas

    def bad(ctx, arg):
        yield env.timeout(0)
        raise ValueError("app error")

    gateway.register_function("bad", bad)

    def flow():
        yield from gateway.external_invoke(client, "bad")

    with pytest.raises(ValueError, match="app error"):
        drive(env, flow())


def test_scheduler_override(faas):
    env, net, gateway, fnodes, client = faas

    def noop(ctx, arg):
        yield env.timeout(0)
        return None

    gateway.register_function("noop", noop)
    gateway.scheduler = lambda fn, book: fnodes[1]

    def flow():
        for _ in range(4):
            yield from gateway.external_invoke(client, "noop")

    drive(env, flow())
    assert fnodes[0].invocations == 0
    assert fnodes[1].invocations == 4


def test_crashed_node_skipped_by_round_robin(faas):
    env, net, gateway, fnodes, client = faas

    def noop(ctx, arg):
        yield env.timeout(0)
        return None

    gateway.register_function("noop", noop)
    fnodes[0].node.crash()

    def flow():
        for _ in range(4):
            yield from gateway.external_invoke(client, "noop")

    drive(env, flow())
    assert fnodes[1].invocations == 4


def test_call_ids_unique(faas):
    env, net, gateway, fnodes, client = faas
    ids = []

    def record(ctx, arg):
        ids.append(ctx.call_id)
        yield env.timeout(0)
        return None

    gateway.register_function("record", record)

    def flow():
        for _ in range(5):
            yield from gateway.external_invoke(client, "record")

    drive(env, flow())
    assert len(set(ids)) == 5
