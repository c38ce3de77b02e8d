"""Edge cases for the coordination service."""

import pytest

from repro.coord import BadVersionError, CoordClient, CoordServer, NoNodeError
from repro.sim import Environment, Network, Node
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def setup():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=23))
    server = CoordServer(env, net, net.register(Node(env, "coord")))
    client = CoordClient(env, net, net.register(Node(env, "n1")))
    return env, server, client


def drive(env, gen):
    return env.run_until(env.process(gen), limit=300.0)


def test_conditional_delete_rejects_stale_version(setup):
    env, server, client = setup

    def flow():
        yield from client.create("/v", "a")
        yield from client.set("/v", "b")  # version -> 1
        yield from client.delete("/v", version=0)

    with pytest.raises(BadVersionError):
        drive(env, flow())

def test_conditional_delete_with_current_version(setup):
    env, server, client = setup

    def flow():
        yield from client.create("/v", "a")
        yield from client.set("/v", "b")
        yield from client.delete("/v", version=1)
        return (yield from client.exists("/v"))

    assert drive(env, flow()) is False


def test_delete_missing_raises(setup):
    env, server, client = setup

    def flow():
        yield from client.delete("/ghost")

    with pytest.raises(NoNodeError):
        drive(env, flow())


def test_watch_fires_on_delete(setup):
    env, server, client = setup
    events = []
    client.on_watch(events.append)

    def flow():
        yield from client.create("/w", 1)
        yield from client.watch("/w")
        yield from client.delete("/w")
        yield env.timeout(0.01)

    drive(env, flow())
    assert [e.kind for e in events] == ["deleted"]


def test_children_watch_fires_on_child_delete(setup):
    env, server, client = setup
    events = []
    client.on_watch(events.append)

    def flow():
        yield from client.create("/m/a", 1)
        yield from client.watch_children("/m")
        yield from client.delete("/m/a")
        yield env.timeout(0.01)

    drive(env, flow())
    assert [e.kind for e in events] == ["children"]


def test_heartbeat_for_expired_session_fails(setup):
    env, server, client = setup

    def flow():
        yield from client.start_session()
        session_id = client.session_id
        yield from client.close_session()
        # Direct heartbeat on the dead session must be rejected.
        from repro.sim.network import RpcError

        try:
            yield client.net.rpc(
                client.node, "coord", "coord.heartbeat", {"session_id": session_id}
            )
        except RpcError as exc:
            return type(exc.cause).__name__
        return None

    assert drive(env, flow()) == "SessionExpiredError"


def test_version_survives_multiple_sets(setup):
    env, server, client = setup

    def flow():
        yield from client.create("/v", 0)
        for i in range(5):
            yield from client.set("/v", i, version=i)
        info = yield from client.get("/v")
        return info

    assert drive(env, flow()) == {"data": 4, "version": 5}
