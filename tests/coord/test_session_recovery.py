"""Session expiry and re-registration under an injected partition.

A client holding an ephemeral znode is partitioned from the coordination
server for longer than its session timeout: the server must expire the
session and drop the ephemeral, and the healed client must be able to
start a fresh session and re-register.
"""

import pytest

from repro.coord import CoordClient, CoordServer
from repro.coord.client import SESSION_TIMEOUT
from repro.coord.server import SessionExpiredError
from repro.sim import Environment, Network, Node
from tests.conftest import ExactNetworkStreams

pytestmark = [pytest.mark.chaos, pytest.mark.recovery]


@pytest.fixture
def setup():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=11))
    coord_node = net.register(Node(env, "coord"))
    server = CoordServer(env, net, coord_node)
    node = net.register(Node(env, "worker"))
    client = CoordClient(env, net, node)
    return env, net, server, client


def drive(env, gen, limit=300.0):
    return env.run_until(env.process(gen), limit=limit)


def test_partition_expires_session_and_drops_ephemeral(setup):
    env, net, server, client = setup

    def flow():
        yield from client.start_session()
        yield from client.create("/members/worker", {"epoch": 1},
                                 ephemeral=True)
        # Cut the client off for longer than the session timeout; the
        # keepalive misses its heartbeats and the server sweeps the session.
        net.partition("worker", "coord")
        yield env.timeout(SESSION_TIMEOUT + 1.5)
        net.heal("worker", "coord")

    drive(env, flow())
    probe = net.register(Node(env, "probe"))
    observer = CoordClient(env, net, probe)

    def check():
        return (yield from observer.exists("/members/worker"))

    assert drive(env, check()) is False
    assert len(server.expired_sessions) == 1


def test_expired_session_rejects_stale_heartbeats(setup):
    env, net, server, client = setup

    def flow():
        sid = yield from client.start_session()
        net.partition("worker", "coord")
        yield env.timeout(SESSION_TIMEOUT + 1.5)
        net.heal("worker", "coord")
        # A heartbeat on the dead session must be refused, not revived.
        yield from client._call("coord.heartbeat", {"session_id": sid})

    with pytest.raises(SessionExpiredError):
        drive(env, flow())


def test_client_rejoins_with_fresh_session_after_heal(setup):
    env, net, server, client = setup

    def flow():
        first = yield from client.start_session()
        yield from client.create("/members/worker", {"epoch": 1},
                                 ephemeral=True)
        net.partition("worker", "coord")
        yield env.timeout(SESSION_TIMEOUT + 1.5)
        net.heal("worker", "coord")
        # Recovery path: explicit re-registration under a new session.
        second = yield from client.start_session()
        yield from client.create("/members/worker", {"epoch": 2},
                                 ephemeral=True)
        info = yield from client.get("/members/worker")
        return first, second, info

    first, second, info = drive(env, flow())
    assert second != first
    assert info["data"] == {"epoch": 2}

    def keep_living():
        # The new session's keepalive holds the ephemeral alive.
        yield env.timeout(SESSION_TIMEOUT + 1.0)
        return (yield from client.exists("/members/worker"))

    assert drive(env, keep_living()) is True
    assert server.expired_sessions == [1]
