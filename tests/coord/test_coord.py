"""Unit tests for the coordination service (ZooKeeper substitute)."""

import pytest

from repro.coord import (
    BadVersionError,
    CoordClient,
    CoordServer,
    LeaderElection,
    NodeExistsError,
    NoNodeError,
)
from repro.coord.client import SESSION_TIMEOUT
from repro.sim import Environment, Network, Node
from tests.conftest import ExactNetworkStreams


@pytest.fixture
def setup():
    env = Environment()
    net = Network(env, ExactNetworkStreams(seed=11))
    coord_node = net.register(Node(env, "coord"))
    server = CoordServer(env, net, coord_node)
    clients = {}
    for name in ["n1", "n2", "n3"]:
        node = net.register(Node(env, name))
        clients[name] = CoordClient(env, net, node)
    return env, net, server, clients


def drive(env, gen):
    """Run a generator as a process to completion and return its value."""
    proc = env.process(gen)
    return env.run_until(proc, limit=300.0)


def test_create_and_get(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/config", {"term": 1})
        info = yield from c.get("/config")
        return info

    info = drive(env, flow())
    assert info == {"data": {"term": 1}, "version": 0}


def test_create_duplicate_raises(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/x", 1)
        yield from c.create("/x", 2)

    with pytest.raises(NodeExistsError):
        drive(env, flow())


def test_get_missing_raises(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.get("/missing")

    with pytest.raises(NoNodeError):
        drive(env, flow())


def test_set_bumps_version(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/v", "a")
        v1 = yield from c.set("/v", "b")
        v2 = yield from c.set("/v", "c")
        return v1, v2

    assert drive(env, flow()) == (1, 2)


def test_conditional_set_rejects_stale_version(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/v", "a")
        yield from c.set("/v", "b")
        yield from c.set("/v", "c", version=0)  # stale

    with pytest.raises(BadVersionError):
        drive(env, flow())


def test_delete_and_exists(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/d", 1)
        before = yield from c.exists("/d")
        yield from c.delete("/d")
        after = yield from c.exists("/d")
        return before, after

    assert drive(env, flow()) == (True, False)


def test_children_listing(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/nodes/a", 1)
        yield from c.create("/nodes/b", 2)
        yield from c.create("/other/c", 3)
        return (yield from c.children("/nodes"))

    assert drive(env, flow()) == ["/nodes/a", "/nodes/b"]


def test_watch_fires_on_change(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]
    events = []
    c2.on_watch(events.append)

    def flow():
        yield from c1.create("/w", "v0")
        yield from c2.watch("/w")
        yield from c1.set("/w", "v1")
        yield env.timeout(0.01)  # let the watch message arrive

    drive(env, flow())
    assert len(events) == 1
    assert events[0].kind == "changed"
    assert events[0].data == "v1"


def test_watch_is_one_shot(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]
    events = []
    c2.on_watch(events.append)

    def flow():
        yield from c1.create("/w", 0)
        yield from c2.watch("/w")
        yield from c1.set("/w", 1)
        yield from c1.set("/w", 2)
        yield env.timeout(0.01)

    drive(env, flow())
    assert len(events) == 1


def test_children_watch_fires_on_membership_change(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]
    events = []
    c2.on_watch(events.append)

    def flow():
        yield from c2.watch_children("/members")
        yield from c1.create("/members/a", 1)
        yield env.timeout(0.01)

    drive(env, flow())
    assert [e.kind for e in events] == ["children"]


def test_ephemeral_deleted_on_session_expiry(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]

    def flow():
        yield from c1.start_session()
        yield from c1.create("/eph", "mine", ephemeral=True)
        assert (yield from c2.exists("/eph"))
        c1.node.crash()  # heartbeats stop
        yield env.timeout(SESSION_TIMEOUT + 2.0)
        return (yield from c2.exists("/eph"))

    assert drive(env, flow()) is False


def test_session_survives_with_heartbeats(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]

    def flow():
        yield from c1.start_session()
        yield from c1.create("/eph", "mine", ephemeral=True)
        yield env.timeout(10.0)  # many session timeouts, but heartbeats flow
        return (yield from c2.exists("/eph"))

    assert drive(env, flow()) is True


def test_ephemeral_requires_session(setup):
    env, net, server, clients = setup
    c = clients["n1"]

    def flow():
        yield from c.create("/eph", 1, ephemeral=True)  # no session started

    with pytest.raises(Exception):
        drive(env, flow())


def test_explicit_session_close_drops_ephemerals(setup):
    env, net, server, clients = setup
    c1, c2 = clients["n1"], clients["n2"]

    def flow():
        yield from c1.start_session()
        yield from c1.create("/eph", 1, ephemeral=True)
        yield from c1.close_session()
        return (yield from c2.exists("/eph"))

    assert drive(env, flow()) is False


class TestLeaderElection:
    def test_single_candidate_wins(self, setup):
        env, net, server, clients = setup
        c = clients["n1"]
        election = LeaderElection(c)

        def flow():
            yield from c.start_session()
            return (yield from election.campaign())

        assert drive(env, flow()) is True
        assert election.is_leader
        assert election.leader_name == "n1"

    def test_second_candidate_loses(self, setup):
        env, net, server, clients = setup
        e1 = LeaderElection(clients["n1"])
        e2 = LeaderElection(clients["n2"])

        def flow():
            yield from clients["n1"].start_session()
            yield from clients["n2"].start_session()
            won1 = yield from e1.campaign()
            won2 = yield from e2.campaign()
            return won1, won2

        assert drive(env, flow()) == (True, False)
        assert e2.leader_name == "n1"

    def test_failover_on_leader_crash(self, setup):
        env, net, server, clients = setup
        e1 = LeaderElection(clients["n1"])
        e2 = LeaderElection(clients["n2"])

        def flow():
            yield from clients["n1"].start_session()
            yield from clients["n2"].start_session()
            yield from e1.campaign()
            yield from e2.campaign()
            clients["n1"].node.crash()
            # session expiry + watch delivery + re-campaign
            yield env.timeout(10.0)

        drive(env, flow())
        assert e2.is_leader
        assert e2.leader_name == "n2"
