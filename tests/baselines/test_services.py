"""Tests for the simulated external services (DynamoDB, MongoDB,
Cloudburst, SQS, Pulsar, Redis)."""

import pytest

from repro.baselines.cloudburst import CloudburstClient, CloudburstService
from repro.baselines.dynamodb import ConditionFailedError, DynamoDBClient, DynamoDBService
from repro.baselines.mongodb import MongoDBClient, MongoDBService, WriteConflictError
from repro.baselines.pulsar import PulsarBroker, PulsarClient
from repro.baselines.redis import RedisClient, RedisService
from repro.baselines.sqs import SQSClient, SQSService
from repro.sim import Environment, Network, Node
from repro.sim.randvar import RandomStreams


@pytest.fixture
def world():
    env = Environment()
    streams = RandomStreams(seed=17)
    net = Network(env, streams)
    client_node = net.register(Node(env, "app"))
    return env, net, streams, client_node


def drive(env, gen, limit=120.0):
    return env.run_until(env.process(gen), limit=limit)


class TestDynamoDB:
    def test_put_get(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            yield from db.put("t", "k", {"Value": 1})
            return (yield from db.get("t", "k"))

        assert drive(env, flow()) == {"Value": 1}

    def test_get_missing(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            return (yield from db.get("t", "nope"))

        assert drive(env, flow()) is None

    def test_conditional_put_absent(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            yield from db.put("t", "k", {"v": 1}, condition=("absent",))
            yield from db.put("t", "k", {"v": 2}, condition=("absent",))

        with pytest.raises(ConditionFailedError):
            drive(env, flow())

    def test_version_guard(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            yield from db.update("t", "k", set_attrs={"Version": 5, "Value": "a"})
            # Stale write (version 3 < 5) must fail.
            yield from db.update(
                "t", "k", set_attrs={"Version": 3, "Value": "stale"},
                condition=("attr_lt_or_absent", "Version", 3),
            )

        with pytest.raises(ConditionFailedError):
            drive(env, flow())

    def test_attr_lt_or_absent_on_missing_item(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            yield from db.update(
                "t", "new", set_attrs={"Version": 1, "Value": "x"},
                condition=("attr_lt_or_absent", "Version", 1),
            )
            return (yield from db.get("t", "new"))

        assert drive(env, flow())["Value"] == "x"

    def test_atomic_counter(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            a = yield from db.update("t", "ctr", add_attrs={"n": 1})
            b = yield from db.update("t", "ctr", add_attrs={"n": 1})
            return a["n"], b["n"]

        assert drive(env, flow()) == (1, 2)

    def test_latency_is_milliseconds(self, world):
        env, net, streams, node = world
        DynamoDBService(env, net, streams)
        db = DynamoDBClient(net, node)

        def flow():
            yield from db.get("t", "k")

        drive(env, flow())
        assert 0.5e-3 < env.now < 20e-3


class TestMongoDB:
    def test_upsert_find(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.upsert("users", "u1", {"name": "alice"})
            return (yield from db.find("users", "u1"))

        assert drive(env, flow()) == {"name": "alice"}

    def test_update_ops(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.update("users", "u1", [{"op": "set", "path": "n", "value": 1}])
            yield from db.update("users", "u1", [{"op": "inc", "path": "n", "value": 4}])
            return (yield from db.find("users", "u1"))

        assert drive(env, flow()) == {"n": 5}

    def test_txn_commit(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.upsert("acct", "a", {"bal": 10})
            txn = yield from db.txn_begin()
            yield from db.txn_update("acct", "a", [{"op": "inc", "path": "bal", "value": -3}])

        # wrong arg order should raise TypeError before any sim logic
        with pytest.raises(TypeError):
            drive(env, flow())

    def test_txn_commit_correct(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.upsert("acct", "a", {"bal": 10})
            txn = yield from db.txn_begin()
            yield from db.txn_update(txn, "acct", "a", [{"op": "inc", "path": "bal", "value": -3}])
            yield from db.txn_commit(txn)
            return (yield from db.find("acct", "a"))

        assert drive(env, flow()) == {"bal": 7}

    def test_txn_snapshot_reads(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.upsert("c", "k", {"v": 1})
            txn = yield from db.txn_begin()
            yield from db.txn_update(txn, "c", "k", [{"op": "set", "path": "v", "value": 9}])
            inside = yield from db.txn_find(txn, "c", "k")
            outside = yield from db.find("c", "k")
            return inside, outside

        assert drive(env, flow()) == ({"v": 9}, {"v": 1})

    def test_write_conflict_aborts(self, world):
        env, net, streams, node = world
        MongoDBService(env, net, streams)
        db = MongoDBClient(net, node)

        def flow():
            yield from db.upsert("c", "k", {"v": 1})
            txn = yield from db.txn_begin()
            yield from db.txn_update(txn, "c", "k", [{"op": "set", "path": "v", "value": 2}])
            # Concurrent non-txn write bumps the version.
            yield from db.upsert("c", "k", {"v": 99})
            yield from db.txn_commit(txn)

        with pytest.raises(WriteConflictError):
            drive(env, flow())


class TestCloudburst:
    def test_put_get(self, world):
        env, net, streams, node = world
        CloudburstService(env, net, streams)
        cb = CloudburstClient(net, node)

        def flow():
            yield from cb.put("k", "v")
            return (yield from cb.get("k"))

        assert drive(env, flow()) == "v"

    def test_stale_read_from_other_cache(self, world):
        """Causal consistency: a second site's cached value lags a put
        until propagation."""
        env, net, streams, node = world
        CloudburstService(env, net, streams)
        node2 = net.register(Node(env, "app2"))
        cb1 = CloudburstClient(net, node)
        cb2 = CloudburstClient(net, node2)

        def flow():
            yield from cb1.put("k", "v1")
            yield from cb2.get("k")        # warms app2's cache with v1
            yield from cb1.put("k", "v2")
            stale = yield from cb2.get("k")  # still v1 (not propagated)
            yield env.timeout(0.02)
            fresh = yield from cb2.get("k")
            return stale, fresh

        assert drive(env, flow()) == ("v1", "v2")

    def test_read_your_writes_same_site(self, world):
        env, net, streams, node = world
        CloudburstService(env, net, streams)
        cb = CloudburstClient(net, node)

        def flow():
            yield from cb.put("k", "v1")
            yield from cb.put("k", "v2")
            return (yield from cb.get("k"))

        assert drive(env, flow()) == "v2"


class TestSQS:
    def test_send_receive(self, world):
        env, net, streams, node = world
        SQSService(env, net, streams)
        sqs = SQSClient(net, node)

        def flow():
            yield from sqs.send("q", "m1")
            result = yield from sqs.receive("q")
            return result

        message, delay = drive(env, flow())
        assert message == "m1"
        assert delay > 0

    def test_receive_empty(self, world):
        env, net, streams, node = world
        SQSService(env, net, streams)
        sqs = SQSClient(net, node)

        def flow():
            return (yield from sqs.receive("q"))

        assert drive(env, flow()) is None

    def test_fifo_per_queue(self, world):
        env, net, streams, node = world
        SQSService(env, net, streams)
        sqs = SQSClient(net, node)

        def flow():
            for i in range(3):
                yield from sqs.send("q", i)
            out = []
            for _ in range(3):
                m, _ = yield from sqs.receive("q")
                out.append(m)
            return out

        assert drive(env, flow()) == [0, 1, 2]


class TestPulsar:
    def test_publish_receive_across_partitions(self, world):
        env, net, streams, node = world
        brokers = [PulsarBroker(env, net, streams, f"broker-{i}") for i in range(2)]
        client = PulsarClient(net, node, [b.node.name for b in brokers], num_partitions=2)

        def flow():
            for i in range(4):
                yield from client.publish("t", i)
            out = []
            for partition in range(2):
                while True:
                    result = yield from client.receive("t", partition)
                    if result is None:
                        break
                    out.append(result[0])
            return sorted(out)

        assert drive(env, flow()) == [0, 1, 2, 3]


class TestRedis:
    def test_set_get(self, world):
        env, net, streams, node = world
        RedisService(env, net, streams)
        r = RedisClient(net, node)

        def flow():
            yield from r.set("k", {"nested": True})
            return (yield from r.get("k"))

        assert drive(env, flow()) == {"nested": True}

    def test_get_missing(self, world):
        env, net, streams, node = world
        RedisService(env, net, streams)
        r = RedisClient(net, node)

        def flow():
            return (yield from r.get("missing"))

        assert drive(env, flow()) is None
