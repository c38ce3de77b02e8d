"""Unit tests: the gateway admission controller, node windows, and the
typed overload error contract.

Covers the four shed paths (concurrency limit, deadline, window-full,
CoDel queue-delay), the priority classes (batch sees only
``BATCH_SHARE`` of the limit), the elasticity gating (shedding disarmed
while the cluster can still scale out), the backpressure feedback
(downstream overload -> multiplicative decrease), and the cause-chain
helpers that let sheds propagate through RPC relay layers.
"""

from types import SimpleNamespace

import pytest

from repro.admission import (
    BATCH,
    INTERACTIVE,
    WINDOW,
    AdaptiveLimiter,
    AdmissionController,
    NodeAdmission,
    Overloaded,
    is_overload,
    retry_after_hint,
)
from repro.admission.controller import BATCH_SHARE
from repro.sim import Environment
from repro.sim.network import RpcError
from tests.conftest import FixedLimiter

pytestmark = pytest.mark.admission


def make_controller(limit=4.0, limiter=None):
    env = Environment()
    return env, AdmissionController(env, limiter or AdaptiveLimiter(initial=limit))


class TestConcurrencyLimit:
    def test_admits_below_the_limit(self):
        _, ctl = make_controller(limit=4.0)
        ctl.check(inflight=3)
        assert ctl.admitted[INTERACTIVE] == 1
        assert ctl.total_shed() == 0

    def test_sheds_at_the_limit_with_a_retry_after_hint(self):
        _, ctl = make_controller(limit=4.0)
        with pytest.raises(Overloaded) as info:
            ctl.check(inflight=4)
        exc = info.value
        assert exc.resource == "gateway"
        assert exc.reason == "concurrency-limit"
        # retry_after = est * (1 + over/limit) with over = inflight - limit.
        assert exc.retry_after == pytest.approx(0.010 * (1 + 0 / 4))
        with pytest.raises(Overloaded) as info:
            ctl.check(inflight=8)
        assert info.value.retry_after == pytest.approx(0.010 * (1 + 4 / 4))
        assert ctl.shed["concurrency-limit"] == 2

    def test_batch_sees_only_its_share_of_the_limit(self):
        _, ctl = make_controller(limit=10.0)
        share = int(10 * BATCH_SHARE)
        # At the batch share of the limit batch sheds, interactive admits.
        with pytest.raises(Overloaded) as info:
            ctl.check(inflight=share, priority=BATCH)
        assert info.value.priority == BATCH
        ctl.check(inflight=share, priority=INTERACTIVE)
        assert ctl.shed_by_priority == {INTERACTIVE: 0, BATCH: 1}
        assert ctl.admitted == {INTERACTIVE: 1, BATCH: 0}

    def test_effective_limit_never_drops_below_one(self):
        _, ctl = make_controller(limiter=FixedLimiter(1))
        ctl.check(inflight=0, priority=BATCH)  # max(1, int(BATCH_SHARE)) == 1
        with pytest.raises(Overloaded):
            ctl.check(inflight=1, priority=BATCH)


class TestDeadlineRejection:
    def test_doomed_requests_shed_before_any_work(self):
        env, ctl = make_controller(limit=100.0)
        # Remaining deadline below the service estimate (default 10ms).
        with pytest.raises(Overloaded) as info:
            ctl.check(inflight=0, deadline=env.now + 0.005)
        assert info.value.reason == "deadline"
        assert info.value.retry_after == 0.0

    def test_sufficient_deadline_admits(self):
        env, ctl = make_controller(limit=100.0)
        ctl.check(inflight=0, deadline=env.now + 0.5)
        assert ctl.admitted[INTERACTIVE] == 1

    def test_deadline_shedding_stays_armed_while_scaling_out(self):
        env, ctl = make_controller(limit=4.0)
        ctl.cluster = SimpleNamespace(
            elastic=SimpleNamespace(reconfiguring=False,
                                    can_scale_out=lambda: True),
        )
        assert not ctl.armed()
        with pytest.raises(Overloaded) as info:
            ctl.check(inflight=0, deadline=env.now + 0.001)
        assert info.value.reason == "deadline"


class TestElasticityGating:
    def cluster(self, reconfiguring, can_grow):
        return SimpleNamespace(
            elastic=SimpleNamespace(reconfiguring=reconfiguring,
                                    can_scale_out=lambda: can_grow),
        )

    def test_armed_without_an_autoscaler(self):
        _, ctl = make_controller()
        assert ctl.armed()

    def test_disarmed_while_the_fleet_can_still_grow(self):
        _, ctl = make_controller(limit=4.0)
        ctl.cluster = self.cluster(reconfiguring=False, can_grow=True)
        assert not ctl.armed()
        ctl.check(inflight=1000)  # absorbed by queues, not shed
        assert ctl.total_shed() == 0

    def test_armed_at_max_nodes(self):
        _, ctl = make_controller(limit=4.0)
        ctl.cluster = self.cluster(reconfiguring=False, can_grow=False)
        assert ctl.armed()
        with pytest.raises(Overloaded):
            ctl.check(inflight=1000)

    def test_armed_mid_reconfiguration(self):
        _, ctl = make_controller(limit=4.0)
        ctl.cluster = self.cluster(reconfiguring=True, can_grow=True)
        assert ctl.armed()


class TestFeedback:
    def test_downstream_overload_is_multiplicative_decrease(self):
        _, ctl = make_controller(limit=100.0)
        ctl.on_downstream_overload()
        assert ctl.downstream_overloads == 1
        assert ctl.limiter.limit == 70

    def test_success_feeds_the_latency_ewma(self):
        _, ctl = make_controller(limit=10.0)
        ctl.on_success(0.020)
        assert ctl.limiter.ewma.value == pytest.approx(0.020)


class TestNodeAdmission:
    #: Service time short enough that a full window's estimated queue
    #: delay stays under the CoDel target: only the window sheds.
    SERVICE = 1e-6

    def make(self, controller=None):
        env = Environment()
        node = NodeAdmission(env, "engine.func-0", self.SERVICE,
                             controller=controller)
        return env, node

    def fill(self, node):
        for _ in range(WINDOW):
            node.try_enter()

    def test_window_full_sheds_with_queue_delay_hint(self):
        _, node = self.make()
        self.fill(node)
        with pytest.raises(Overloaded) as info:
            node.try_enter()
        exc = info.value
        assert exc.resource == "engine.func-0"
        assert exc.reason == "window-full"
        assert exc.retry_after == pytest.approx(WINDOW * self.SERVICE)
        assert node.window.shed == 1
        node.exit()
        node.try_enter()  # capacity freed: admitted again
        assert node.window.admitted == WINDOW + 1

    def test_node_sheds_count_toward_controller_total(self):
        env, ctl = make_controller(limit=4.0)
        node = NodeAdmission(env, "storage.s-0", self.SERVICE, controller=ctl)
        assert ctl.nodes == [node]
        self.fill(node)
        with pytest.raises(Overloaded):
            node.try_enter()
        assert ctl.total_shed() == 1

    def test_disarmed_node_admits_beyond_capacity(self):
        env, ctl = make_controller(limit=4.0)
        ctl.cluster = SimpleNamespace(
            elastic=SimpleNamespace(reconfiguring=False,
                                    can_scale_out=lambda: True),
        )
        node = NodeAdmission(env, "engine.func-1", self.SERVICE, controller=ctl)
        self.fill(node)
        node.try_enter()  # window disarmed while the fleet can grow
        assert node.window.inflight == WINDOW + 1

    def test_snapshot_shape(self):
        _, node = self.make()
        node.try_enter()
        snap = node.snapshot()
        assert snap == {
            "resource": "engine.func-0", "capacity": WINDOW, "inflight": 1,
            "peak": 1, "admitted": 1, "shed": 0, "codel_dropped": 0,
        }


class TestOverloadErrorContract:
    def test_is_overload_through_rpc_relay_layers(self):
        shed = Overloaded("storage.s-1", "window-full", retry_after=0.02)
        relayed = RpcError("faas.invoke", RpcError("engine.relay", shed))
        assert is_overload(relayed)
        assert not is_overload(RpcError("faas.invoke", ValueError("boom")))

    def test_retry_after_hint_innermost_wins(self):
        outer = Overloaded("gateway", "concurrency-limit", retry_after=0.1)
        outer.__cause__ = Overloaded("storage.s-1", "window-full",
                                     retry_after=0.4)
        assert retry_after_hint(outer) == pytest.approx(0.4)

    def test_retry_after_hint_none_without_a_shed(self):
        assert retry_after_hint(RpcError("m", ValueError())) is None

    def test_controller_snapshot_is_deterministic_and_sorted(self):
        env, ctl = make_controller(limit=4.0)
        NodeAdmission(env, "storage.s-1", 0.001, controller=ctl)
        NodeAdmission(env, "engine.func-0", 0.001, controller=ctl)
        ctl.check(inflight=0)
        snap = ctl.snapshot()
        assert set(snap) == {"limiter", "admitted", "shed",
                             "shed_by_priority", "downstream_overloads",
                             "nodes"}
        assert [n["resource"] for n in snap["nodes"]] == [
            "engine.func-0", "storage.s-1",
        ]
