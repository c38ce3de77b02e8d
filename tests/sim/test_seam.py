"""The interception seam: signals, declared wrap points, layer precedence."""

import pytest

from repro.core.cluster import BokiCluster
from repro.obs.export import to_chrome_trace
from repro.sim import Environment, Node
from repro.sim.seam import Signal, wrap


def test_subscribers_run_in_subscription_order():
    signal = Signal()
    calls = []
    signal.subscribe(lambda *args: calls.append(("first", args)))
    signal.subscribe(lambda *args: calls.append(("second", args)))
    signal(1, "x")
    assert calls == [("first", (1, "x")), ("second", (1, "x"))]


def test_unsubscribed_signal_is_callable():
    Signal()(1, 2, 3)


def test_raising_subscriber_fails_loudly():
    signal = Signal()
    reached = []

    def broken(value):
        raise RuntimeError("subscriber bug")

    signal.subscribe(broken)
    signal.subscribe(reached.append)
    with pytest.raises(RuntimeError, match="subscriber bug"):
        signal(1)
    assert reached == []  # not swallowed, not skipped past


class _Component:
    WRAP_POINTS = ("work", "_h_work")

    def __init__(self):
        self.node = Node(Environment(), "n")
        self.node.handle("work", self._h_work)

    def work(self, x):
        return [x]

    def _h_work(self, payload):
        return payload


def _tagging(tag):
    return lambda inner: lambda x: [tag] + inner(x) + [tag]


def test_wrap_undeclared_point_raises():
    component = _Component()
    with pytest.raises(KeyError, match="no wrap point 'wrok'"):
        wrap(component, "wrok", _tagging("t"), "obs")
    with pytest.raises(KeyError, match="unknown layer"):
        wrap(component, "work", _tagging("t"), "nosuchlayer")


def test_wrap_twice_by_one_layer_raises():
    component = _Component()
    wrap(component, "work", _tagging("a"), "admission")
    with pytest.raises(ValueError, match="already wraps"):
        wrap(component, "work", _tagging("a"), "admission")


@pytest.mark.parametrize("order", [
    ("obs", "tenancy", "admission", "resil"),
    ("resil", "admission", "tenancy", "obs"),
    ("admission", "obs", "resil", "tenancy"),
])
def test_nesting_follows_precedence_not_call_order(order):
    component = _Component()
    for layer in order:
        wrap(component, "work", _tagging(layer), layer)
    assert component.work(0) == [
        "obs", "tenancy", "admission", "resil", 0,
        "resil", "admission", "tenancy", "obs",
    ]


def test_wrapped_node_handler_is_reregistered():
    component = _Component()
    wrap(component, "_h_work", lambda inner: lambda p: ("seen", inner(p)), "obs")
    wrap(component, "_h_work", lambda inner: lambda p: ("guarded", inner(p)), "admission")
    assert component.node.handlers["work"](7) == ("seen", ("guarded", 7))


def _traced_run(enable):
    cluster = BokiCluster(num_function_nodes=2, seed=3)
    enable(cluster)
    cluster.boot()
    book = cluster.logbook(1)

    def flow():
        for i in range(5):
            yield from book.append(f"record-{i}")
        return (yield from book.read_next(min_seqnum=0))

    cluster.drive(flow())
    return cluster


def test_enable_order_does_not_change_span_export():
    def obs_first(cluster):
        cluster.enable_observability()
        cluster.enable_admission()

    def admission_first(cluster):
        cluster.enable_admission()
        cluster.enable_observability()

    a = to_chrome_trace(_traced_run(obs_first).obs.tracer.spans)
    b = to_chrome_trace(_traced_run(admission_first).obs.tracer.spans)
    assert a == b


def test_enabling_twice_attaches_once():
    def twice(cluster):
        for enable in (cluster.enable_observability, cluster.enable_monitoring,
                       cluster.enable_resilience, cluster.enable_admission,
                       cluster.enable_tenancy):
            assert enable() is enable()

    cluster = _traced_run(twice)
    appends = [s for s in cluster.obs.tracer.spans if s.name == "engine.append"]
    assert len(appends) == 5  # one span per append, not two
    assert cluster.monitor.freshness.summary()["appends"] == 5
    admitted = sum(n.window.admitted for n in cluster.admission.nodes
                   if n.resource.startswith("engine."))
    assert admitted == 5
