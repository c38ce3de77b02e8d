"""Load-generation and measurement harness.

Two generator shapes, matching how the paper runs its experiments:

- *closed loop*: N concurrent clients, each looping
  issue-request -> wait-response; throughput emerges from concurrency and
  service latency (the append-only microbenchmark, Retwis, queues).
- *open loop*: Poisson arrivals at a fixed offered rate; latency is
  measured as a function of load (the latency-vs-throughput curves of
  Figure 11).

Plus the elasticity additions: *shaped* open-loop arrivals whose rate
varies over virtual time (:class:`FlashCrowdShape`, driven by
:func:`run_shaped_open_loop` via Lewis–Shedler thinning) and a
YCSB-style :class:`ZipfianSampler` for hot-key skew.

All generators warm up before measuring and return a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.obs.trace import STATUS_ERROR, STATUS_OK
from repro.sim.kernel import Environment, Interrupt, SimulationError
from repro.sim.metrics import LatencyRecorder, SampleWindow


@dataclass
class RunResult:
    """Outcome of one load-generation run."""

    completed: int
    duration: float
    latencies: LatencyRecorder
    errors: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    def median_latency(self) -> float:
        return self.latencies.median()

    def p99_latency(self) -> float:
        return self.latencies.p99()

    def summary(self) -> Dict[str, float]:
        out = {"throughput": self.throughput, "completed": float(self.completed)}
        if self.latencies.count:
            out["median"] = self.median_latency()
            out["p99"] = self.p99_latency()
        return out


class _Requests:
    """One run's books, and the prologue and epilogue every driver wraps
    around a request: a root span when the run is traced, and — if the
    request finished inside the measurement window — its latency.

    The window rule is written here once: a latency counts if and only if
    it ends inside ``[t_start, t_until]``. Requests reach it through
    :meth:`end`, sub-requests through :meth:`measure`."""

    def __init__(self, env: Environment, name: str, obs, t_start: float,
                 t_until: float):
        self.env = env
        self.tracer = obs.tracer if obs is not None else None
        self.latencies = LatencyRecorder(name)
        #: label -> recorder of the samples :meth:`measure` kept.
        self.measured: Dict[str, LatencyRecorder] = {}
        self.request_traces: List[Tuple[float, int]] = []
        self.completed = 0
        self.errors = 0
        self.t_start = t_start
        self.t_until = t_until

    def _sample(self, recorder: LatencyRecorder, started: float) -> Optional[float]:
        """Record the latency of what started at ``started`` and ends now,
        if now is inside the window (returned; None outside)."""
        finished = self.env.now
        if not self.t_start <= finished <= self.t_until:
            return None
        latency = finished - started
        recorder.record(latency)
        return latency

    def measure(self, label: str, started: float) -> Optional[float]:
        """A sub-request sample: what started at ``started`` and ends now,
        kept in ``result.extra[label]`` if it ends inside the window."""
        recorder = self.measured.get(label)
        if recorder is None:
            recorder = self.measured[label] = LatencyRecorder(label)
        return self._sample(recorder, started)

    def begin(self, attrs: Dict[str, Any]):
        """Open the request's root span and make it the running process's
        trace context; returns the span and the context it displaced
        (both None when untraced)."""
        if self.tracer is None:
            return None, None
        span = self.tracer.start_trace(
            "request", node="client", kind="client", attrs=attrs)
        return span, self.tracer.set_process_context(span)

    def end(self, span, prev, started: float, ok: bool = True) -> Optional[float]:
        """Close the span, then count the request: an error if the op
        failed, else a latency sample if it finished inside the window
        (returned; None for a request that is not measured)."""
        if span is not None:
            span.finish(STATUS_OK if ok else STATUS_ERROR)
            self.tracer.set_process_context(prev)
        if not ok:
            self.errors += 1
            return None
        latency = self._sample(self.latencies, started)
        if latency is None:
            return None
        self.completed += 1
        if span is not None:
            self.request_traces.append((latency, span.trace_id))
        return latency

    def result(self, duration: float, **extra) -> RunResult:
        extra.update(self.measured)
        if self.tracer is not None:
            extra["request_traces"] = self.request_traces
        return RunResult(
            completed=self.completed,
            duration=duration,
            latencies=self.latencies,
            errors=self.errors,
            extra=extra,
        )


#: A closed-loop run that has not ended after this many times its
#: virtual length (plus a minute) raises instead of running on.
LIMIT_FACTOR = 20.0
#: Virtual seconds a closed loop runs before measuring.
CLOSED_LOOP_WARMUP = 0.05


def run_closed_loop(
    env: Environment,
    make_op: Callable[[int, Callable[[str, float], Optional[float]]],
                      Callable[[], Generator]],
    num_clients: int,
    duration: float,
    obs=None,
) -> RunResult:
    """N clients looping ``op`` back to back for ``duration`` of virtual
    time (after ``CLOSED_LOOP_WARMUP``). ``make_op(client_index, measure)``
    returns the client's op factory; each call of the factory returns one
    request generator.

    ``measure(label, started)`` is the run's window for what a request
    does inside: called when a sub-request (a read, a delivery, a request
    kind) ends, it keeps ``now - started`` in ``result.extra[label]`` (a
    :class:`~repro.sim.metrics.LatencyRecorder`) if now is inside the
    measurement window, and returns it (None outside).

    Pass an enabled :class:`~repro.obs.ObsRecorder` as ``obs`` to wrap each
    request in a root trace; ``result.extra["request_traces"]`` then holds
    ``(latency, trace_id)`` for every measured request (see
    :func:`dump_slowest_trace`).

    An op that fails without virtual time having advanced since it was
    issued would be re-issued at the same instant forever — the clock, and
    with it the end of the run, would never arrive — so the run raises
    :class:`~repro.sim.kernel.SimulationError` from the op's exception."""
    t_start = env.now + CLOSED_LOOP_WARMUP
    requests = _Requests(env, "closed-loop", obs, t_start, t_start + duration)
    state = {"stop": False, "stuck": None}

    def client(index: int) -> Generator:
        op_factory = make_op(index, requests.measure)
        try:
            while not state["stop"]:
                started = env.now
                span, prev = requests.begin({"client": index})
                try:
                    yield env.process(op_factory(), name=f"client-{index}-op")
                except Interrupt:
                    if span is not None:
                        span.finish(STATUS_ERROR, error="interrupted")
                    raise
                except Exception as exc:  # noqa: BLE001 - workload op failed
                    requests.end(span, prev, started, ok=False)
                    if env.now == started:
                        # Stop every client: the run ends on time and
                        # then raises (see the docstring).
                        state["stuck"], state["stop"] = exc, True
                    continue
                requests.end(span, prev, started)
        except Interrupt:
            return

    clients = [env.process(client(i), name=f"client-{i}") for i in range(num_clients)]
    run_length = CLOSED_LOOP_WARMUP + duration
    stopper = env.timeout(run_length)
    env.run_until(stopper, limit=env.now + run_length * LIMIT_FACTOR + 60.0)
    state["stop"] = True
    for proc in clients:
        if proc.is_alive:
            proc.interrupt("run over")
    env.run(until=env.now)  # flush same-time interrupts
    if state["stuck"] is not None:
        raise SimulationError(
            "a closed-loop op failed in zero virtual time; re-issuing it "
            "would spin at one instant forever") from state["stuck"]
    return requests.result(duration)


#: An open-loop arrival that finds this many requests in flight is not
#: launched.
MAX_IN_FLIGHT = 10_000


def _open_loop(env: Environment, make_op: Callable[[int], Generator], shape,
               max_rate: float, duration: float, rng, warmup: float,
               obs, measured_tail: float) -> RunResult:
    """The open-loop driver: candidate arrivals are a homogeneous Poisson
    process at ``max_rate``; with a ``shape`` each candidate is thinned to
    ``shape.rate_at(t - t0)`` (Lewis–Shedler — exact for any bounded rate
    function), without one every candidate arrives and no thinning draw is
    taken. Requests finishing up to ``measured_tail`` after the arrivals
    end are still measured. Deterministic given ``rng``."""
    latency_series = SampleWindow()
    bucket = 0.1
    arrivals_per_bucket: Dict[int, int] = {}
    state = {"in_flight": 0, "launched": 0}
    t0 = env.now + warmup
    t_end = t0 + duration
    requests = _Requests(env, "open-loop", obs, t0, t_end + measured_tail)

    def one_request(i: int) -> Generator:
        started = env.now
        state["in_flight"] += 1
        span, prev = requests.begin({"request": i})
        try:
            yield env.process(make_op(i), name=f"req-{i}")
        except Exception:  # noqa: BLE001 - workload op failed
            requests.end(span, prev, started, ok=False)
            return
        finally:
            state["in_flight"] -= 1
        latency = requests.end(span, prev, started)
        if latency is not None:
            latency_series.record(env.now - t0, latency)

    def arrival_process() -> Generator:
        i = 0
        while env.now < t_end:
            yield env.timeout(rng.expovariate(max_rate))
            t_rel = env.now - t0
            if shape is not None:
                if env.now >= t_end:
                    break
                rate = shape.rate_at(t_rel) if t_rel >= 0 else shape.rate_at(0.0)
                if rng.random() * max_rate > rate:
                    continue  # thinned: the candidate arrival never happens
            if state["in_flight"] < MAX_IN_FLIGHT:
                env.process(one_request(i), name=f"arrival-{i}")
                state["launched"] += 1
                if t_rel >= 0:
                    arrivals_per_bucket[int(t_rel / bucket)] = (
                        arrivals_per_bucket.get(int(t_rel / bucket), 0) + 1
                    )
            i += 1

    arrivals = env.process(arrival_process(), name="arrivals")
    env.run_until(arrivals, limit=env.now + (warmup + duration) * 50 + 120.0)
    env.run(until=env.now + 0.5)  # let stragglers finish
    offered_series = SampleWindow()
    for idx in sorted(arrivals_per_bucket):
        offered_series.record(idx * bucket, arrivals_per_bucket[idx] / bucket)
    return requests.result(
        duration, launched=state["launched"],
        latency_series=latency_series, offered_series=offered_series)


#: Virtual seconds of :func:`run_open_loop` arrivals before measuring.
OPEN_LOOP_WARMUP = 0.1


def run_open_loop(
    env: Environment,
    make_op: Callable[[int], Generator],
    rate: float,
    duration: float,
    rng,
) -> RunResult:
    """Poisson arrivals at ``rate`` requests/second; ``make_op(i)`` builds
    the i-th request generator. Latency measured per request completed
    before the arrivals end."""
    result = _open_loop(env, make_op, None, rate, duration, rng,
                        OPEN_LOOP_WARMUP, None, measured_tail=0.0)
    result.extra["offered"] = rate
    return result


# ---------------------------------------------------------------------------
# Time-varying traffic shapes (elasticity workloads)
# ---------------------------------------------------------------------------

@dataclass
class FlashCrowdShape:
    """A flash crowd: steady ``base_rate``, then a linear ramp to
    ``peak_rate`` starting at ``surge_at`` over ``ramp`` seconds, held
    for ``hold`` seconds, decaying back linearly over ``decay``."""

    base_rate: float
    peak_rate: float
    surge_at: float
    ramp: float = 0.2
    hold: float = 0.5
    decay: float = 0.3

    def __post_init__(self):
        if self.base_rate < 0 or self.peak_rate < self.base_rate:
            raise ValueError("need 0 <= base_rate <= peak_rate")
        if min(self.ramp, self.hold, self.decay) < 0:
            raise ValueError("ramp/hold/decay must be >= 0")

    @property
    def max_rate(self) -> float:
        return self.peak_rate

    def rate_at(self, t: float) -> float:
        start, peak = self.surge_at, self.peak_rate - self.base_rate
        if t < start or peak <= 0:
            return self.base_rate
        t -= start
        if t < self.ramp:
            return self.base_rate + peak * (t / self.ramp)
        t -= self.ramp
        if t < self.hold:
            return self.peak_rate
        t -= self.hold
        if t < self.decay:
            return self.peak_rate - peak * (t / self.decay)
        return self.base_rate


#: Zipfian skew: YCSB's default hot-key mix.
ZIPF_THETA = 0.99


class ZipfianSampler:
    """YCSB-style Zipfian key sampler over ``[0, n)``: key 0 is the
    hottest, with skew ``ZIPF_THETA``.

    Uses Gray's rejection-free inverse-CDF approximation (the YCSB
    ``ZipfianGenerator``); deterministic given the caller's ``rng``.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one key")
        self.n = n
        theta = ZIPF_THETA
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = sum(1.0 / (i ** theta) for i in range(1, min(n, 2) + 1))
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                     / (1.0 - zeta2 / self._zetan)) if n > 1 else 0.0

    def sample(self, rng) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** ZIPF_THETA:
            return 1
        return int(self.n * ((self._eta * u - self._eta + 1.0) ** self._alpha))


def run_shaped_open_loop(
    env: Environment,
    make_op: Callable[[int], Generator],
    shape,
    duration: float,
    rng,
    obs=None,
) -> RunResult:
    """Open-loop arrivals whose instantaneous rate follows
    ``shape.rate_at(t - t0)`` (t0 = the call's start: measurement starts
    at once), thinned from a Poisson process at ``shape.max_rate``.
    ``obs`` works as in :func:`run_closed_loop`.

    Beyond the usual fields, ``result.extra`` carries the elasticity
    benchmark's raw material: ``latency_series`` (a
    :class:`~repro.sim.metrics.SampleWindow` of per-request latency at
    completion time, relative to t0, stragglers of the last half second
    included) and ``offered_series`` (arrivals per second in 0.1 s
    buckets, relative to t0).
    """
    if shape.max_rate <= 0:
        raise ValueError("shape must have a positive max_rate")
    result = _open_loop(env, make_op, shape, shape.max_rate, duration, rng,
                        0.0, obs, measured_tail=0.5)
    result.extra["shape"] = type(shape).__name__
    return result


def dump_slowest_trace(result: RunResult, obs, path: Optional[str] = None) -> Tuple[str, str]:
    """Chrome trace JSON + critical-path report for the slowest
    measured request of a traced run (``obs`` passed to the run).

    Returns ``(chrome_json, report_text)``; with ``path``, also writes
    ``<path>.json`` and ``<path>.txt`` (parent directories are created).
    """
    import os

    from repro.obs.critical_path import critical_path_report
    from repro.obs.export import slowest_trace, to_chrome_trace

    spans = obs.tracer.spans
    traces = result.extra.get("request_traces") or []
    if traces:
        _, trace_id = max(traces, key=lambda lt: (lt[0], -lt[1]))
    else:
        trace_id = slowest_trace(spans)
    chrome_json = to_chrome_trace(spans, trace_id=trace_id)
    report = critical_path_report(spans, trace_id)
    if path is not None:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(f"{path}.json", "w") as fh:
            fh.write(chrome_json)
        with open(f"{path}.txt", "w") as fh:
            fh.write(report)
    return chrome_json, report
