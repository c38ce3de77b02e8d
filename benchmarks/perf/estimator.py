"""The calibrated host-cost estimator.

Raw host time on a shared box drifts 10-25% between back-to-back runs, so
a stopwatch cannot gate anything. This estimator leans on two facts:

- the simulation is deterministic, so slice *k* of a run (a fixed window
  of virtual time) does byte-identical work in every repetition — the
  median across repetitions discards repetitions a noisy neighbour hit;
- host-speed drift is slow against a slice, so dividing each slice's CPU
  time by the per-event cost of the frozen reference chunks timed right
  before and after it (``_calibrate.run_chunk``) cancels the drift.

The result is a host cost in *reference events*: how many events of the
frozen mini-DES the host could have processed instead.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from benchmarks.perf._calibrate import CHUNK_EVENTS, run_chunk

T = TypeVar("T")

#: Equal virtual-time slices per repetition of a workload.
SLICES = 60
#: The nominal host, on which one reference event costs exactly 1 us
#: (this box: ~1.05 us). ``setup_s`` is reported in its seconds, so a
#: slow phase of the real host does not read as slower set-up.
NOMINAL_REF_EVENT_S = 1e-6


@dataclass
class RepTiming:
    """CPU seconds of one repetition: ``slice_cpu[k]`` is slice *k*,
    ``ref_cpu[k]``/``ref_cpu[k + 1]`` the reference chunks around it."""

    slice_cpu: List[float] = field(default_factory=list)
    ref_cpu: List[float] = field(default_factory=list)

    @property
    def cpu(self) -> float:
        return sum(self.slice_cpu)

    @property
    def ref_us_per_event(self) -> float:
        return statistics.median(self.ref_cpu) / CHUNK_EVENTS * 1e6


def time_chunk() -> float:
    """CPU seconds of one reference chunk, run now."""
    started = time.process_time()
    run_chunk()
    return time.process_time() - started


def timed_call(build: Callable[[], T]) -> Tuple[T, float, float]:
    """``build()`` with a reference chunk either side: its result, its
    raw CPU seconds, and its cost in seconds of the nominal host."""
    before = time_chunk()
    began = time.process_time()
    result = build()
    cpu_s = time.process_time() - began
    per_event = (before + time_chunk()) / 2 / CHUNK_EVENTS
    return result, cpu_s, cpu_s / per_event * NOMINAL_REF_EVENT_S


def run_sliced(env, duration: float, slices: int = SLICES,
               on_slice: Optional[Callable[[], None]] = None) -> RepTiming:
    """Advance ``env`` by ``duration`` virtual seconds in ``slices`` equal
    steps, timing each step and a reference chunk between steps.
    ``on_slice`` (untimed) runs after every step — the counters' sampling
    hook."""
    timing = RepTiming()
    start = env.now
    timing.ref_cpu.append(time_chunk())
    for k in range(1, slices + 1):
        began = time.process_time()
        env.run(until=start + duration * k / slices)
        timing.slice_cpu.append(time.process_time() - began)
        if on_slice is not None:
            on_slice()
        timing.ref_cpu.append(time_chunk())
    return timing


def slice_costs(timing: RepTiming) -> List[float]:
    """Each slice's cost in reference events."""
    ref = timing.ref_cpu
    return [
        cpu / ((ref[k] + ref[k + 1]) / 2 / CHUNK_EVENTS)
        for k, cpu in enumerate(timing.slice_cpu)
    ]


def calibrated_cost(reps: Sequence[RepTiming]) -> float:
    """Host cost of one repetition in reference events: per slice, the
    median across repetitions of the calibrated slice cost; summed."""
    per_rep = [slice_costs(t) for t in reps]
    return sum(statistics.median(column) for column in zip(*per_rep))


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
