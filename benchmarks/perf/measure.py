"""Run repetitions of a workload and turn them into metrics.

Three kinds of repetition, each on a fresh same-seed fixture:

- *counted*: ``KernelProfiler`` attached and public counters read before
  and after — gives the exact event count and the per-layer counters.
  Always the first repetition, so it doubles as the interpreter warm-up
  (lazy imports, cold caches) and is never timed;
- *timed*: nothing attached; sliced and calibrated (``estimator``);
- *traced*: under ``cProfile``, folded by layer (``layers``).

:func:`end_to_end` is the ``--trace 0`` pass, :func:`per_layer` the
``--trace 1`` pass; both verify every repetition reproduced the first
one's operation log exactly (the determinism the estimator relies on).
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchmarks.perf.estimator import (
    RepTiming, calibrated_cost, iqr_share, run_sliced, slice_costs, timed_call,
)
from benchmarks.perf.layers import counter_metrics, fold_profile, surface
from benchmarks.perf.workloads import WORKLOADS, Workload, virt_digest
from repro.obs.profile import KernelProfiler
from repro.sim.metrics import percentile_sorted

TIMED, COUNTED, TRACED = "timed", "counted", "traced"
#: Timed repetitions a pass never goes below, whatever the time budget.
MIN_REPS = 3
#: ``ref_us_per_event`` IQR/median across repetitions above which the
#: host is too unsteady and one more set of repetitions is run.
NOISE_LIMIT = 0.15
#: setup_s is the median of at least this many set-ups: workloads whose
#: repetitions are long get few of them, so extra fixtures are built
#: (and discarded) to make up the number.
SETUP_SAMPLES = 7
#: Which workload's modelled results a workload must reproduce exactly.
MIRRORS = {"gateway_layers_on": "gateway_layers_off"}


@dataclass
class Rep:
    """Outcome of one repetition."""

    mode: str
    #: Set-up cost in seconds of the nominal host, and raw.
    setup_s: float
    setup_cpu_s: float
    cpu_s: float
    timing: Optional[RepTiming]
    #: Ops completed inside the timed region, and the hash of their log.
    ops: int
    digest: str
    #: Their latencies — kept for the counted repetition only, so memory
    #: (peak_rss_mb) does not grow with the number of repetitions.
    latencies: List[float]
    #: Failures over the whole repetition, the drain and checks included.
    failed: int
    messages: List[str]
    lateness_max: float
    #: counted: kernel statistics and per-layer counters; traced: the
    #: folded profile.
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.ops + self.failed


def timed_build(workload: Workload, seed: int):
    """A fresh fixture, the raw host CPU seconds its set-up took, and the
    same in seconds of the nominal host (``setup_s``)."""
    gc.collect()
    return timed_call(lambda: workload.build(seed))


def run_rep(workload: Workload, seed: int, mode: str = TIMED) -> Rep:
    run, setup_cpu_s, setup_s = timed_build(workload, seed)
    env, duration = run.env, workload.duration
    timing = kernel = before = None
    extra: Dict[str, float] = {}
    if mode == TRACED:
        profile = cProfile.Profile()
        began = time.process_time()
        profile.enable()
        env.run(until=env.now + duration)
        profile.disable()
        cpu_s = time.process_time() - began
    else:
        worker_depth = [0]
        on_slice = None
        if mode == COUNTED:
            kernel = KernelProfiler(env)
            if run.cluster is not None:
                before = surface(run)

                def on_slice() -> None:
                    # Worker queues publish no peak; sample at slice ends.
                    worker_depth[0] = max(
                        worker_depth[0], *(f.queue_depth for f in run.cluster.function_nodes))
        timing = run_sliced(env, duration, workload.slices, on_slice)
        cpu_s = timing.cpu
    ops, digest = len(run.ops), virt_digest(run.ops)
    latencies = [latency for _, _, latency in run.ops] if mode == COUNTED else []
    if kernel is not None:
        kernel.detach()
        extra = {
            "events": kernel.events_processed,
            "sim.kernel.heap_depth_max": kernel.max_queue_depth,
            "sim.kernel.heap_depth_mean": kernel.mean_queue_depth,
            "sim.kernel.events_per_virt_s": kernel.events_processed / duration,
        }
        if before is not None:
            extra.update(counter_metrics(
                before, surface(run), worker_depth[0], ops, ops + run.failed, duration,
            ))
    run.finish()
    if mode == TRACED:
        extra = fold_profile(profile, ops)
    return Rep(mode, setup_s, setup_cpu_s, cpu_s, timing, ops, digest, latencies, run.failed, run.messages,
               run.lateness_max, extra)


class Pass:
    """The repetitions of one workload in one process, and what they
    establish: failures, determinism, and the host-cost estimate."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.counted = run_rep(workload, seed, COUNTED)
        self.timed: List[Rep] = []
        #: Summed over every repetition made, so failed/attempted is a share.
        self.attempted = self.counted.attempted
        self.failed = self.counted.failed
        self.messages = list(self.counted.messages)
        self.notes: List[str] = []
        self.digest = self.counted.digest

    @property
    def ops(self) -> int:
        return self.counted.ops

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def add(self, rep: Rep) -> Rep:
        """Account a further repetition; it must reproduce the first."""
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.messages += rep.messages
        if rep.digest != self.digest:
            self.fail(f"{rep.mode} repetition is not deterministic: its operation log differs "
                      f"from the first repetition's")
        if rep.mode == TIMED:
            self.timed.append(rep)
        return rep

    def run_reps(self, reps: int) -> None:
        for _ in range(reps):
            self.add(run_rep(self.workload, self.seed))

    def run_for(self, seconds: float, min_reps: int = MIN_REPS) -> None:
        """Timed repetitions until ``seconds`` of wall time are spent;
        one more set if the reference cost was unsteady across them."""
        first = self._timed_set(seconds, min_reps)
        noise = self.ref_noise()
        if noise > NOISE_LIMIT:
            self.notes.append(
                f"noise sentinel: ref_us_per_event IQR/median {noise:.3f} > {NOISE_LIMIT} over "
                f"{first} repetitions; ran one more set (all repetitions kept)")
            self._timed_set(seconds, first)

    def _timed_set(self, seconds: float, min_reps: int) -> int:
        """Repetitions until the next one would overrun the budget."""
        deadline = time.monotonic() + seconds
        done, last = 0, 0.0
        while done < min_reps or time.monotonic() + last < deadline:
            began = time.monotonic()
            self.run_reps(1)
            last = time.monotonic() - began
            done += 1
        return done

    def check_mirror(self) -> None:
        mirror = MIRRORS.get(self.workload.name)
        if mirror is None:
            return
        reference = run_rep(WORKLOADS[mirror], self.seed, COUNTED)
        if reference.failed:
            self.fail(f"{mirror} reference repetition had {reference.failed} failures")
        if reference.digest != self.digest:
            self.fail(f"not transparent: operation log differs from {mirror}'s "
                      f"({reference.ops} vs {self.ops} ops)")

    def ref_noise(self) -> float:
        return iqr_share([rep.timing.ref_us_per_event for rep in self.timed])

    def refev_per_op(self) -> float:
        return calibrated_cost([rep.timing for rep in self.timed]) / self.ops

    def bench_metrics(self) -> Dict[str, float]:
        """The estimator's own raw numbers."""
        return {
            "bench.host_us_per_op": statistics.median(
                rep.cpu_s for rep in self.timed) / self.ops * 1e6,
            "bench.ref_us_per_event": statistics.median(
                rep.timing.ref_us_per_event for rep in self.timed),
            "bench.noise_iqr_share": self.ref_noise(),
        }

    def repetitions(self) -> List[Dict[str, float]]:
        """Every repetition made, for the ledger."""
        return [
            {"mode": rep.mode, "setup_s": rep.setup_s, "setup_cpu_s": rep.setup_cpu_s,
             "cpu_s": rep.cpu_s,
             "ref_us_per_event": rep.timing.ref_us_per_event,
             "refev_per_op": sum(slice_costs(rep.timing)) / self.ops}
            for rep in [self.counted] + self.timed
        ]

    def result(self, metrics: Dict[str, float], **info) -> dict:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "info": {
                "virt_digest": self.digest,
                "messages": self.messages[:20],
                "notes": self.notes,
                "repetitions": self.repetitions(),
                **info,
            },
        }


def end_to_end(workload: Workload, seed: int, seconds: float,
               min_reps: int = MIN_REPS) -> dict:
    """The ``--trace 0`` pass: nothing attached to the timed repetitions."""
    run = Pass(workload, seed)
    run.run_for(seconds, min_reps)
    run.check_mirror()
    latencies = sorted(run.counted.latencies)
    per_rep = [sum(slice_costs(rep.timing)) for rep in run.timed]
    setups = [rep.setup_s for rep in run.timed]
    while len(setups) < SETUP_SAMPLES:
        setups.append(timed_build(workload, seed)[2])
    metrics = {
        "host_refev_per_op": run.refev_per_op(),
        "events_per_op": run.counted.extra["events"] / run.ops,
        "virt_ops_per_s": run.ops / workload.duration,
        "virt_mean_ms": statistics.fmean(latencies) * 1e3,
        "virt_p99_ms": percentile_sorted(latencies, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    return run.result(
        metrics,
        latency_samples=len(latencies),
        virt_p50_ms=percentile_sorted(latencies, 50) * 1e3,
        generator_lateness_max_ms=run.counted.lateness_max * 1e3,
        # Spread of the host-dependent metrics across this pass's own
        # repetitions: what `compare` calls unresolved when too wide.
        spread={"host_refev_per_op": iqr_share(per_rep), "setup_s": iqr_share(setups)},
    )


def per_layer(workload: Workload, seed: int, reps: int = MIN_REPS) -> dict:
    """The ``--trace 1`` pass: counters, a few untraced repetitions for
    the baseline, then one repetition under cProfile."""
    run = Pass(workload, seed)
    run.run_reps(reps)
    traced = run.add(run_rep(workload, seed, TRACED))
    metrics = dict(traced.extra)
    metrics["bench.trace_overhead_ratio"] = traced.cpu_s / statistics.median(
        rep.cpu_s for rep in run.timed)
    metrics.update((k, v) for k, v in run.counted.extra.items() if k != "events")
    metrics.update(run.bench_metrics())
    return run.result(metrics)
