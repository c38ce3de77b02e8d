"""Measurement helpers: latency recorders, time-ordered sample windows and
an exponentially weighted moving average.

Every experiment in the benchmark harness reports through these classes so
that percentile math is consistent across tables and figures.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import Any, Dict, List, Optional, Tuple


def percentile_sorted(ordered: List[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not ordered:
        raise ValueError("no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} out of range")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def percentile(samples: List[float], p: float) -> float:
    """Linear-interpolated percentile of ``samples`` (p in [0, 100])."""
    return percentile_sorted(sorted(samples), p)


def nearest_rank(ordered: List[float], q: float) -> Optional[float]:
    """Nearest-rank quantile (q in [0, 1]) of an already-sorted list —
    always an observed sample, which is what SLO bounds are stated
    against; None when empty."""
    if not ordered:
        return None
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


class Ewma:
    """Exponentially weighted moving average; seeded by the first sample."""

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = sample
        else:
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value
        return self.value


class LatencyRecorder:
    """Collects latency samples and reports summary statistics.

    The sorted view is computed lazily and cached (invalidated by
    :meth:`record`), so a full :meth:`summary_dict` sorts the samples once
    instead of once per statistic.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        self._ordered: Optional[List[float]] = None

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        self.samples.append(latency)
        self._ordered = None

    def sorted_samples(self) -> List[float]:
        """The samples in ascending order (cached; do not mutate)."""
        if self._ordered is None or len(self._ordered) != len(self.samples):
            self._ordered = sorted(self.samples)
        return self._ordered

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        return percentile_sorted(self.sorted_samples(), p)

    def median(self) -> float:
        return self.percentile(50)

    def p95(self) -> float:
        return self.percentile(95)

    def p99(self) -> float:
        return self.percentile(99)

    def p999(self) -> float:
        return self.percentile(99.9)

    def mean(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return sum(self.samples) / len(self.samples)

    def max(self) -> float:
        ordered = self.sorted_samples()
        if not ordered:
            raise ValueError("no samples")
        return ordered[-1]

    def summary_dict(self) -> Dict[str, float]:
        """JSON-ready percentile summary under stable ``pNN`` keys, so
        benchmarks stop hand-rolling percentile dicts."""
        ordered = self.sorted_samples()
        if not ordered:
            raise ValueError("no samples")
        return {
            "count": float(len(ordered)),
            "mean": self.mean(),
            "min": ordered[0],
            "p50": percentile_sorted(ordered, 50),
            "p95": percentile_sorted(ordered, 95),
            "p99": percentile_sorted(ordered, 99),
            "p999": percentile_sorted(ordered, 99.9),
            "max": ordered[-1],
        }


class SampleWindow:
    """Time-ordered ``(t, value)`` samples with windowed queries.

    The one windowing primitive behind registry gauges, the
    freshness/latency monitors, the burn-rate rules and the harness's
    latency timelines (Fig. 10/14): O(1) amortized ingest, O(log n)
    window selection, optional pruning so long runs keep bounded state. A window is ``start <= t <= end``, both inclusive:
    ``end`` defaults to the last sample's time and ``window`` is a
    lookback duration ending at ``end`` (combined with ``start``, the
    later of the two bounds wins).
    """

    __slots__ = ("samples",)

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []

    def __len__(self) -> int:
        return len(self.samples)

    def record(self, t: float, value: float) -> None:
        if self.samples and t < self.samples[-1][0]:
            raise ValueError(
                f"samples must be time-ordered ({t} < {self.samples[-1][0]})"
            )
        self.samples.append((t, value))

    def _bounds(
        self,
        window: Optional[float],
        start: Optional[float],
        end: Optional[float],
    ) -> Tuple[int, int]:
        samples = self.samples
        if end is None:
            end = samples[-1][0] if samples else 0.0
        if window is not None:
            lookback = end - window
            start = lookback if start is None else max(start, lookback)
        lo = 0 if start is None else bisect_left(samples, (start, -inf))
        hi = bisect_left(samples, (end, inf))
        return lo, hi

    def values(
        self,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[float]:
        lo, hi = self._bounds(window, start, end)
        return [v for _, v in self.samples[lo:hi]]

    def stats(
        self,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Count/mean/max/min/last over the window; an empty selection
        has ``count == 0`` and None statistics — callers decide what "no
        data" means."""
        values = self.values(window=window, start=start, end=end)
        if not values:
            return {"count": 0, "mean": None, "max": None, "min": None, "last": None}
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "max": max(values),
            "min": min(values),
            "last": values[-1],
        }

    def quantile(
        self,
        q: float,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Optional[float]:
        """Nearest-rank quantile over the window (None when empty)."""
        return nearest_rank(
            sorted(self.values(window=window, start=start, end=end)), q)

    def prune(self, before: float) -> None:
        """Drop samples with ``t < before`` (keeps state bounded)."""
        lo = bisect_left(self.samples, (before, -inf))
        if lo:
            del self.samples[:lo]


class SuccessWindow(SampleWindow):
    """Per-operation success accounting: ``(t, ok)`` samples plus a prefix
    sum of successes, so windowed availability is two bisects and a
    subtraction instead of a rescan of raw samples.

    This is the windowed counter behind both the online availability
    monitor and :func:`repro.chaos.liveness.recovery_metrics` — one
    incremental implementation instead of per-call recomputation.
    """

    __slots__ = ("_cum_ok", "_ok_completions")

    def __init__(self):
        super().__init__()
        self._cum_ok: List[int] = []  # _cum_ok[i] = successes among samples[:i+1]
        self._ok_completions: List[Tuple[float, float]] = []  # (t_invoke, t_done)

    def record(self, t: float, ok: bool, t_done: Optional[float] = None) -> None:
        super().record(t, 1.0 if ok else 0.0)
        prev = self._cum_ok[-1] if self._cum_ok else 0
        self._cum_ok.append(prev + (1 if ok else 0))
        if ok and t_done is not None:
            self._ok_completions.append((t, t_done))

    def counts(
        self,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Tuple[int, int]:
        """``(operations, successes)`` inside the window."""
        lo, hi = self._bounds(window, start, end)
        if hi <= lo:
            return 0, 0
        ok = self._cum_ok[hi - 1] - (self._cum_ok[lo - 1] if lo else 0)
        return hi - lo, ok

    def availability(
        self,
        window: Optional[float] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Optional[float]:
        count, ok = self.counts(window=window, start=start, end=end)
        return ok / count if count else None

    def first_ok_after(self, t0: float) -> Optional[float]:
        """Earliest completion time among successful operations *invoked*
        at/after ``t0`` (the RTO numerator). None if none succeeded."""
        lo = bisect_left(self._ok_completions, (t0, -inf))
        tail = self._ok_completions[lo:]
        return min(done for _, done in tail) if tail else None

    def prune(self, before: float) -> None:  # pragma: no cover - safety net
        raise NotImplementedError(
            "SuccessWindow keeps its full prefix sum; wrap-around pruning "
            "would silently change availability history"
        )
