"""EWMA + hysteresis scaling policy.

The policy is a pure state machine over (time, utilization, fleet size):
no simulation events, no randomness — same inputs, same decisions, so
autoscaled same-seed runs stay byte-identical.

Flap protection is layered three ways:

1. **EWMA smoothing** (:data:`ALPHA`) filters single-sample spikes.
2. **Consecutive-breach hysteresis**: the smoothed signal must sit above
   :data:`HIGH_WATERMARK` for :data:`BREACH_UP` consecutive samples (or
   below :data:`LOW_WATERMARK` for the fleet's ``breach_down``) before
   anything happens. Crossing back into the dead band resets both
   counters.
3. **Asymmetric cooldowns**: after any fleet change, scale-out is
   blocked for :data:`COOLDOWN_UP` seconds and scale-in for the fleet's
   (longer) ``cooldown_down`` — growing is cheap and urgent, shrinking
   is neither.

Scale-out sizes the jump proportionally (``ceil(current * smoothed /
target)`` where target is the middle of the dead band) so a flash crowd
is absorbed in one reconfiguration instead of a staircase; scale-in
always steps down one node at a time, because each removal narrows the
failure-tolerance margin and must be re-observed before the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf
from typing import Optional

from repro.sim.metrics import Ewma

#: Smoothed utilization above which a fleet breaches upward, and below
#: which it breaches downward; between the two lies the dead band.
HIGH_WATERMARK = 0.75
LOW_WATERMARK = 0.30
#: Smoothing factor of the utilization EWMA.
ALPHA = 0.5
#: Consecutive upward breaches before a scale-out.
BREACH_UP = 2
#: Seconds after any fleet change before a scale-out.
COOLDOWN_UP = 0.25


@dataclass
class PolicyConfig:
    """The per-fleet settings of a :class:`HysteresisPolicy` (defaults in
    ``docs/elasticity.md``)."""

    breach_down: int = 4
    cooldown_down: float = 1.0
    min_nodes: int = 1
    max_nodes: Optional[int] = None

    def __post_init__(self):
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes is not None and self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")


class HysteresisPolicy:
    """Turns a utilization stream into fleet-size deltas."""

    def __init__(self, config: Optional[PolicyConfig] = None):
        self.config = config or PolicyConfig()
        self.ewma = Ewma(ALPHA)
        self.up_breaches = 0
        self.down_breaches = 0
        self.last_change: float = -inf
        self.decisions = 0

    @property
    def smoothed(self) -> Optional[float]:
        return self.ewma.value

    def observe(self, now: float, utilization: float, current_nodes: int) -> int:
        """Feed one sample; returns the desired fleet-size delta
        (positive: scale out, negative: scale in, 0: hold)."""
        cfg = self.config
        smoothed = self.ewma.update(utilization)
        self.decisions += 1
        if smoothed > HIGH_WATERMARK:
            self.up_breaches += 1
            self.down_breaches = 0
        elif smoothed < LOW_WATERMARK:
            self.down_breaches += 1
            self.up_breaches = 0
        else:
            self.up_breaches = 0
            self.down_breaches = 0

        ceiling = cfg.max_nodes if cfg.max_nodes is not None else current_nodes
        if (self.up_breaches >= BREACH_UP
                and now - self.last_change >= COOLDOWN_UP
                and current_nodes < ceiling):
            target = (HIGH_WATERMARK + LOW_WATERMARK) / 2.0
            desired = ceil(current_nodes * smoothed / target)
            desired = max(current_nodes + 1, desired)
            desired = min(desired, ceiling)
            return desired - current_nodes

        if (self.down_breaches >= cfg.breach_down
                and now - self.last_change >= cfg.cooldown_down
                and current_nodes > cfg.min_nodes):
            return -1
        return 0

    def record_change(self, now: float) -> None:
        """Mark a fleet change (ours or anyone's): restart cooldowns and
        require fresh breach streaks against the new fleet size."""
        self.last_change = now
        self.up_breaches = 0
        self.down_breaches = 0
