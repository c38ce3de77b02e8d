"""Seeded random variates for simulations.

Each logical consumer of randomness gets its own named stream so that adding
a new consumer does not perturb the draws seen by existing ones — a standard
technique for keeping discrete-event experiments comparable across runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence


class RandomStreams:
    """A family of independent, deterministically seeded RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict = {}

    def stream(self, name: str) -> random.Random:
        """Return the named stream, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng


def zipf_weights(n: int, s: float) -> List[float]:
    """Normalized Zipf weights for ranks 1..n with exponent ``s``.

    Used by Table 8's skewed LogBook-popularity workloads.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if s < 0:
        raise ValueError("exponent must be non-negative")
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def weighted_choice(rng: random.Random, weights: Sequence[float]) -> int:
    """Pick an index proportionally to ``weights`` (need not be normalized)."""
    total = sum(weights)
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1
