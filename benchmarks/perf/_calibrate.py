"""Frozen reference mini-DES: the host-speed yardstick of the perf ledger.

FROZEN — do not edit, optimise, or "clean up" this file. Every
``host_refev_per_op`` in every committed ``BENCH_<pr>.json`` is a ratio
against the cost of one *reference event* as defined by the code below;
changing the code changes the unit and silently breaks comparison with
every earlier ledger entry. If it ever must change, rename the metric.

It imports nothing from ``repro`` (so no simulator optimisation can move
it) and exercises the same interpreter machinery the real kernel leans
on: a heap of ``(time, id, event)`` tuples, generator ``send``, small
object allocation, attribute access, and a callback list — so host-speed
drift (frequency scaling, a noisy neighbour, cache pressure) slows the
reference and the simulator by about the same factor.
"""

import heapq

#: Reference events per chunk; one chunk is timed between two slices.
CHUNK_EVENTS = 3000

_PROCS = 24


class _RefEvent:
    __slots__ = ("callbacks", "value", "ok")

    def __init__(self, value):
        self.callbacks = []
        self.value = value
        self.ok = True


def _ref_process(index):
    # A "client": waits, does a little arithmetic, asks for its next delay.
    state = index * 2654435761 % 4294967296
    seen = 0
    while True:
        value = yield 1e-4 + (state % 1000) * 1e-6
        state = (state * 1103515245 + 12345 + value) % 4294967296
        seen += 1


def run_chunk(events=CHUNK_EVENTS):
    """Process ``events`` reference events; returns a checksum so the work
    cannot be elided. Fresh state per call: chunks are independent."""
    heap = []
    now = 0.0
    eid = 0
    procs = []
    for i in range(_PROCS):
        gen = _ref_process(i)
        delay = next(gen)
        event = _RefEvent(i)
        event.callbacks.append(gen.send)
        eid += 1
        heapq.heappush(heap, (now + delay, eid, event))
        procs.append(gen)
    checksum = 0
    for _ in range(events):
        now, _, event = heapq.heappop(heap)
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            delay = callback(event.value)
            nxt = _RefEvent(event.value + 1)
            nxt.callbacks.append(callback)
            eid += 1
            heapq.heappush(heap, (now + delay, eid, nxt))
        checksum += eid
    for gen in procs:
        gen.close()
    return checksum
