"""The one interception seam between protocol code and optional layers.

Protocol components (network, engine, storage, sequencer, gateway, worker)
and the support libraries know nothing about observability, monitoring,
resilience, admission, tenancy or the chaos operation history. They
expose two kinds of attachment point and nothing else:

- a :func:`Signal` is a *point event* the component owns and calls
  unconditionally with plain values. It is for **observers**: a subscriber
  must not yield, draw randomness, or raise into the protocol.
- :func:`wrap` replaces a method the component lists in its class-level
  ``WRAP_POINTS`` with ``wrapper(inner)``. It is for **interceptors and
  region scopes** (admission windows, failover loops, spans).

This module imports nothing from ``repro``; layers import it, never the
other way round.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Signal", "wrap"]

#: Nesting order when several layers wrap one point, outermost first. It is
#: fixed here — not by the order ``enable_*`` was called — because span
#: trees and shed order must not depend on enable order. ``chaos`` (the
#: operation history) is outermost: it records what the caller saw.
PRECEDENCE = ("chaos", "obs", "tenancy", "admission", "resil")


def Signal() -> Callable[..., None]:
    """A point event: ``self.append_started = Signal()`` in the owner,
    ``self.append_started(shard, key, now)`` in the protocol body,
    ``engine.append_started.subscribe(fn)`` in a layer.

    Subscribers run in subscription order; with none attached a call is
    one empty loop. (A closure rather than a class with ``__call__``: a
    plain function call is about half the price on CPython, and this call
    sits on every message of the layers-off path.)
    """
    subscribers = ()

    def emit(*args) -> None:
        for subscriber in subscribers:
            subscriber(*args)

    def subscribe(subscriber: Callable[..., None]) -> None:
        nonlocal subscribers
        subscribers += (subscriber,)

    emit.subscribe = subscribe
    return emit


def wrap(component, point: str, wrapper: Callable[[Callable], Callable],
         layer: str) -> None:
    """Replace ``component.<point>`` with ``wrapper(inner)`` on behalf of
    ``layer``; ``inner`` is whatever the layers of lower precedence (and
    finally the component's own method) make of the point.

    Raises ``KeyError`` for a point the component does not declare or a
    layer not in :data:`PRECEDENCE`, and ``ValueError`` when the layer
    already wraps the point — a typo or a double attach fails at
    ``enable_*`` time instead of silently doing nothing.
    """
    if point not in type(component).WRAP_POINTS:
        raise KeyError(f"{type(component).__name__} declares no wrap point {point!r}")
    if layer not in PRECEDENCE:
        raise KeyError(f"unknown layer {layer!r} (precedence: {PRECEDENCE})")
    current = getattr(component, point)
    core, wrappers = component.__dict__.setdefault("_seam", {}).setdefault(
        point, (current, {}))
    if layer in wrappers:
        raise ValueError(f"layer {layer!r} already wraps {point!r}")
    wrappers[layer] = wrapper
    composed = core
    for name in reversed(PRECEDENCE):
        if name in wrappers:
            composed = wrappers[name](composed)
    setattr(component, point, composed)
    # A wrap point that is also a registered node handler is re-registered.
    node = getattr(component, "node", None)
    if node is not None:
        for method, handler in node.handlers.items():
            if handler == current:
                node.handlers[method] = composed
