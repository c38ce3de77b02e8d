"""The one interception seam between protocol code and optional layers.

Protocol components (network, engine, storage, sequencer, gateway, worker)
and the support libraries know nothing about observability, monitoring,
resilience, admission, tenancy or the chaos operation history. They
expose two kinds of attachment point and nothing else:

- a :class:`Signal` is a *point event* the component owns: the tuple of
  its subscribers, which the component loops over at the point with plain
  values. It is for **observers**: a subscriber must not yield, draw
  randomness, or raise into the protocol.
- :func:`wrap` replaces a method the component lists in its class-level
  ``WRAP_POINTS`` with ``wrapper(inner)``. It is for **interceptors and
  region scopes** (admission windows, failover loops, spans).

This module imports nothing from ``repro``; layers import it, never the
other way round.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["Signal", "subscribe", "wrap"]

#: Nesting order when several layers wrap one point, outermost first. It is
#: fixed here — not by the order ``enable_*`` was called — because span
#: trees and shed order must not depend on enable order. ``chaos`` (the
#: operation history) is outermost: it records what the caller saw.
PRECEDENCE = ("chaos", "obs", "tenancy", "admission", "resil")


class Signal(tuple):
    """A point event, which is its own subscriber list: ``self.append_started
    = Signal()`` in the owner, ``for observe in self.append_started:
    observe(shard, key, now)`` at the point in the protocol body, and
    ``subscribe(engine, "append_started", fn)`` in a layer.

    Subscribers run in subscription order. An unsubscribed signal is an
    empty tuple, so its point costs a loop over nothing and no call. A
    signal never changes: :func:`subscribe` rebinds the owner's attribute,
    so an emission under way runs the subscribers it started with.
    """

    __slots__ = ()


def subscribe(component, point: str, observer: Callable[..., None]) -> None:
    """Add ``observer`` to the :class:`Signal` ``component.<point>``.

    Raises ``KeyError`` for an attribute that is not a signal, so a typo
    fails at ``enable_*`` time instead of silently observing nothing.
    """
    signal = getattr(component, point, None)
    if not isinstance(signal, Signal):
        raise KeyError(f"{type(component).__name__} has no signal {point!r}")
    setattr(component, point, Signal((*signal, observer)))


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
