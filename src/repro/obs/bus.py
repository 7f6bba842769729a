"""A typed publish/subscribe event bus for the whole execution substrate.

One :class:`EventBus` instance lives on each :class:`~repro.cluster.cluster.Cluster`
and every layer above it (YARN RM/NM, HDFS, failure injector, AM)
publishes onto it. Design constraints, in order:

* **Cheap when idle.** With no subscriber attached, publishers pay one
  dict lookup — they guard event *construction* with
  :meth:`EventBus.wants`, so a quiet bus costs nothing measurable
  (guarded by ``tests/test_obs.py::test_idle_bus_emit_is_near_free``).
* **Deterministic.** Delivery is synchronous and in subscription order;
  each delivered event is stamped with the simulated clock (``env.now``)
  and a strictly increasing sequence number, so two runs with identical
  seeds observe byte-identical streams.
* **Typed.** A subscriber is a handler table: a mapping from event class
  (exact type, no subclass dispatch) to the handler that receives the
  dataclass instance. Replaying recorded events needs no bus: look each
  event's handler up in the same table.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Type

from repro.obs.events import ObsEvent

__all__ = ["EventBus", "Subscription"]

Handler = Callable[[ObsEvent], None]
Handlers = Mapping[Type[ObsEvent], Handler]

_EMPTY: tuple = ()


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; cancels the whole
    handler table at once."""

    __slots__ = ("bus", "handlers")

    def __init__(self, bus: "EventBus", handlers: dict):
        self.bus = bus
        self.handlers = handlers

    def cancel(self) -> None:
        """Detach every handler of this subscription (idempotent)."""
        self.bus.unsubscribe(self)


class EventBus:
    """Synchronous, deterministic pub/sub hub for :class:`ObsEvent` s."""

    __slots__ = ("env", "active", "_handlers", "_seq")

    def __init__(self, env=None):
        #: The simulation environment providing the clock. ``None`` is
        #: allowed for buses that never gain subscribers (events would be
        #: stamped with t=0.0).
        self.env = env
        #: Fast-path flag: ``True`` iff at least one subscriber exists.
        self.active = False
        self._handlers: dict[type, list[Handler]] = {}
        self._seq = itertools.count()

    # -- subscription management ------------------------------------------------

    def subscribe(self, handlers: Handlers) -> Subscription:
        """Attach every ``event class -> handler`` pair of ``handlers``.

        Handlers fire synchronously during :meth:`emit`, for events of
        exactly their key's class, in subscription order.
        """
        handlers = dict(handlers)
        for event_type, handler in handlers.items():
            if not (isinstance(event_type, type)
                    and issubclass(event_type, ObsEvent)):
                raise TypeError(
                    "handler keys must be ObsEvent subclasses, "
                    f"got {event_type!r}"
                )
            self._handlers.setdefault(event_type, []).append(handler)
        self.active = bool(self._handlers)
        return Subscription(self, handlers)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription previously returned by :meth:`subscribe`."""
        for event_type, handler in subscription.handlers.items():
            pool = self._handlers[event_type]
            pool.remove(handler)
            if not pool:
                del self._handlers[event_type]
        subscription.handlers = {}  # Cancelling twice is a no-op.
        self.active = bool(self._handlers)

    # -- publishing --------------------------------------------------------------

    def wants(self, event_type: Type[ObsEvent]) -> bool:
        """Whether any subscriber would see an event of ``event_type``.

        Publishers on hot paths call this before *constructing* the
        event, so a bus without subscribers costs one dict lookup per
        potential emission.
        """
        return event_type in self._handlers

    def emit(self, event: ObsEvent) -> ObsEvent:
        """Stamp ``event`` with (env.now, seq) and deliver it synchronously.

        Returns the event (stamped if delivered) for caller convenience.
        """
        if not self.active:
            return event
        event.t = self.env.now if self.env is not None else 0.0
        event.seq = next(self._seq)
        for handler in self._handlers.get(type(event), _EMPTY):
            handler(event)
        return event
