"""A typed publish/subscribe event bus for the whole execution substrate.

One :class:`EventBus` instance lives on each :class:`~repro.cluster.cluster.Cluster`
and every layer above it (YARN RM/NM, HDFS, failure injector, AM)
publishes onto it. Design constraints, in order:

* **Cheap when idle.** With no subscriber attached, publishers pay an
  attribute read and a branch — they guard event *construction* with
  :meth:`EventBus.wants`, so a quiet bus costs nothing measurable
  (guarded by ``tests/test_obs.py::test_idle_bus_emit_is_near_free``).
* **Deterministic.** Delivery is synchronous and in subscription order;
  each delivered event is stamped with the simulated clock (``env.now``)
  and a strictly increasing sequence number, so two runs with identical
  seeds observe byte-identical streams.
* **Typed.** Subscribers select by event class, by topic string, or by
  the ``"*"`` wildcard; handlers receive the dataclass instance, not a
  serialised dict.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Type, Union

from repro.obs.events import ObsEvent

__all__ = ["EventBus", "Subscription"]

Handler = Callable[[ObsEvent], None]
Selector = Union[str, Type[ObsEvent]]

_EMPTY: tuple = ()


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; used to detach."""

    __slots__ = ("bus", "key", "handler")

    def __init__(self, bus: "EventBus", key, handler: Handler):
        self.bus = bus
        self.key = key
        self.handler = handler

    def cancel(self) -> None:
        """Detach this subscription from its bus (idempotent)."""
        self.bus.unsubscribe(self)


class EventBus:
    """Synchronous, deterministic pub/sub hub for :class:`ObsEvent` s."""

    __slots__ = ("env", "active", "_by_type", "_by_topic", "_wildcard", "_seq")

    def __init__(self, env=None):
        #: The simulation environment providing the clock. ``None`` is
        #: allowed for buses that never gain subscribers (events would be
        #: stamped with t=0.0).
        self.env = env
        #: Fast-path flag: ``True`` iff at least one subscriber exists.
        #: Publishers read this (or :meth:`wants`) before building events.
        self.active = False
        self._by_type: dict[type, list[Handler]] = {}
        self._by_topic: dict[str, list[Handler]] = {}
        self._wildcard: list[Handler] = []
        self._seq = itertools.count()

    # -- subscription management ------------------------------------------------

    def subscribe(self, selector: Selector, handler: Handler) -> Subscription:
        """Attach ``handler`` to events matching ``selector``.

        ``selector`` may be an event class (exact type match, no
        subclass dispatch), a topic string like ``"yarn"``, or ``"*"``
        for every event. Handlers fire synchronously during
        :meth:`emit`, in subscription order, grouped as: exact-type
        subscribers first, then topic subscribers, then wildcards.
        """
        if selector == "*":
            self._wildcard.append(handler)
        elif isinstance(selector, str):
            self._by_topic.setdefault(selector, []).append(handler)
        elif isinstance(selector, type) and issubclass(selector, ObsEvent):
            self._by_type.setdefault(selector, []).append(handler)
        else:
            raise TypeError(
                f"selector must be an ObsEvent subclass, a topic string or '*',"
                f" got {selector!r}"
            )
        self.active = True
        return Subscription(self, selector, handler)

    def unsubscribe(self, subscription: Subscription) -> None:
        """Detach a subscription previously returned by :meth:`subscribe`."""
        key, handler = subscription.key, subscription.handler
        if key == "*":
            pool: Optional[list[Handler]] = self._wildcard
        elif isinstance(key, str):
            pool = self._by_topic.get(key)
        else:
            pool = self._by_type.get(key)
        if pool is not None:
            try:
                pool.remove(handler)
            except ValueError:
                pass  # Cancelling twice is a no-op.
        self.active = bool(
            self._wildcard
            or any(self._by_topic.values())
            or any(self._by_type.values())
        )

    def subscriber_count(self) -> int:
        """Total number of attached handlers (introspection/tests)."""
        return (
            len(self._wildcard)
            + sum(len(pool) for pool in self._by_topic.values())
            + sum(len(pool) for pool in self._by_type.values())
        )

    # -- publishing --------------------------------------------------------------

    def wants(self, event_type: Type[ObsEvent]) -> bool:
        """Whether any subscriber would see an event of ``event_type``.

        Publishers on hot paths call this before *constructing* the
        event, so a bus without subscribers costs one attribute read
        and a branch per potential emission.
        """
        if not self.active:
            return False
        return bool(
            self._wildcard
            or self._by_type.get(event_type)
            or self._by_topic.get(event_type.topic)
        )

    def emit(self, event: ObsEvent) -> ObsEvent:
        """Stamp ``event`` with (env.now, seq) and deliver it synchronously.

        Returns the event (stamped if delivered) for caller convenience.
        """
        if not self.active:
            return event
        event.t = self.env.now if self.env is not None else 0.0
        event.seq = next(self._seq)
        return self.deliver(event)

    def deliver(self, event: ObsEvent) -> ObsEvent:
        """Deliver an already-stamped event without touching ``t``/``seq``.

        The journal replay path: recorded events carry the simulated
        clock of the run that produced them, and re-stamping them with
        this bus's (idle) clock would destroy the timeline. Live
        publishers use :meth:`emit`; loaders use this.
        """
        for handler in self._by_type.get(type(event), _EMPTY):
            handler(event)
        for handler in self._by_topic.get(event.topic, _EMPTY):
            handler(event)
        for handler in self._wildcard:
            handler(event)
        return event
