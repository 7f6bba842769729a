"""A small discrete-event simulation kernel.

The kernel follows the SimPy model: *processes* are Python generators that
``yield`` :class:`Event` objects and are resumed when those events fire.
Only the features the rest of the package needs are implemented, which
keeps the core small enough to reason about and test exhaustively.

The implementation is tuned for the package's dominant workload — millions
of short-lived timeout/resume cycles per experiment grid:

* every kernel object declares ``__slots__`` (no per-instance ``__dict__``);
* callback lists are pooled and reused across events instead of being
  re-allocated for every one;
* delivering a callback for an already-processed event goes through a
  tiny :class:`_Deferred` record rather than a shim ``Event`` plus a
  closure;
* :meth:`Environment.run` has a branch-free inner loop for the common
  run-to-exhaustion case.

Typical usage::

    env = Environment()

    def worker(env):
        yield env.timeout(5.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert env.now == 5.0 and proc.value == "done"
"""

from __future__ import annotations

import heapq
import itertools
import math
from heapq import heappush
from typing import Callable, Generator, Iterable, Optional

from repro.errors import Interrupt, SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "ScheduledCall",
]

#: Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()

#: Maximum number of recycled callback lists an Environment keeps around.
_POOL_LIMIT = 1024


class Event:
    """A one-shot occurrence processes can wait for.

    An event moves through three states: *pending* (just created),
    *triggered* (``succeed``/``fail`` called, scheduled on the event queue)
    and *processed* (callbacks have run). Waiting on an already-processed
    event resumes the waiter immediately on the next scheduler step.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        pool = env._list_pool
        self.callbacks: list[Callable[["Event"], None]] = (
            pool.pop() if pool else []
        )
        self._value: object = _PENDING
        self._ok: Optional[bool] = None
        #: True when a failure was delivered to at least one waiter.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether ``succeed`` or ``fail`` has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already been invoked."""
        return self.callbacks is None  # type: ignore[return-value]

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, 1, next(env._eids), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now, 1, next(env._eids), self))
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: deliver on the next queue step.
            self.env._schedule_deferred(callback, self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        # Recycle the (now-drained) list: callbacks are internal to the
        # kernel, so no outside reference can observe the reuse.
        callbacks.clear()
        pool = self.env._list_pool
        if len(pool) < _POOL_LIMIT:
            pool.append(callbacks)


class _Deferred:
    """Queue record delivering ``fn(arg)`` on its own scheduler step.

    Stands in for the former shim-``Event``-plus-closure pair, so the
    "waiting on an already-processed event" path and deferred hooks (like
    the flow network's end-of-timestep rebalance) cost one small
    allocation instead of three. Class-level ``_ok``/``_defused`` satisfy
    the run loop's failure check without per-instance storage.
    """

    __slots__ = ("_fn", "_arg")

    _ok = True
    _defused = False

    def __init__(self, fn: Callable[[object], None], arg: object):
        self._fn = fn
        self._arg = arg

    def _process(self) -> None:
        self._fn(self._arg)


class ScheduledCall:
    """A cancellable timer: ``fn()`` runs at the scheduled time unless
    :meth:`cancel` was called first.

    This is the cancellation hook for subsystems that schedule plain
    callbacks. Unlike a :class:`Timeout` plus version counter, a
    cancelled call does no work when popped. A cancelled record stays in
    the heap until its time arrives, but it is inert — callers that
    re-aim a single rolling wake-up on every state change should use
    :meth:`Environment.set_wake` instead, which replaces its target in
    place and leaves no records behind.
    """

    __slots__ = ("_fn", "_cancelled")

    _ok = True
    _defused = False

    def __init__(self, fn: Callable[[], None]):
        self._fn = fn
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent."""
        self._cancelled = True

    def _process(self) -> None:
        if not self._cancelled:
            self._fn()


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ plus immediate self-trigger: this is the
        # kernel's hottest allocation (one per simulated wait).
        self.env = env
        pool = env._list_pool
        self.callbacks = pool.pop() if pool else []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, 1, next(env._eids), self))

    def succeed(self, value: object = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Process(Event):
    """Wraps a generator; the process itself is an event firing on exit.

    The wrapped generator yields :class:`Event` instances. When a yielded
    event succeeds, its value is sent into the generator; when it fails,
    the exception is thrown into the generator (and is considered handled
    if the generator catches it).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError("process() requires a generator")
        self._generator = generator
        # Kick the process off on the next scheduler step. The bootstrap
        # event is the initial wait target so that interrupting a process
        # before its first step detaches cleanly (a plain deferred record
        # would still fire and resume the process a second time).
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.callbacks.append(self._resume)
        heappush(env._queue, (env._now, 1, next(env._eids), bootstrap))
        self._target: Optional[Event] = bootstrap

    @property
    def is_alive(self) -> bool:
        """Whether the underlying generator has not yet finished."""
        return self._ok is None

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        # Detach from whatever the process is waiting on so the stale event
        # does not resume it a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True
        wakeup._add_callback(self._resume)
        self.env._schedule(wakeup, priority=0)

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return  # A stale wakeup for an already-finished process.
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.env._schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.env._schedule(self)
            return
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process yielded {next_event!r}, which is not an Event"
            )
        self._target = next_event
        next_event._add_callback(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = len(self._events)
        for event in self._events:
            if not isinstance(event, Event):
                raise SimulationError(f"{event!r} is not an Event")
            event._add_callback(self._check)
        if not self._events:
            self.succeed({})

    def _results(self) -> dict[Event, object]:
        """Constituent results, in construction order.

        Called exactly once, at trigger time — per-constituent ``_check``
        calls stay O(1) no matter how many events the condition spans
        (guarded by a regression test with thousands of constituents).
        """
        return {
            event: event._value
            for event in self._events
            if event._ok is not None
        }

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; fails fast on failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self.succeed(self._results())


class Environment:
    """Execution environment: event queue plus the simulation clock."""

    __slots__ = (
        "_now",
        "_queue",
        "_eids",
        "_list_pool",
        "_wake_time",
        "_wake_eid",
        "_wake_fn",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, object]] = []
        self._eids = itertools.count()
        #: Recycled callback lists, shared by every Event of this env.
        self._list_pool: list[list] = []
        # The external wake slot: a single movable timer that lives
        # outside the event heap (see set_wake). inf = unarmed.
        self._wake_time = math.inf
        self._wake_eid = 0
        self._wake_fn: Optional[Callable[[], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a process and start it."""
        return Process(self, generator)

    def call_later(self, delay: float, fn: Callable[[], None]) -> ScheduledCall:
        """Schedule ``fn()`` to run ``delay`` seconds from now.

        Returns a :class:`ScheduledCall` whose :meth:`ScheduledCall.cancel`
        turns the queued record into a no-op. Cheaper than a
        :class:`Timeout` with a callback when the caller may re-aim the
        timer before it fires.
        """
        if delay < 0:
            raise SimulationError(f"negative call_later delay: {delay}")
        call = ScheduledCall(fn)
        heappush(self._queue, (self._now + delay, 1, next(self._eids), call))
        return call

    def call_at(self, time: float, fn: Callable[[], None]) -> ScheduledCall:
        """Schedule ``fn()`` to run at absolute simulated ``time``.

        Unlike :meth:`call_later`, the target is taken verbatim — no
        ``now + delay`` rounding — so a caller that re-arms a rolling
        timer can hit a previously computed instant bit-for-bit. A time
        in the past runs on the next step without rewinding the clock.
        """
        call = ScheduledCall(fn)
        heappush(
            self._queue,
            (time if time > self._now else self._now, 1, next(self._eids), call),
        )
        return call

    def set_wake(self, time: float, fn: Callable[[], None]) -> None:
        """Aim the environment's single *external wake* at ``time``.

        The wake is a movable timer that lives outside the event heap:
        re-aiming it replaces the previous target in place, so a
        subsystem that re-computes its next deadline on every state
        change (the flow network's completion timer) leaves no stale
        records behind no matter how often it re-aims. Each call
        consumes a fresh event id, so against same-instant heap entries
        the wake orders exactly as a :class:`Timeout` scheduled at the
        moment of the call would — earlier events fire first, later
        ones after. There is one slot per environment; the latest call
        wins. A ``time`` at or before the current instant fires on the
        next step without rewinding the clock.
        """
        self._wake_time = time
        self._wake_eid = next(self._eids)
        self._wake_fn = fn

    def clear_wake(self) -> None:
        """Disarm the external wake (no-op when unarmed)."""
        self._wake_time = math.inf
        self._wake_fn = None

    def _fire_wake(self) -> None:
        if self._wake_time > self._now:
            self._now = self._wake_time
        fn = self._wake_fn
        self._wake_time = math.inf
        self._wake_fn = None
        fn()  # type: ignore[misc]

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing once all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing once any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        heappush(
            self._queue, (self._now + delay, priority, next(self._eids), event)
        )

    def _schedule_deferred(
        self,
        fn: Callable[[object], None],
        arg: object = None,
        priority: int = 1,
    ) -> None:
        """Queue ``fn(arg)`` to run on its own step at the current time.

        This is the light-weight deferred-callback path: one
        :class:`_Deferred` record on the heap instead of a shim event
        plus a closure. Used for callbacks added to already-processed
        events and for end-of-timestep hooks (priority 2 runs after
        every ordinary event at the same timestamp).
        """
        heappush(
            self._queue, (self._now, priority, next(self._eids), _Deferred(fn, arg))
        )

    def run(self, until: Optional[float | Event] = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires, returning its value or raising its failure).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("until lies in the past")

        queue = self._queue
        pop = heapq.heappop

        if stop_event is None and stop_time is None:
            # Fast path: run to exhaustion, no stop checks in the loop.
            while True:
                wake = self._wake_time
                if queue:
                    item = queue[0]
                    time = item[0]
                    # The external wake competes with the heap head under
                    # the same (time, priority, eid) order it would have
                    # as a real priority-1 entry.
                    if wake <= time and (
                        wake < time
                        or item[1] > 1
                        or (item[1] == 1 and self._wake_eid < item[2])
                    ):
                        self._fire_wake()
                        continue
                    pop(queue)
                    self._now = time
                    event = item[3]
                    event._process()  # type: ignore[union-attr]
                    if not event._ok and not event._defused:  # type: ignore[union-attr]
                        raise event._value  # type: ignore[union-attr,misc]
                elif wake < math.inf:
                    self._fire_wake()
                else:
                    return None

        while True:
            wake = self._wake_time
            if queue:
                item = queue[0]
                time = item[0]
                fire_wake = wake <= time and (
                    wake < time
                    or item[1] > 1
                    or (item[1] == 1 and self._wake_eid < item[2])
                )
            elif wake < math.inf:
                fire_wake = True
                time = wake
            else:
                break
            if stop_time is not None and min(time, wake) > stop_time:
                self._now = stop_time
                return None
            if fire_wake:
                self._fire_wake()
            else:
                pop(queue)
                self._now = time
                event = item[3]
                event._process()  # type: ignore[union-attr]
                if not event._ok and not event._defused:  # type: ignore[union-attr]
                    raise event._value  # type: ignore[union-attr,misc]
            if stop_event is not None and stop_event._ok is not None:
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value  # type: ignore[misc]

        if stop_event is not None and stop_event._ok is None:
            raise SimulationError(
                "event queue drained before the awaited event fired"
            )
        if stop_time is not None:
            self._now = stop_time
        return None

    def peek(self) -> float:
        """Time of the next scheduled event (including the external
        wake), or ``inf`` if none."""
        head = self._queue[0][0] if self._queue else math.inf
        wake = self._wake_time
        return wake if wake < head else head

    def step(self) -> None:
        """Process exactly one queued event (mainly for tests)."""
        queue = self._queue
        wake = self._wake_time
        if queue:
            item = queue[0]
            if wake <= item[0] and (
                wake < item[0]
                or item[1] > 1
                or (item[1] == 1 and self._wake_eid < item[2])
            ):
                self._fire_wake()
                return
            heapq.heappop(queue)
            self._now = item[0]
            item[3]._process()  # type: ignore[union-attr]
        elif wake < math.inf:
            self._fire_wake()
        else:
            raise SimulationError("no scheduled events")
