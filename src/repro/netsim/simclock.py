"""A minimal discrete-event clock.

Everything in the simulation — packet deliveries, TCP retransmission
timers, the GFW's 90-second blacklist expiry, INTANG cache TTLs — runs off
one :class:`SimClock`.  Time is a float in seconds and only advances when
:meth:`run` processes events, so experiments that span "90 seconds" of
blacklist time execute in microseconds of wall clock.

The queue holds ``(time, seq, event)`` entries where ``event`` is any
slotted object exposing a ``cancelled`` attribute and a ``fire()``
method.  ``seq`` is a per-clock monotonic counter, so same-instant events
execute in scheduling order (deterministic tie-breaking — several evasion
strategies depend on the *order* in which a garbage packet and the real
data reach the GFW) and the ``event`` object itself is never compared.

Two scheduling paths share the queue:

- :meth:`schedule` wraps a callback in an :class:`EventHandle` (which is
  itself the cancellation token timers hold on to);
- :meth:`post` enqueues a caller-owned event object directly — the
  packet-traversal hot path re-posts one mutable transit event per packet
  instead of allocating a closure per hop.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")


class Event:
    """Interface for heap entries: ``cancelled`` plus ``fire()``.

    Subclassing is optional — :meth:`SimClock.post` duck-types — but the
    class documents the contract and gives timers a shared ``cancel()``.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def fire(self) -> None:  # pragma: no cover - interface only
        raise NotImplementedError


class EventHandle(Event):
    """A scheduled callback; returned by :meth:`SimClock.schedule` as the
    cancellation handle (TCP RTO timers keep one per in-flight segment)."""

    __slots__ = ("time", "callback", "args")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple) -> None:
        self.cancelled = False
        self.time = time
        self.callback = callback
        self.args = args

    def fire(self) -> None:
        self.callback(*self.args)


class SimClock:
    """Binary-heap event scheduler with deterministic tie-breaking.

    A fleet wave (:class:`~repro.netsim.batch.BatchSim`) points
    ``_queue`` at a heap shared by many clocks and stride ``_seq`` into a
    per-trial range; every scheduling path below only ever does
    ``_seq += 1`` and pushes 3-tuples, so it is oblivious to whether the
    queue is private or shared.

    ``_run_until`` is the horizon of the currently active :meth:`run`
    (``inf`` when idle).  The packet-traversal hot path reads it to decide
    whether a leg may be processed inline instead of via the heap: an
    arrival past the horizon must stay queued so that run-loop semantics
    (events beyond ``until`` never fire) are preserved exactly.  The run
    loop reads it live, so an event may lower it to ``now`` to end the
    run early: only events due at that same instant still fire.

    ``_tail`` is the packet run :meth:`Network.launch` queued last; a
    later launch may add packets to it while ``_seq`` shows nothing was
    scheduled since (see ``repro.netsim.network._Transit``).  Whatever
    empties the queue wholesale clears it.
    """

    __slots__ = ("_now", "_seq", "_queue", "_run_until", "_tail")

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: List[Tuple[float, int, Event]] = []
        self._run_until = _INF
        self._tail: Any = None

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        handle = EventHandle(self._now + delay, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, (handle.time, self._seq, handle))
        return handle

    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute sim time ``when``."""
        return self.schedule(max(0.0, when - self._now), callback, *args)

    def post(self, delay: float, event: Any) -> None:
        """Enqueue a pre-built event (``cancelled`` attr + ``fire()``).

        The zero-allocation path: no handle is created, so the caller owns
        cancellation (a never-cancelled event can expose ``cancelled`` as
        a class attribute).  ``delay`` must be non-negative; the hot paths
        that use this compute it from hop distances, which are.
        """
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Process events until the queue drains or the horizon is reached.

        The horizon starts at ``until`` and may be lowered by an event
        (see the class docstring); a bounded run leaves ``now`` at the
        final horizon.

        Returns the number of events executed.  ``max_events`` guards
        against runaway retransmission loops in buggy experiment setups.
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        self._run_until = _INF if until is None else until
        try:
            while queue and executed < max_events:
                time = queue[0][0]
                if time > self._run_until:
                    break
                event = pop(queue)[2]
                if time > self._now:
                    self._now = time
                if event.cancelled:
                    continue
                event.fire()
                executed += 1
        finally:
            horizon = self._run_until
            self._run_until = _INF
        if until is not None and self._now < horizon:
            self._now = horizon
        return executed

    def run_for(self, duration: float) -> int:
        """Process events for ``duration`` sim-seconds from now."""
        return self.run(until=self._now + duration)

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def reset(self) -> None:
        """Drop all queued events and rewind to time zero.

        In-place, so every object holding this clock (TCP stacks, GFW
        devices, the network) sees the cleared queue.
        """
        self._queue.clear()
        self._now = 0.0
        self._seq = 0
        self._run_until = _INF
        self._tail = None
