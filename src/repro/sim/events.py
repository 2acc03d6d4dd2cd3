"""A small discrete-event engine.

Most of the reproduction runs in "sequential virtual time": the probing
engine issues an operation, the switch model computes its latency, and the
shared clock advances.  The event queue is used where genuine concurrency
matters -- the Tango scheduler extensions that dispatch dependent requests
to different switches concurrently (Section 6, "Extensions"), and the
network-wide experiments where several switches install rules in parallel.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.clock import VirtualClock


@dataclass(order=True)
class Event:
    """A scheduled callback at a point in virtual time."""

    time_ms: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """Priority queue of events ordered by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(self, time_ms: float, action: Callable[[], None]) -> Event:
        event = Event(time_ms=time_ms, sequence=next(self._counter), action=action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time_ms if self._heap else None

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0


class Simulator:
    """Runs an event queue against a virtual clock.

    Args:
        clock: the virtual clock to drive (a fresh one by default).
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.queue = EventQueue()
        #: Total events whose actions :meth:`run` has executed.  Pure
        #: bookkeeping (never read by the run loop), exposed so a
        #: profiler can report a deterministic event total without
        #: instrumenting every action.
        self.processed_events: int = 0

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be non-negative, got {delay_ms}")
        return self.queue.push(self.clock.now_ms + delay_ms, action)

    def schedule_at(self, time_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual time ``time_ms``."""
        if time_ms < self.clock.now_ms:
            raise ValueError(
                f"cannot schedule in the past: {time_ms} < {self.clock.now_ms}"
            )
        return self.queue.push(time_ms, action)

    def call_soon(self, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at the current instant, after pending peers.

        Zero-delay events still go through the queue, so same-instant
        callbacks fire in deterministic ``(time, insertion order)``
        sequence -- the tie-break the fleet inference driver relies on
        for reproducible member admission and cache-hit completion.
        """
        return self.queue.push(self.clock.now_ms, action)

    def run(self, until_ms: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until_ms`` is reached.

        Returns the clock time when the run stops.
        """
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until_ms is not None and next_time > until_ms:
                self.clock.advance_to(until_ms)
                break
            event = self.queue.pop()
            assert event is not None
            self.clock.advance_to(event.time_ms)
            self.processed_events += 1
            event.action()
        return self.clock.now_ms
