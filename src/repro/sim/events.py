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
from typing import Callable, Dict, List, Optional

from repro.sim.clock import VirtualClock


@dataclass(order=True)
class Event:
    """A scheduled callback at a point in virtual time.

    ``parent_time_ms``/``parent_sequence`` are causal provenance: the
    identity of the event whose action scheduled this one, filled in
    only when the owning :class:`Simulator` runs with a live
    :class:`ProvenanceRecorder` (``None`` otherwise -- including for
    events scheduled outside any event, i.e. from straight-line setup
    code).  Both fields are ``compare=False``, so recording provenance
    can never perturb the queue's ``(time, sequence)`` ordering.
    """

    time_ms: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    parent_time_ms: Optional[float] = field(default=None, compare=False)
    parent_sequence: Optional[int] = field(default=None, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class ProvenanceRecorder:
    """Records which event's action scheduled which other event.

    The recorder keeps a ``sequence -> parent sequence`` map (plus each
    event's virtual time), which is exactly the happens-before skeleton
    :mod:`repro.analysis.racecheck` needs: two events at the *same*
    virtual time are causally ordered only if one is a scheduling
    ancestor of the other; otherwise their relative order is the queue's
    arbitrary sequence tie-break.

    Recording is off by default: plain simulators use
    :data:`NULL_PROVENANCE`, whose hooks do nothing, so un-sanitized
    runs stay byte-identical (see
    :func:`repro.perf.harness.verify_noop`).
    """

    enabled = True

    def __init__(self) -> None:
        #: event sequence -> parent event sequence (None = root context).
        self.parents: Dict[int, Optional[int]] = {}
        #: event sequence -> the event's scheduled virtual time.
        self.times: Dict[int, float] = {}

    def record_scheduled(self, event: Event, parent: Optional[Event]) -> None:
        """Note that ``parent`` (or root code, if None) scheduled ``event``."""
        if parent is not None:
            event.parent_time_ms = parent.time_ms
            event.parent_sequence = parent.sequence
        self.parents[event.sequence] = (
            parent.sequence if parent is not None else None
        )
        self.times[event.sequence] = event.time_ms

    def is_ancestor(self, ancestor: int, sequence: int) -> bool:
        """True if event ``ancestor`` (transitively) scheduled ``sequence``."""
        current = self.parents.get(sequence)
        while current is not None:
            if current == ancestor:
                return True
            current = self.parents.get(current)
        return False

    def ordered(self, a: int, b: int) -> bool:
        """True if events ``a`` and ``b`` are causally ordered.

        Same event, or one is a scheduling ancestor of the other.  Two
        same-time events that are *not* ordered depend on the queue's
        sequence tie-break for their relative order -- the hazard
        :mod:`repro.analysis.racecheck` reports as TNG040.
        """
        return a == b or self.is_ancestor(a, b) or self.is_ancestor(b, a)


class _NullProvenanceRecorder(ProvenanceRecorder):
    """Disabled recorder: the default, records nothing."""

    enabled = False

    def record_scheduled(self, event: Event, parent: Optional[Event]) -> None:
        return None


#: Process-wide disabled recorder; plain simulators default to it.
NULL_PROVENANCE = _NullProvenanceRecorder()


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
        provenance: optional :class:`ProvenanceRecorder`; when live,
            every ``schedule``/``schedule_at``/``call_soon`` records
            which event's action did the scheduling.  Defaults to the
            disabled :data:`NULL_PROVENANCE`, which records nothing and
            leaves behaviour byte-identical.
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        provenance: Optional[ProvenanceRecorder] = None,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.queue = EventQueue()
        self.provenance = provenance if provenance is not None else NULL_PROVENANCE
        #: The event whose action is currently executing (None between
        #: events and outside :meth:`run`) -- the scheduling parent for
        #: provenance, and the access context for sanitizer proxies.
        self.current_event: Optional[Event] = None
        #: Total events whose actions :meth:`run` has executed.  Pure
        #: bookkeeping (never read by the run loop), exposed so a
        #: profiler can report a deterministic event total without
        #: instrumenting every action.
        self.processed_events: int = 0

    def _push(self, time_ms: float, action: Callable[[], None]) -> Event:
        event = self.queue.push(time_ms, action)
        if self.provenance.enabled:
            self.provenance.record_scheduled(event, self.current_event)
        return event

    def schedule(self, delay_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be non-negative, got {delay_ms}")
        return self._push(self.clock.now_ms + delay_ms, action)

    def schedule_at(self, time_ms: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual time ``time_ms``."""
        if time_ms < self.clock.now_ms:
            raise ValueError(
                f"cannot schedule in the past: {time_ms} < {self.clock.now_ms}"
            )
        return self._push(time_ms, action)

    def call_soon(self, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at the current instant, after pending peers.

        Zero-delay events still go through the queue, so same-instant
        callbacks fire in deterministic ``(time, insertion order)``
        sequence -- the tie-break the fleet inference driver relies on
        for reproducible member admission and cache-hit completion.
        """
        return self._push(self.clock.now_ms, action)

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
            self.current_event = event
            self.processed_events += 1
            try:
                event.action()
            finally:
                self.current_event = None
        return self.clock.now_ms
