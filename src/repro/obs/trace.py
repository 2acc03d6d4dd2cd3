"""Deterministic span/event tracing on the simulated clock.

Every number the reproduction computes -- probe RTTs, doubling rounds,
pattern scores, batch issue times -- is a decision input, and this
module makes those decisions visible without touching determinism: all
timestamps come from an injected ``now_ms`` callable (a virtual clock),
never the wall clock, so traces are bit-reproducible run-to-run and the
TNG030 lint stays clean.

:class:`Tracer` records :class:`TraceEvent` objects into a bounded ring
buffer (oldest events drop first; ``dropped`` counts them).  Components
reach it through :class:`repro.obs.Instruments`, which hands out a
shared no-op span when no tracer is attached.

Spans nest: a span opened while another is active records the outer
span as its parent, and exporters reconstruct the tree from
``parent_id``.  Components that own their own virtual clock (the
probing engine, the network executor) pass it per span via ``clock=``,
so one trace can interleave several simulated timelines coherently.

Usage::

    tracer = Tracer(now_ms=lambda: channel.clock.now_ms)
    with tracer.span("probe.apply_pattern", category="probing",
                     pattern=pattern.name) as span:
        ...measure...
        span.set(rtts=len(rtts))
    tracer.event("probe.rtt_timeout", category="probing", index=flow.index)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Default ring-buffer capacity (events kept before the oldest drop).
DEFAULT_CAPACITY = 65536

Clock = Callable[[], float]


@dataclass
class TraceEvent:
    """One completed span or instant event.

    ``end_ms`` is ``None`` for instant events; for spans it is the
    simulated close time.  ``parent_id`` links nested spans.
    """

    event_id: int
    name: str
    category: str = ""
    start_ms: float = 0.0
    end_ms: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        return (self.end_ms - self.start_ms) if self.end_ms is not None else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (stable field set; exporters sort keys)."""
        return {
            "id": self.event_id,
            "name": self.name,
            "cat": self.category,
            "ts_ms": self.start_ms,
            "end_ms": self.end_ms,
            "parent": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        return cls(
            event_id=int(payload["id"]),
            name=str(payload["name"]),
            category=str(payload.get("cat", "")),
            start_ms=float(payload.get("ts_ms", 0.0)),
            end_ms=(
                float(payload["end_ms"]) if payload.get("end_ms") is not None else None
            ),
            parent_id=(
                int(payload["parent"]) if payload.get("parent") is not None else None
            ),
            attrs=dict(payload.get("attrs") or {}),
        )


class Span:
    """An open span; close it (or exit the ``with`` block) to record it."""

    __slots__ = ("_tracer", "_clock", "_event", "_closed")

    def __init__(self, tracer: "Tracer", event: TraceEvent, clock: Optional[Clock]):
        self._tracer = tracer
        self._clock = clock
        self._event = event
        self._closed = False

    @property
    def event_id(self) -> int:
        return self._event.event_id

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) key-value attributes on the open span."""
        self._event.attrs.update(attrs)
        return self

    def close(self) -> TraceEvent:
        if not self._closed:
            self._closed = True
            self._event.end_ms = self._tracer._read(self._clock)
            self._tracer._finish(self)
        return self._event

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Tracer:
    """Bounded, deterministic event recorder.

    Args:
        now_ms: default simulated-clock reader for spans/events that do
            not pass their own ``clock=``; ``None`` timestamps them 0.
        capacity: ring-buffer size; the oldest events drop beyond it.
    """

    def __init__(
        self, now_ms: Optional[Clock] = None, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._now_ms = now_ms
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._stack: List[int] = []
        self._next_id = 1
        self.dropped = 0

    # -- clock ---------------------------------------------------------------
    def _read(self, clock: Optional[Clock]) -> float:
        source = clock if clock is not None else self._now_ms
        return float(source()) if source is not None else 0.0

    # -- recording -------------------------------------------------------------
    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def span(
        self,
        name: str,
        category: str = "",
        clock: Optional[Clock] = None,
        **attrs: Any,
    ) -> Span:
        """Open a nested span; record it when closed."""
        event = TraceEvent(
            event_id=self._next_id,
            name=name,
            category=category,
            start_ms=self._read(clock),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(event.event_id)
        return Span(self, event, clock)

    def _finish(self, span: Span) -> None:
        # Spans normally close LIFO; tolerate out-of-order closes so an
        # exception unwinding several spans cannot corrupt the stack.
        if span._event.event_id in self._stack:
            while self._stack and self._stack[-1] != span._event.event_id:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        self._append(span._event)

    def event(
        self,
        name: str,
        category: str = "",
        clock: Optional[Clock] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Record an instant (zero-duration) event."""
        event = TraceEvent(
            event_id=self._next_id,
            name=name,
            category=category,
            start_ms=self._read(clock),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._append(event)
        return event

    # -- access ---------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Recorded events, in completion order (bounded by capacity)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._stack.clear()
        self.dropped = 0


class _NullSpan:
    """Shared, stateless span handed out when no tracer is attached."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def close(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()
