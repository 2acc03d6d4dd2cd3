"""Tests for the deterministic span/event tracer."""

import pytest

from repro.obs import NULL_INSTRUMENTS, Instruments, MetricsRegistry
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    TraceEvent,
    Tracer,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_span_records_start_and_end_from_injected_clock():
    clock = FakeClock(10.0)
    tracer = Tracer(now_ms=clock)
    span = tracer.span("work", category="test")
    clock.now = 25.0
    event = span.close()
    assert event.start_ms == 10.0
    assert event.end_ms == 25.0
    assert event.duration_ms == 15.0
    assert event.is_span


def test_span_context_manager_closes_and_records():
    clock = FakeClock(1.0)
    tracer = Tracer(now_ms=clock)
    with tracer.span("work") as span:
        span.set(key="value")
        clock.now = 2.0
    (event,) = tracer.events
    assert event.attrs == {"key": "value"}
    assert event.end_ms == 2.0


def test_span_closes_even_when_body_raises():
    tracer = Tracer(now_ms=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("work"):
            raise RuntimeError("boom")
    assert len(tracer) == 1


def test_nested_spans_link_parents():
    tracer = Tracer(now_ms=FakeClock())
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    instant = tracer.event("tick")
    inner.close()
    outer.close()
    events = {e.name: e for e in tracer.events}
    assert events["outer"].parent_id is None
    assert events["inner"].parent_id == events["outer"].event_id
    assert instant.parent_id == events["inner"].event_id


def test_per_span_clock_override_interleaves_timelines():
    default = FakeClock(100.0)
    other = FakeClock(5.0)
    tracer = Tracer(now_ms=default)
    with tracer.span("theirs", clock=other):
        other.now = 7.0
    with tracer.span("ours"):
        default.now = 110.0
    theirs, ours = tracer.events
    assert (theirs.start_ms, theirs.end_ms) == (5.0, 7.0)
    assert (ours.start_ms, ours.end_ms) == (100.0, 110.0)


def test_no_clock_at_all_timestamps_zero():
    tracer = Tracer()
    event = tracer.event("tick")
    assert event.start_ms == 0.0


def test_ring_buffer_drops_oldest_and_counts():
    tracer = Tracer(now_ms=FakeClock(), capacity=3)
    for index in range(5):
        tracer.event(f"e{index}")
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [e.name for e in tracer.events] == ["e2", "e3", "e4"]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_out_of_order_close_does_not_corrupt_stack():
    tracer = Tracer(now_ms=FakeClock())
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.close()  # wrong order: outer closed first
    inner.close()
    after = tracer.span("after")
    after.close()
    events = {e.name: e for e in tracer.events}
    assert events["after"].parent_id is None


def test_double_close_records_once():
    tracer = Tracer(now_ms=FakeClock())
    span = tracer.span("once")
    span.close()
    span.close()
    assert len(tracer) == 1


def test_event_ids_are_sequential_and_unique():
    tracer = Tracer(now_ms=FakeClock())
    ids = [tracer.event(f"e{i}").event_id for i in range(4)]
    assert ids == sorted(set(ids))


def test_trace_event_dict_roundtrip():
    original = TraceEvent(
        event_id=7,
        name="work",
        category="test",
        start_ms=1.5,
        end_ms=2.5,
        parent_id=3,
        attrs={"pattern": "DEL MOD ASCEND_ADD", "n": 4},
    )
    assert TraceEvent.from_dict(original.to_dict()) == original
    instant = TraceEvent(event_id=8, name="tick")
    assert TraceEvent.from_dict(instant.to_dict()) == instant


def test_clear_resets_everything():
    tracer = Tracer(now_ms=FakeClock(), capacity=1)
    tracer.event("a")
    tracer.event("b")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0


def test_default_capacity_is_bounded():
    assert Tracer().capacity == DEFAULT_CAPACITY


def test_null_tracer_is_disabled_no_op():
    # No tracer attached: spans are no-ops and events are dropped.
    assert NULL_INSTRUMENTS.enabled is False
    assert NULL_INSTRUMENTS.tracer is None
    span = NULL_INSTRUMENTS.span("anything", category="x", foo=1)
    assert span.set(bar=2) is span
    assert span.close() is None
    with NULL_INSTRUMENTS.span("ctx"):
        pass
    assert NULL_INSTRUMENTS.event("tick") is None


def test_null_tracer_returns_shared_span():
    # No tracer attached: every span is one shared no-op object.
    assert NULL_INSTRUMENTS.span("a") is Instruments(metrics=MetricsRegistry()).span("b")


def test_real_tracer_is_enabled():
    assert Instruments(tracer=Tracer()).enabled is True
