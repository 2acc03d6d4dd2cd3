"""Tests for the discrete-event engine."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue, Simulator


def test_queue_pops_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(3.0, lambda: order.append("c"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(2.0, lambda: order.append("b"))
    while True:
        event = queue.pop()
        if event is None:
            break
        event.action()
    assert order == ["a", "b", "c"]


def test_queue_fifo_within_same_time():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(1.0, lambda: None)
    assert queue.pop() is first
    assert queue.pop() is second


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    keeper = queue.push(2.0, lambda: None)
    event.cancel()
    assert queue.pop() is keeper


def test_len_excludes_cancelled():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    event.cancel()
    assert len(queue) == 1


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    event.cancel()
    assert queue.peek_time() == 5.0


def test_simulator_runs_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.clock.now_ms))
    sim.schedule(5.0, lambda: fired.append(sim.clock.now_ms))
    end = sim.run()
    assert fired == [2.0, 5.0]
    assert end == 5.0


def test_simulator_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("early"))
    sim.schedule(10.0, lambda: fired.append("late"))
    sim.run(until_ms=5.0)
    assert fired == ["early"]
    assert sim.clock.now_ms == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.clock.now_ms)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator(clock=VirtualClock(start_ms=10.0))
    with pytest.raises(ValueError):
        sim.schedule_at(5.0, lambda: None)
