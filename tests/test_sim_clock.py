"""Tests for the virtual clock."""

import pytest

from repro.sim.clock import VirtualClock


def test_starts_at_zero_by_default():
    assert VirtualClock().now_ms == 0.0


def test_starts_at_given_time():
    assert VirtualClock(start_ms=5.0).now_ms == 5.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        VirtualClock(start_ms=-1.0)


def test_advance_moves_forward():
    clock = VirtualClock()
    assert clock.advance(2.5) == 2.5
    assert clock.now_ms == 2.5


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(1.0)
    clock.advance(2.0)
    assert clock.now_ms == pytest.approx(3.0)


def test_advance_backwards_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_advance_zero_is_noop():
    clock = VirtualClock(start_ms=4.0)
    clock.advance(0.0)
    assert clock.now_ms == 4.0


def test_advance_to_future():
    clock = VirtualClock()
    clock.advance_to(10.0)
    assert clock.now_ms == 10.0


def test_advance_to_past_is_noop():
    clock = VirtualClock(start_ms=10.0)
    clock.advance_to(3.0)
    assert clock.now_ms == 10.0


def test_repr_contains_time():
    assert "3.000" in repr(VirtualClock(start_ms=3.0))


@pytest.mark.parametrize("start", [float("nan"), float("inf")])
def test_non_finite_start_rejected(start):
    with pytest.raises(ValueError):
        VirtualClock(start_ms=start)


def test_advance_by_nan_rejected_and_clock_kept():
    clock = VirtualClock(start_ms=2.0)
    with pytest.raises(ValueError):
        clock.advance(float("nan"))
    assert clock.now_ms == 2.0
