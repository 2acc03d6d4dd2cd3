"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a frozen description of *what* can go wrong and
*when*; it draws no randomness and reads no clock itself.  All timing in
a plan is expressed on the simulated clock (``repro.sim.clock``), and
every probabilistic decision made from a plan is taken by the
:class:`~repro.faults.injector.FaultInjector` from per-switch
``SeededRng`` child streams derived from ``plan.seed`` — so the same
plan, seed, and workload replay byte-for-byte, and a plan with
``is_noop() == True`` never draws from any RNG at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


def _check_probability(name: str, value: float, allow_one: bool = False) -> None:
    upper_ok = value <= 1.0 if allow_one else value < 1.0
    if not (0.0 <= value and upper_ok):
        bound = "[0, 1]" if allow_one else "[0, 1)"
        raise ValueError(f"{name} must be in {bound}, got {value!r}")


@dataclass(frozen=True)
class StallWindow:
    """A bounded per-switch slowdown window on the simulated clock.

    Every control-plane operation that *starts* inside
    ``[start_ms, start_ms + duration_ms)`` takes an extra ``extra_ms``
    before it is put on the wire.  ``switch=None`` applies to all
    switches.
    """

    start_ms: float
    duration_ms: float
    extra_ms: float
    switch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")

    def active_at(self, now_ms: float, switch: str) -> bool:
        if self.switch is not None and self.switch != switch:
            return False
        return self.start_ms <= now_ms < self.start_ms + self.duration_ms


@dataclass(frozen=True)
class DisconnectWindow:
    """A control-connection outage: ``[start_ms, reconnect_at_ms)``.

    While active, every control operation towards the switch fails with
    :class:`~repro.openflow.errors.SwitchDisconnectedError` carrying the
    reconnect time, so callers can hold retries until the window closes
    instead of spinning.  ``switch=None`` applies to all switches.
    """

    start_ms: float
    reconnect_at_ms: float
    switch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reconnect_at_ms <= self.start_ms:
            raise ValueError("reconnect_at_ms must be after start_ms")

    def active_at(self, now_ms: float, switch: str) -> bool:
        if self.switch is not None and self.switch != switch:
            return False
        return self.start_ms <= now_ms < self.reconnect_at_ms


@dataclass(frozen=True)
class FaultPlan:
    """Everything a :class:`~repro.faults.injector.FaultInjector` may inject.

    Args:
        seed: root seed for the injector's per-switch decision streams
            (independent of every other RNG stream in the run).
        loss_probability: per-flow_mod probability that the message is
            lost in transit; the switch never sees it and the controller
            notices after ``loss_detect_ms``.  Must be ``< 1`` so retried
            operations terminate.
        reject_probability: per-flow_mod probability of a transient
            rejection by the switch agent (the message arrives, costs
            ``reject_detect_ms``, and may be retried).
        probe_loss_probability: per-packet-out probability that the probe
            reply is lost; surfaces as a ``LOSS_TIMEOUT_MS`` RTT exactly
            like the channel's native loss model.
        loss_detect_ms: simulated time the controller spends before
            declaring a control message lost.
        reject_detect_ms: simulated round-trip cost of a rejection.
        stalls: bounded per-switch slowdown windows.
        disconnects: control-connection outage windows.
    """

    seed: int = 0
    loss_probability: float = 0.0
    reject_probability: float = 0.0
    probe_loss_probability: float = 0.0
    loss_detect_ms: float = 5.0
    reject_detect_ms: float = 1.0
    stalls: Tuple[StallWindow, ...] = field(default_factory=tuple)
    disconnects: Tuple[DisconnectWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_probability("loss_probability", self.loss_probability)
        _check_probability("reject_probability", self.reject_probability)
        _check_probability("probe_loss_probability", self.probe_loss_probability)
        if self.loss_detect_ms <= 0 or self.reject_detect_ms <= 0:
            raise ValueError("fault detection delays must be positive")
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "disconnects", tuple(self.disconnects))

    # -- queries ---------------------------------------------------------------
    def is_noop(self) -> bool:
        """True when the plan can never inject anything.

        A no-op plan is the byte-identity guarantee: wrapping a channel
        with it draws no randomness and adds no clock time, so the run is
        bit-identical to the un-wrapped one (see
        :func:`repro.perf.harness.verify_noop`).
        """
        return (
            self.loss_probability == 0.0
            and self.reject_probability == 0.0
            and self.probe_loss_probability == 0.0
            and not self.stalls
            and not self.disconnects
        )

    def uses_randomness(self) -> bool:
        """True when any probabilistic fault is armed (windows are not random)."""
        return (
            self.loss_probability > 0.0
            or self.reject_probability > 0.0
            or self.probe_loss_probability > 0.0
        )

    def stall_extra_ms(self, now_ms: float, switch: str) -> float:
        """Total extra delay for an operation starting now on ``switch``."""
        return sum(w.extra_ms for w in self.stalls if w.active_at(now_ms, switch))

    def disconnected_until(self, now_ms: float, switch: str) -> Optional[float]:
        """Latest reconnect time of any outage covering ``now_ms``, else None."""
        times = [
            w.reconnect_at_ms for w in self.disconnects if w.active_at(now_ms, switch)
        ]
        return max(times) if times else None

    def to_dict(self) -> dict:
        """JSON-friendly description (for trace/run provenance)."""
        return {
            "seed": self.seed,
            "loss_probability": self.loss_probability,
            "reject_probability": self.reject_probability,
            "probe_loss_probability": self.probe_loss_probability,
            "loss_detect_ms": self.loss_detect_ms,
            "reject_detect_ms": self.reject_detect_ms,
            "stalls": [
                {
                    "start_ms": w.start_ms,
                    "duration_ms": w.duration_ms,
                    "extra_ms": w.extra_ms,
                    "switch": w.switch,
                }
                for w in self.stalls
            ],
            "disconnects": [
                {
                    "start_ms": w.start_ms,
                    "reconnect_at_ms": w.reconnect_at_ms,
                    "switch": w.switch,
                }
                for w in self.disconnects
            ],
        }
