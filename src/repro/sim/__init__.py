"""Discrete-event simulation substrate used by the switch simulator.

The Tango paper measures real hardware; this reproduction replaces the
testbed with a deterministic, seeded simulation.  Everything the inference
and scheduling algorithms observe -- control-plane operation latencies and
data-plane round-trip times -- is produced by models in this package.
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue, Simulator
from repro.sim.latency import (
    ConstantLatency,
    GaussianLatency,
    LatencyModel,
    ShiftedExponentialLatency,
)
from repro.sim.rng import SeededRng, derive_seed

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "Simulator",
    "LatencyModel",
    "ConstantLatency",
    "GaussianLatency",
    "ShiftedExponentialLatency",
    "SeededRng",
    "derive_seed",
]
