"""Latency models for control-plane operations and data-path forwarding.

The paper's measurements (Section 3) show that each forwarding path --
fast (TCAM/kernel), slow (userspace software table), control (punt to
controller) -- has a characteristic delay with a small amount of jitter.
These models capture a deterministic mean plus bounded noise, so that the
RTT clustering in the inference engine has realistic input.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.sim.rng import SeededRng


class LatencyModel(ABC):
    """A distribution of latencies, in milliseconds."""

    @abstractmethod
    def sample(self, rng: SeededRng) -> float:
        """Draw one latency sample (ms).  Always non-negative."""

    @property
    @abstractmethod
    def mean_ms(self) -> float:
        """The model's mean latency (ms)."""


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """A fixed latency with no jitter."""

    value_ms: float

    def __post_init__(self) -> None:
        # Written so that NaN fails too: a NaN sample poisons the clock.
        if not 0 <= self.value_ms < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {self.value_ms}")

    def sample(self, rng: SeededRng) -> float:
        return self.value_ms

    @property
    def mean_ms(self) -> float:
        return self.value_ms


@dataclass(frozen=True)
class GaussianLatency(LatencyModel):
    """Gaussian latency truncated at a floor (default: 10% of the mean).

    Suitable for path delays whose variation comes from CPU-load jitter,
    e.g. the OVS slow path in Figure 2(a).
    """

    mean: float
    std: float
    floor: float = -1.0  # sentinel: computed as 0.1 * mean

    def __post_init__(self) -> None:
        if not (0 <= self.mean < math.inf and 0 <= self.std < math.inf):
            raise ValueError("mean and std must be finite and non-negative")
        if not math.isfinite(self.floor):
            raise ValueError(f"floor must be finite, got {self.floor}")
        # Resolved once: every forwarded packet samples a path delay.
        object.__setattr__(
            self, "_floor_ms", self.floor if self.floor >= 0 else 0.1 * self.mean
        )

    def sample(self, rng: SeededRng) -> float:
        return max(self._floor_ms, rng.normal(self.mean, self.std))

    @property
    def mean_ms(self) -> float:
        return self.mean


@dataclass(frozen=True)
class ShiftedExponentialLatency(LatencyModel):
    """Minimum latency plus an exponential tail.

    Models control-path delays, which have a hard lower bound (propagation
    plus processing) and occasional long-tail stalls.
    """

    minimum: float
    tail_scale: float

    def __post_init__(self) -> None:
        if not (0 <= self.minimum < math.inf and 0 <= self.tail_scale < math.inf):
            raise ValueError("minimum and tail_scale must be finite and non-negative")

    def sample(self, rng: SeededRng) -> float:
        return self.minimum + rng.exponential(self.tail_scale)

    @property
    def mean_ms(self) -> float:
        return self.minimum + self.tail_scale
