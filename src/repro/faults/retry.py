"""Retry policies for transient control-plane faults.

Backoff delays are computed deterministically: the exponential schedule
is pure arithmetic and the jitter term is drawn from a caller-supplied
``SeededRng`` stream, so a retried run replays byte-for-byte.  All
delays are spent on the simulated clock by the caller — this module
never touches wall time.

Only :class:`~repro.openflow.errors.TransientFaultError` subclasses are
retryable; real switch answers such as ``TableFullError`` (Algorithm 1's
stopping signal) must propagate immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.openflow.errors import TransientFaultError
from repro.sim.rng import SeededRng

#: The exception family a :class:`RetryPolicy` is allowed to retry.
TRANSIENT_FAULTS = (TransientFaultError,)


class RetryGiveUpError(Exception):
    """Raised when a retried operation failed ``attempts`` times in a row.

    Degraded-mode consumers (e.g. the size prober) catch this to resume
    the round with one probe fewer instead of crashing; the original
    transient fault is preserved as ``last_fault`` (and ``__cause__``).
    """

    def __init__(self, operation: str, attempts: int, last_fault: TransientFaultError) -> None:
        super().__init__(
            f"{operation} failed after {attempts} attempt(s): {last_fault}"
        )
        self.operation = operation
        self.attempts = attempts
        self.last_fault = last_fault


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    Args:
        max_attempts: total attempts including the first (>= 1).
        backoff_base_ms: delay before the first retry.
        backoff_factor: multiplier applied per further retry.
        backoff_max_ms: cap on the exponential term.
        jitter_fraction: uniform jitter amplitude as a fraction of the
            computed delay; drawn from the seeded RNG handed to
            :meth:`backoff_ms` (0 disables jitter and draws nothing).
        timeout_ms: per-operation budget on the simulated clock; once an
            operation has been failing longer than this, remaining
            attempts are forfeited and the caller gives up early.
    """

    max_attempts: int = 4
    backoff_base_ms: float = 1.0
    backoff_factor: float = 2.0
    backoff_max_ms: float = 50.0
    jitter_fraction: float = 0.1
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive when set")

    def backoff_ms(self, attempt: int, rng: Optional[SeededRng] = None) -> float:
        """Delay before retry number ``attempt`` (1 = first retry).

        Deterministic given the RNG stream state; with ``rng=None`` or
        ``jitter_fraction=0`` no randomness is consumed at all.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        delay = min(
            self.backoff_base_ms * self.backoff_factor ** (attempt - 1),
            self.backoff_max_ms,
        )
        if rng is not None and self.jitter_fraction > 0.0 and delay > 0.0:
            delay += delay * self.jitter_fraction * float(rng.uniform())
        return delay

    def exhausted(self, attempts_made: int, elapsed_ms: float) -> bool:
        """True when no further attempt is allowed."""
        if attempts_made >= self.max_attempts:
            return True
        return self.timeout_ms is not None and elapsed_ms >= self.timeout_ms
