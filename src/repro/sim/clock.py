"""Virtual time source.

All latencies in the simulator are expressed in milliseconds of virtual
time.  A :class:`VirtualClock` is shared by the control channel, the switch
control plane, and the data path, so that probing measurements reflect a
consistent timeline.
"""

from __future__ import annotations

import math


class VirtualClock:
    """A monotonically advancing virtual clock measured in milliseconds."""

    def __init__(self, start_ms: float = 0.0) -> None:
        if not 0 <= start_ms < math.inf:
            raise ValueError(f"start_ms must be finite and non-negative, got {start_ms}")
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time.

        Raises:
            ValueError: if ``delta_ms`` is negative or NaN.
        """
        if not delta_ms >= 0:
            raise ValueError(f"clock advance must be non-negative, got {delta_ms}")
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, t_ms: float) -> float:
        """Advance the clock to absolute time ``t_ms`` (no-op if in the past)."""
        if t_ms > self._now_ms:
            self._now_ms = t_ms
        return self._now_ms

    def __repr__(self) -> str:
        return f"VirtualClock(now_ms={self._now_ms:.3f})"
