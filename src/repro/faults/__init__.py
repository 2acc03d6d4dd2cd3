"""Deterministic fault injection for the Tango reproduction.

Everything here is seeded and clock-driven: a :class:`FaultPlan`
describes control-message loss, transient flow_mod rejections, bounded
per-switch stalls, and disconnect/reconnect windows; a
:class:`FaultInjector` applies the plan to OpenFlow control channels
using per-switch ``SeededRng`` child streams and the simulated clock,
so faulted runs replay byte-for-byte and zero-fault plans are
bit-identical to running without the injector
(:func:`repro.perf.harness.verify_noop`).  :class:`RetryPolicy` gives probing a
deterministic exponential-backoff retry loop over exactly the
:class:`~repro.openflow.errors.TransientFaultError` family.
"""

from repro.faults.injector import FaultInjector, FaultyControlChannel
from repro.faults.plan import DisconnectWindow, FaultPlan, StallWindow
from repro.faults.retry import (
    RetryGiveUpError,
    RetryPolicy,
    TRANSIENT_FAULTS,
)

__all__ = [
    "FaultPlan",
    "StallWindow",
    "DisconnectWindow",
    "FaultInjector",
    "FaultyControlChannel",
    "RetryPolicy",
    "RetryGiveUpError",
    "TRANSIENT_FAULTS",
]
