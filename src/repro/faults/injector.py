"""Deterministic fault injection over the OpenFlow control channel.

The :class:`FaultInjector` wraps :class:`~repro.openflow.channel.ControlChannel`
objects with :class:`FaultyControlChannel` proxies that consult a
:class:`~repro.faults.plan.FaultPlan` before delegating.  Every decision
is deterministic:

* probabilistic faults draw from a per-switch ``SeededRng`` child stream
  derived from ``plan.seed`` (never from the channel's own stream, which
  therefore advances exactly as it would without the injector);
* window faults (stalls, disconnects) are pure functions of the
  simulated clock;
* a plan with ``is_noop()`` true draws nothing and adds no clock time,
  so a zero-fault injector is bit-identical to no injector — which
  :func:`repro.perf.harness.verify_noop` checks end-to-end.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.plan import FaultPlan
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import (
    ControlMessageLostError,
    FlowModRejectedError,
    SwitchDisconnectedError,
)
from repro.openflow.messages import (
    BarrierReply,
    FlowMod,
    FlowStatsReply,
    FlowStatsRequest,
    PacketOut,
)
from repro.sim.rng import SeededRng


class FaultyControlChannel:
    """A :class:`ControlChannel` proxy that injects the plan's faults.

    Duck-types the channel interface (``send_flow_mod``,
    ``send_packet_out``, ``send_barrier``, ``request_flow_stats``,
    ``clock``, ``switch``, ``messages``, ...); anything not intercepted
    delegates to the wrapped channel, so every channel send must be
    intercepted here, or it skips the fault gates.  Per-channel
    injection counters are exposed for tests and reports.

    Fault order per control message is fixed (disconnect -> stall ->
    loss -> reject) and each probabilistic stage draws at most one
    uniform variate, only when its probability is non-zero — so the
    decision stream is reproducible and a zero-fault plan consumes no
    randomness at all.
    """

    def __init__(self, inner: ControlChannel, plan: FaultPlan, rng: SeededRng) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = rng
        self.injected_losses = 0
        self.injected_rejects = 0
        self.injected_probe_losses = 0
        self.stall_hits = 0
        self.disconnect_hits = 0

    # -- delegation ------------------------------------------------------------
    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    @property
    def switch(self):
        return self.inner.switch

    @property
    def clock(self):
        return self.inner.clock

    # -- fault gates -----------------------------------------------------------
    def _switch_name(self) -> str:
        return self.inner.switch.name

    def _gate_connection(self) -> None:
        """Raise (fail-fast, no clock cost) while inside an outage window."""
        now = self.inner.clock.now_ms
        until = self.plan.disconnected_until(now, self._switch_name())
        if until is not None:
            self.disconnect_hits += 1
            raise SwitchDisconnectedError(self._switch_name(), until)

    def _apply_stall(self) -> None:
        extra = self.plan.stall_extra_ms(self.inner.clock.now_ms, self._switch_name())
        if extra > 0.0:
            self.stall_hits += 1
            self.inner.clock.advance(extra)

    # -- intercepted channel API -----------------------------------------------
    def send_flow_mod(self, flow_mod: FlowMod) -> None:
        self._gate_connection()
        self._apply_stall()
        if (
            self.plan.loss_probability > 0.0
            and self._rng.uniform() < self.plan.loss_probability
        ):
            self.injected_losses += 1
            self.inner.clock.advance(self.plan.loss_detect_ms)
            raise ControlMessageLostError("flow_mod")
        if (
            self.plan.reject_probability > 0.0
            and self._rng.uniform() < self.plan.reject_probability
        ):
            self.injected_rejects += 1
            self.inner.clock.advance(self.plan.reject_detect_ms)
            raise FlowModRejectedError()
        self.inner.send_flow_mod(flow_mod)

    def send_packet_out(self, packet_out: PacketOut) -> float:
        """Probe packets: outages and injected reply loss surface as timeouts.

        Mirrors the native channel's loss model: the packet still
        traverses the data path (switch counters update), only the reply
        is lost, reported as a ``LOSS_TIMEOUT_MS`` RTT that clustering
        and retry logic already handle.
        """
        now = self.inner.clock.now_ms
        if self.plan.disconnected_until(now, self._switch_name()) is not None:
            self.disconnect_hits += 1
            self.inner.clock.advance(self.plan.loss_detect_ms)
            return self.inner.LOSS_TIMEOUT_MS
        self._apply_stall()
        rtt = self.inner.send_packet_out(packet_out)
        if (
            self.plan.probe_loss_probability > 0.0
            and self._rng.uniform() < self.plan.probe_loss_probability
        ):
            self.injected_probe_losses += 1
            return self.inner.LOSS_TIMEOUT_MS
        return rtt

    def send_barrier(self) -> BarrierReply:
        self._gate_connection()
        self._apply_stall()
        return self.inner.send_barrier()

    def request_flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        self._gate_connection()
        self._apply_stall()
        return self.inner.request_flow_stats(request)

    # -- introspection ---------------------------------------------------------
    def injection_counts(self) -> Dict[str, int]:
        return {
            "losses": self.injected_losses,
            "rejects": self.injected_rejects,
            "probe_losses": self.injected_probe_losses,
            "stalls": self.stall_hits,
            "disconnects": self.disconnect_hits,
        }


class FaultInjector:
    """Wraps control channels so a :class:`FaultPlan` acts on them.

    Decision streams are derived per switch *name* (lazily, via
    ``SeededRng(plan.seed).child("faults:<switch>")``), so wrap order
    does not matter and two runs with the same plan and workload replay
    byte-for-byte.  Wrapping with a no-op plan is free: the proxies
    never draw randomness and never touch the clock.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._streams: Dict[str, SeededRng] = {}
        self.channels: List[FaultyControlChannel] = []

    def rng_for(self, switch_name: str) -> SeededRng:
        """The per-switch decision stream (created on first use)."""
        stream = self._streams.get(switch_name)
        if stream is None:
            stream = SeededRng(self.plan.seed).child(f"faults:{switch_name}")
            self._streams[switch_name] = stream
        return stream

    def wrap_channel(self, channel: ControlChannel) -> FaultyControlChannel:
        wrapped = FaultyControlChannel(
            channel, self.plan, self.rng_for(channel.switch.name)
        )
        self.channels.append(wrapped)
        return wrapped

    def wrap_channels(
        self, channels: Dict[str, ControlChannel]
    ) -> Dict[str, "ControlChannel"]:
        """Wrap a location->channel map (sorted for deterministic order)."""
        return {
            location: self.wrap_channel(channels[location])
            for location in sorted(channels)
        }

    def injection_counts(self) -> Dict[str, int]:
        """Aggregate injection counters over every wrapped channel."""
        totals = {
            "losses": 0,
            "rejects": 0,
            "probe_losses": 0,
            "stalls": 0,
            "disconnects": 0,
        }
        for channel in self.channels:
            for key, value in channel.injection_counts().items():
                totals[key] += value
        return totals
