"""The controller-switch control channel.

The channel adds a (modelled) propagation delay on top of the switch's own
control-plane processing time, and advances the shared virtual clock.  The
probing engine measures operation latencies through this channel, exactly
as Tango measures through a real OpenFlow connection.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowStatsReply,
    FlowStatsRequest,
    PacketOut,
)
from repro.sim.clock import VirtualClock
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.switches.base import SimulatedSwitch


class ControlChannel:
    """A latency-modelled, in-process controller-to-switch channel.

    Args:
        switch: the simulated switch behind this channel.
        clock: shared virtual clock (defaults to the switch's clock).
        rtt: one-way channel latency model applied in each direction.
        rng: randomness source for channel jitter.

    ``messages`` counts completed flow_mod, barrier and flow-stats
    exchanges; :meth:`total_control_time_ms` sums completed flow_mods'
    round trips.  No per-message record outlives its message.
    """

    #: RTT reported for a probe packet whose reply never arrived.
    LOSS_TIMEOUT_MS = 100.0

    def __init__(
        self,
        switch: "SimulatedSwitch",
        clock: Optional[VirtualClock] = None,
        rtt: Optional[LatencyModel] = None,
        rng: Optional[SeededRng] = None,
        probe_loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= probe_loss_probability < 1.0:
            raise ValueError("probe_loss_probability must be in [0, 1)")
        self.switch = switch
        self.clock = clock if clock is not None else switch.clock
        self._one_way = rtt if rtt is not None else ConstantLatency(0.05)
        self._rng = rng if rng is not None else SeededRng(0).child("channel")
        self.probe_loss_probability = probe_loss_probability
        self.messages = 0
        self._control_ms = 0.0
        self._xid = 0
        self.probes_lost = 0

    def _round_trip(self, process):
        self.clock.advance(self._one_way.sample(self._rng))
        result = process()
        self.clock.advance(self._one_way.sample(self._rng))
        self.messages += 1
        return result

    # -- public API ----------------------------------------------------------
    def send_flow_mod(self, flow_mod: FlowMod) -> None:
        """Send one flow_mod; clock advances by channel + switch latency.

        Raises whatever OpenFlow error the switch raises (e.g. table full),
        after accounting for the channel time already spent.
        """
        clock = self.clock
        sent = clock.now_ms
        clock.advance(self._one_way.sample(self._rng))
        try:
            self.switch.apply_flow_mod(flow_mod)
        finally:
            clock.advance(self._one_way.sample(self._rng))
        self.messages += 1
        self._control_ms += clock.now_ms - sent

    def send_barrier(self) -> BarrierReply:
        """Barrier round trip; switch drains any queued work first."""
        self._xid += 1
        xid = self._xid

        def process() -> BarrierReply:
            self.switch.drain(BarrierRequest(xid=xid))
            return BarrierReply(xid=xid, completed_at_ms=self.clock.now_ms)

        return self._round_trip(process)

    def send_packet_out(self, packet_out: PacketOut) -> float:
        """Inject a probe packet and return its measured RTT in ms.

        The RTT covers channel down, data-path forwarding, and the probe
        reflection back to the controller -- this is the quantity clustered
        by the size-inference algorithm.

        With a non-zero ``probe_loss_probability``, a lost reply shows up
        as a :attr:`LOSS_TIMEOUT_MS` RTT -- a far outlier the clustering
        stage discards, as a real prober's timeout handling would.
        """
        clock = self.clock
        start = clock.now_ms
        clock.advance(self._one_way.sample(self._rng))
        clock.advance(self.switch.forward_packet(packet_out.packet))
        clock.advance(self._one_way.sample(self._rng))
        if (
            self.probe_loss_probability > 0
            and self._rng.uniform() < self.probe_loss_probability
        ):
            self.probes_lost += 1
            return self.LOSS_TIMEOUT_MS
        return clock.now_ms - start

    def request_flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        return self._round_trip(lambda: self.switch.collect_flow_stats(request))

    # -- introspection --------------------------------------------------------
    def total_control_time_ms(self) -> float:
        """Sum of the round trips of all completed flow_mods so far."""
        return self._control_ms
