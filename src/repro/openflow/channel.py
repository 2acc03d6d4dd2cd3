"""The controller-switch control channel.

The channel adds a (modelled) propagation delay on top of the switch's own
control-plane processing time, and advances the shared virtual clock.  The
probing engine measures operation latencies through this channel, exactly
as Tango measures through a real OpenFlow connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowMod,
    FlowModCommand,
    FlowStatsReply,
    FlowStatsRequest,
    PacketOut,
)
from repro.sim.clock import VirtualClock
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.switches.base import SimulatedSwitch

#: ChannelRecord kind of each flow_mod command.
_FLOW_MOD_KINDS = {command: f"flow_mod:{command.value}" for command in FlowModCommand}


@dataclass
class ChannelRecord:
    """Timing record of one control-channel exchange.

    Slotted: the channel keeps one per message.  ``result`` is set only
    on barrier and flow-stats records.
    """

    __slots__ = ("kind", "sent_at_ms", "completed_at_ms", "result")

    kind: str
    sent_at_ms: float
    completed_at_ms: float

    @property
    def latency_ms(self) -> float:
        return self.completed_at_ms - self.sent_at_ms


class ControlChannel:
    """A latency-modelled, in-process controller-to-switch channel.

    Args:
        switch: the simulated switch behind this channel.
        clock: shared virtual clock (defaults to the switch's clock).
        rtt: one-way channel latency model applied in each direction.
        rng: randomness source for channel jitter.
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
        self.history: List[ChannelRecord] = []
        self._xid = 0
        self.probes_lost = 0

    def _round_trip(self, kind: str, process) -> ChannelRecord:
        sent = self.clock.now_ms
        self.clock.advance(self._one_way.sample(self._rng))
        result = process()
        self.clock.advance(self._one_way.sample(self._rng))
        record = ChannelRecord(kind=kind, sent_at_ms=sent, completed_at_ms=self.clock.now_ms)
        self.history.append(record)
        record.result = result  # type: ignore[attr-defined]
        return record

    # -- public API ----------------------------------------------------------
    def send_flow_mod(self, flow_mod: FlowMod) -> ChannelRecord:
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
        record = ChannelRecord(
            kind=_FLOW_MOD_KINDS[flow_mod.command],
            sent_at_ms=sent,
            completed_at_ms=clock.now_ms,
        )
        self.history.append(record)
        return record

    def send_barrier(self) -> BarrierReply:
        """Barrier round trip; switch drains any queued work first."""
        self._xid += 1
        xid = self._xid

        def process() -> BarrierReply:
            self.switch.drain(BarrierRequest(xid=xid))
            return BarrierReply(xid=xid, completed_at_ms=self.clock.now_ms)

        record = self._round_trip("barrier", process)
        return record.result  # type: ignore[attr-defined]

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
        record = self._round_trip(
            "flow_stats", lambda: self.switch.collect_flow_stats(request)
        )
        return record.result  # type: ignore[attr-defined]

    # -- introspection --------------------------------------------------------
    def total_control_time_ms(self) -> float:
        """Sum of latencies of all flow_mod exchanges so far."""
        return sum(r.latency_ms for r in self.history if r.kind.startswith("flow_mod"))

    def reset_history(self) -> None:
        self.history.clear()
