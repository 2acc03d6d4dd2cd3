"""The Tango probing engine.

The probing engine is the component that applies Tango patterns to
switches and collects the measurements (Section 4).  It keeps
controller-side handles for every probe flow it installs, so inference
algorithms can later say "measure the RTT of flow 17" and get a data
packet crafted to match exactly that rule.

**Determinism.**  All timing comes from the channel's virtual clock and
all randomness from seeded streams: probe sampling draws from the
engine's ``SeededRng`` and retry backoff jitter from a *separate* child
stream (``rng.child("retry")``), so enabling a :class:`RetryPolicy` on a
fault-free channel changes nothing, and a faulted run replays
byte-for-byte for a fixed (seed, fault plan) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.retry import RetryGiveUpError, RetryPolicy, TRANSIENT_FAULTS
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match, MatchKind, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut
from repro.core.patterns import ProbePattern
from repro.core.scores import TangoScoreDatabase
from repro.sim.rng import SeededRng


@dataclass
class ProbeHandle:
    """Controller-side record of one installed probe flow.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): the
    engine keeps one per probe flow it installs.
    """

    __slots__ = ("index", "match", "packet_out", "priority")

    index: int
    match: Match
    packet_out: PacketOut
    priority: int

    @property
    def packet(self) -> PacketFields:
        """The data packet matching this flow's rule."""
        return self.packet_out.packet

    def flow_mod(self, command: FlowModCommand = FlowModCommand.ADD) -> FlowMod:
        return FlowMod(command=command, match=self.match, priority=self.priority)


def probe_match(index: int, kind: MatchKind = MatchKind.L3, base: int = 0x0A00_0000) -> Match:
    """A unique, non-overlapping match for probe flow ``index``.

    L3 probes match a /32 destination; L2 probes match a destination MAC;
    L2+L3 probes match both (and thus occupy wide TCAM slots).
    """
    address = base + index
    if kind is MatchKind.L3:
        return Match(eth_type=0x0800, ip_dst=IpPrefix(address, 32))
    if kind is MatchKind.L2:
        return Match(eth_dst=address)
    return Match(eth_dst=address, eth_type=0x0800, ip_dst=IpPrefix(address, 32))


def probe_packet(index: int, base: int = 0x0A00_0000) -> PacketFields:
    """The data packet matching :func:`probe_match` for the same index."""
    address = base + index
    return PacketFields(eth_dst=address, eth_type=0x0800, ip_dst=address)


@lru_cache(maxsize=1 << 14)
def _probe_flow(index: int, kind: MatchKind, base: int) -> Tuple[Match, PacketOut]:
    """Probe flow ``index``'s match and packet, built once per process.

    Both are frozen and a pure function of the arguments, and every
    fresh probing engine restarts at index 0.  The bound covers the
    default 8192-rule size probe, while a long-running prober's growing
    indices cannot grow the cache.
    """
    return probe_match(index, kind, base), PacketOut(packet=probe_packet(index, base))


class ProbingEngine:
    """Applies probe patterns to one switch and records measurements.

    Args:
        channel: control channel to the switch under probe.
        scores: shared Tango score database.
        rng: randomness for sampling experiments.
        match_kind: width class used for generated probe rules.
        instruments: where probe spans, events and counters go; spans
            and events are timestamped from this engine's virtual clock.
        retry_policy: when set, flow_mods hit by transient injected
            faults (:mod:`repro.faults`) are retried with deterministic
            exponential backoff on the virtual clock; exhausted retries
            raise :class:`~repro.faults.RetryGiveUpError`.  ``None``
            (the default) keeps the historical fail-fast behaviour.
    """

    def __init__(
        self,
        channel: ControlChannel,
        scores: Optional[TangoScoreDatabase] = None,
        rng: Optional[SeededRng] = None,
        match_kind: MatchKind = MatchKind.L3,
        address_base: int = 0x0A00_0000,
        retry_policy: Optional[RetryPolicy] = None,
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        self.channel = channel
        self.scores = scores if scores is not None else TangoScoreDatabase()
        self.rng = rng if rng is not None else SeededRng(0).child("probing")
        self.retry_policy = retry_policy
        self._retry_rng = self.rng.child("retry") if retry_policy is not None else None
        self.match_kind = match_kind
        self.address_base = address_base
        self.flows: List[ProbeHandle] = []
        self._next_index = 0
        # Plain counters (always on, unlike metrics): inference stages
        # diff these to compute the ``confidence`` of their results.
        self.rtt_measurements = 0
        self.rtt_timeouts = 0
        self.installs_completed = 0
        self.fault_retries = 0
        self.fault_giveups = 0
        self.instruments = instruments
        self.clock = lambda: self.channel.clock.now_ms
        self._timeout_ms = getattr(channel, "LOSS_TIMEOUT_MS", float("inf"))
        # Handles cached once, so the per-packet cost with instruments
        # off is the single ``enabled`` check.
        switch = self.channel.switch.name
        self._m_packets = instruments.counter("probe.packets_sent", switch=switch)
        self._m_flow_mods = instruments.counter("probe.flow_mods_sent", switch=switch)
        self._m_retries = instruments.counter("probe.rtt_retries", switch=switch)
        self._m_timeouts = instruments.counter("probe.rtt_timeouts", switch=switch)
        self._m_installed = instruments.gauge("probe.flows_installed", switch=switch)
        self._m_fault_retries = instruments.counter("probe.fault_retries", switch=switch)
        self._m_fault_giveups = instruments.counter("probe.fault_giveups", switch=switch)

    @property
    def switch_name(self) -> str:
        return self.channel.switch.name

    @property
    def now_ms(self) -> float:
        return self.channel.clock.now_ms

    # -- fault-tolerant sends --------------------------------------------------
    def send_flow_mod(self, flow_mod: FlowMod) -> None:
        """Send one flow_mod, retrying transient faults per the policy.

        Without a :class:`RetryPolicy` this is a plain passthrough.
        With one, transient faults back off exponentially (jitter from
        the dedicated seeded retry stream, waits spent on the virtual
        clock, disconnects held until their reconnect instant) and an
        exhausted budget raises :class:`RetryGiveUpError`.  Permanent
        OpenFlow errors — ``TableFullError`` above all — always
        propagate immediately: Algorithm 1 depends on them.
        """
        policy = self.retry_policy
        if policy is None:
            self.channel.send_flow_mod(flow_mod)
            return
        started = self.now_ms
        attempts = 0
        ins = self.instruments
        while True:
            try:
                self.channel.send_flow_mod(flow_mod)
                return
            except TRANSIENT_FAULTS as fault:
                attempts += 1
                self.fault_retries += 1
                if ins.enabled:
                    self._m_fault_retries.inc()
                if policy.exhausted(attempts, self.now_ms - started):
                    self.fault_giveups += 1
                    if ins.enabled:
                        self._m_fault_giveups.inc()
                        ins.event(
                            "probe.retry_giveup",
                            category="probing",
                            clock=self.clock,
                            switch=self.switch_name,
                            fault=type(fault).__name__,
                            attempts=attempts,
                        )
                    raise RetryGiveUpError("flow_mod", attempts, fault) from fault
                wait_ms = policy.backoff_ms(attempts, self._retry_rng)
                if fault.retry_at_ms is not None:
                    wait_ms = max(wait_ms, fault.retry_at_ms - self.now_ms)
                if ins.enabled:
                    ins.event(
                        "probe.fault_retry",
                        category="probing",
                        clock=self.clock,
                        switch=self.switch_name,
                        fault=type(fault).__name__,
                        attempt=attempts,
                        backoff_ms=wait_ms,
                    )
                if wait_ms > 0:
                    self.channel.clock.advance(wait_ms)

    # -- flow management ------------------------------------------------------
    def new_handle(self, priority: int = 100) -> ProbeHandle:
        index = self._next_index
        self._next_index += 1
        match, packet_out = _probe_flow(index, self.match_kind, self.address_base)
        return ProbeHandle(index, match, packet_out, priority)

    def install_flow(self, handle: ProbeHandle) -> None:
        """Install the probe flow (raises TableFullError when rejected)."""
        self.send_flow_mod(handle.flow_mod(FlowModCommand.ADD))
        self.flows.append(handle)
        self.installs_completed += 1
        if self.instruments.enabled:
            self._m_flow_mods.inc()
            self._m_installed.set(len(self.flows))

    def install_new_flow(self, priority: int = 100) -> ProbeHandle:
        handle = self.new_handle(priority=priority)
        self.install_flow(handle)
        return handle

    def remove_all_flows(self) -> None:
        """Delete every installed probe flow (best effort under faults).

        A DELETE whose retries give up is skipped rather than raised:
        deletion is idempotent, and inference rounds must be able to
        clean up even while the control plane is flaky.
        """
        ins = self.instruments
        for handle in self.flows:
            try:
                self.send_flow_mod(handle.flow_mod(FlowModCommand.DELETE))
            except RetryGiveUpError:
                ins.event(
                    "probe.cleanup_skipped",
                    category="probing",
                    clock=self.clock,
                    flow=handle.index,
                )
            if ins.enabled:
                self._m_flow_mods.inc()
        self.flows.clear()
        if ins.enabled:
            self._m_installed.set(0)

    # -- traffic ---------------------------------------------------------------
    def send_probe_packet(self, handle: ProbeHandle) -> float:
        """Send one packet matching the handle's rule; returns RTT (ms)."""
        if self.instruments.enabled:
            self._m_packets.inc()
        return self.channel.send_packet_out(handle.packet_out)

    def measure_rtt(self, handle: ProbeHandle, retries: int = 3) -> float:
        """The paper's MEASURE_RTT, with retransmission on probe loss.

        A lossy channel reports a timeout RTT for dropped probes; like a
        real measurement harness, the engine retransmits up to
        ``retries`` times before giving up and returning the timeout.
        """
        timeout_ms = self._timeout_ms
        self.rtt_measurements += 1
        rtt = self.send_probe_packet(handle)
        attempts = 0
        while rtt >= timeout_ms and attempts < retries:
            if self.instruments.enabled:
                self._m_retries.inc()
            rtt = self.send_probe_packet(handle)
            attempts += 1
        if rtt >= timeout_ms:
            self.rtt_timeouts += 1
            if self.instruments.enabled:
                self._m_timeouts.inc()
                self.instruments.event(
                    "probe.rtt_timeout",
                    category="probing",
                    clock=self.clock,
                    flow=handle.index,
                    retries=attempts,
                )
        return rtt

    def select_random(self) -> ProbeHandle:
        """SELECT_RANDOM over the installed probe flows."""
        return self.rng.choice(self.flows)

    # -- pattern application ------------------------------------------------------
    def apply_pattern(self, pattern: ProbePattern) -> Dict[str, object]:
        """Apply a declarative probe pattern and record its measurements.

        Returns a dict with the flow_mod completion time and the list of
        per-packet RTTs, also stored in the score database.
        """
        ins = self.instruments
        with ins.span(
            "probe.apply_pattern",
            category="probing",
            clock=self.clock,
            pattern=pattern.name,
            switch=self.switch_name,
        ) as span:
            start = self.now_ms
            for flow_mod in pattern.flow_mods:
                self.send_flow_mod(flow_mod)
            if ins.enabled:
                self._m_flow_mods.inc(len(pattern.flow_mods))
            install_ms = self.now_ms - start
            rtts = []
            for packet in pattern.traffic:
                if ins.enabled:
                    self._m_packets.inc()
                rtts.append(self.channel.send_packet_out(PacketOut(packet=packet)))
            result = {"install_ms": install_ms, "rtts_ms": rtts}
            span.set(
                flow_mods=len(pattern.flow_mods),
                packets=len(rtts),
                install_ms=install_ms,
            )
        self.scores.put(
            self.switch_name,
            "pattern_result",
            result,
            recorded_at_ms=self.now_ms,
            source=f"probing:{pattern.name}",
            pattern=pattern.name,
        )
        return result

    def measure_install_time(self, flow_mods: Sequence[FlowMod]) -> float:
        """Total virtual time (ms) to apply ``flow_mods`` in order."""
        start = self.now_ms
        for flow_mod in flow_mods:
            self.send_flow_mod(flow_mod)
        if self.instruments.enabled:
            self._m_flow_mods.inc(len(flow_mods))
        return self.now_ms - start
