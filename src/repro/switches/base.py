"""The simulated switch: control plane and data plane.

Control plane.  Applying a flow_mod advances the shared virtual clock by
a modelled latency:

* ADD pays a base cost, plus a per-shifted-entry cost (TCAM entries must
  stay priority-sorted, see :mod:`repro.tables.tcam`), plus a small cost
  whenever the add opens a new priority group.  This reproduces the
  paper's Figure 3b/3c asymmetries: modify is ~6x faster than add at
  5000 rules, and descending-priority insertion is tens of times slower
  than ascending or same-priority insertion.
* MODIFY and DELETE pay flat costs (no entry shifting).

Data plane.  Forwarding a packet samples the latency model of the table
layer holding the matched rule (fast TCAM tier, slow software tier), or
the control-path model on a miss.  Matching a rule updates its use time
and traffic counter, which feeds the cache policy -- exactly the coupling
that makes naive probing disturb cache state (Section 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.openflow.actions import ControllerAction
from repro.openflow.errors import FlowNotFoundError
from repro.openflow.match import Match, PacketFields
from repro.openflow.messages import (
    BarrierRequest,
    FlowMod,
    FlowModCommand,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
)
from repro.sim.clock import VirtualClock
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRng
from repro.tables.entry import FlowEntry
from repro.tables.policies import CachePolicy
from repro.tables.stack import RankedTableStack, TableLayer
from repro.tables.tcam import PriorityShiftModel


@dataclass(frozen=True)
class ControlCostModel:
    """Latency parameters for control-plane operations (milliseconds).

    Args:
        add_base_ms: fixed cost per ADD.
        shift_ms: cost per TCAM entry shifted by an ADD.
        priority_group_ms: extra cost when an ADD's priority differs from
            the previous ADD's priority (new priority group bookkeeping).
        mod_ms: flat cost per MODIFY.
        del_ms: flat cost per DELETE.
        table_size_ms: extra cost per installed rule, charged on every
            operation.  Models software classifiers whose update cost
            grows with table size (OVS userspace); zero for TCAM-backed
            switches whose update cost is dominated by entry shifting.
        batch_discount: multiplier applied to an operation's base cost
            when it has the same command type as the immediately
            preceding operation.  Models vendors that batch consecutive
            same-type updates into one hardware transaction (the paper's
            "batching effects that switches may have for rule
            installation", Section 5.2).  1.0 disables the effect.
        jitter_std_frac: relative std-dev of multiplicative Gaussian noise.
    """

    add_base_ms: float
    shift_ms: float
    priority_group_ms: float
    mod_ms: float
    del_ms: float
    table_size_ms: float = 0.0
    batch_discount: float = 1.0
    jitter_std_frac: float = 0.02

    def __post_init__(self) -> None:
        for name in (
            "add_base_ms",
            "shift_ms",
            "priority_group_ms",
            "mod_ms",
            "del_ms",
            "table_size_ms",
            "jitter_std_frac",
        ):
            # Written so that NaN fails too: a NaN cost poisons the clock.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0 < self.batch_discount <= 1.0:
            raise ValueError("batch_discount must be in (0, 1]")


@dataclass(frozen=True)
class ForwardingResult:
    """Outcome of forwarding one packet through a switch.

    Args:
        delay_ms: data-path (or control-path) latency experienced.
        actions: the matched rule's actions (empty on a miss).
        matched: whether any installed rule matched.
        punted: the packet went to the controller (miss or explicit).
    """

    delay_ms: float
    actions: tuple
    matched: bool
    punted: bool


@dataclass
class SwitchStats:
    """Operation and forwarding counters."""

    adds: int = 0
    mods: int = 0
    dels: int = 0
    rejected_adds: int = 0
    packets_by_layer: List[int] = field(default_factory=list)
    packets_to_controller: int = 0
    total_shifts: int = 0


class SimulatedSwitch:
    """A diverse-implementation OpenFlow switch.

    Args:
        name: switch identifier.
        layers: table layers, fastest first.
        policy: cache-retention policy for layer placement.
        layer_delays: one data-path latency model per layer.
        control_path_delay: latency model for punt-to-controller.
        cost_model: control-plane operation costs.
        clock: shared virtual clock (created if omitted).
        rng: randomness source (created from ``seed`` if omitted).
        seed: seed used when ``rng`` is omitted.
        hard_limit: safety cap on installed rules.
    """

    def __init__(
        self,
        name: str,
        layers: List[TableLayer],
        policy: CachePolicy,
        layer_delays: List[LatencyModel],
        control_path_delay: LatencyModel,
        cost_model: ControlCostModel,
        clock: Optional[VirtualClock] = None,
        rng: Optional[SeededRng] = None,
        seed: int = 0,
        hard_limit: int = 200_000,
    ) -> None:
        if len(layers) != len(layer_delays):
            raise ValueError("need exactly one delay model per layer")
        self.name = name
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else SeededRng(seed).child(f"switch:{name}")
        self.tables = RankedTableStack(layers, policy, hard_limit=hard_limit)
        self.layer_delays = list(layer_delays)
        self.control_path_delay = control_path_delay
        self.cost_model = cost_model
        self.shift_model = PriorityShiftModel()
        self.stats = SwitchStats(packets_by_layer=[0] * len(layers))
        self._last_add_priority: Optional[int] = None
        self._last_command: Optional[FlowModCommand] = None

    # -- control plane -------------------------------------------------------
    def _advance(self, latency_ms: float) -> None:
        """Advance the clock by ``latency_ms`` times Gaussian jitter."""
        std = self.cost_model.jitter_std_frac
        if not (std <= 0 or latency_ms <= 0):
            latency_ms = max(0.0, latency_ms * self.rng.normal(1.0, std))
        self.clock.advance(latency_ms)

    def apply_flow_mod(self, flow_mod: FlowMod) -> None:
        """Apply one flow_mod, advancing the clock by its modelled cost.

        Raises:
            TableFullError: ADD (or upserting MODIFY) with no room left.
            BadMatchError: flow_mod targets a pipeline table this
                single-table switch does not expose.
        """
        if flow_mod.table_id != 0:
            from repro.openflow.errors import BadMatchError

            raise BadMatchError(
                f"switch {self.name!r} exposes only table 0, "
                f"got table {flow_mod.table_id}"
            )
        if flow_mod.command is FlowModCommand.ADD:
            self._apply_add(flow_mod)
        elif flow_mod.command is FlowModCommand.MODIFY:
            self._apply_modify(flow_mod)
        elif flow_mod.command is FlowModCommand.DELETE:
            self._apply_delete(flow_mod)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown command {flow_mod.command!r}")

    def _table_size_cost_ms(self) -> float:
        return self.cost_model.table_size_ms * len(self.tables)

    def _batched_base(self, command: FlowModCommand, base_ms: float) -> float:
        """Base cost, discounted when extending a same-command streak."""
        discounted = (
            base_ms * self.cost_model.batch_discount
            if self._last_command is command
            else base_ms
        )
        self._last_command = command
        return discounted

    def _apply_add(self, flow_mod: FlowMod) -> None:
        priority = flow_mod.priority
        # Charged at the pre-insert table size, as MODIFY is; DELETE is
        # charged at the size left after its removals.
        cost = (
            self._batched_base(FlowModCommand.ADD, self.cost_model.add_base_ms)
            + self._table_size_cost_ms()
        )
        try:
            self.tables.insert(
                flow_mod.match, priority, flow_mod.actions, self.clock.now_ms
            )
        except Exception:
            self.stats.rejected_adds += 1
            # The switch still spent time discovering the table was full.
            self._advance(self.cost_model.add_base_ms)
            raise
        # Only an accepted ADD shifts TCAM entries.
        shifts = self.shift_model.record_add(priority)
        cost += self.cost_model.shift_ms * shifts
        if self._last_add_priority is None or priority != self._last_add_priority:
            cost += self.cost_model.priority_group_ms
        self.stats.total_shifts += shifts
        self._last_add_priority = priority
        self.stats.adds += 1
        self._advance(cost)

    def _apply_modify(self, flow_mod: FlowMod) -> None:
        entry = self.tables.lookup_exact(flow_mod.match)
        if entry is None:
            # Per OpenFlow semantics, MODIFY of a non-existent flow adds it.
            self._apply_add(flow_mod)
            return
        entry.actions = flow_mod.actions
        if flow_mod.priority != entry.priority:
            self.shift_model.record_delete(entry.priority)
            self.shift_model.record_add(flow_mod.priority)
            self.tables.update_priority(entry, flow_mod.priority)
        self.stats.mods += 1
        self._advance(
            self._batched_base(FlowModCommand.MODIFY, self.cost_model.mod_ms)
            + self._table_size_cost_ms()
        )

    def _apply_delete(self, flow_mod: FlowMod) -> None:
        removed = 0
        while True:
            entry = self.tables.lookup_exact(flow_mod.match)
            if entry is None:
                break
            self.tables.remove(entry)
            self.shift_model.record_delete(entry.priority)
            removed += 1
        if removed:
            self.stats.dels += removed
        # OpenFlow DELETE is idempotent; the switch still does the lookup.
        self._advance(
            self._batched_base(FlowModCommand.DELETE, self.cost_model.del_ms)
            + self._table_size_cost_ms()
        )

    def drain(self, barrier: BarrierRequest) -> None:
        """Finish pending work (the sequential model has none queued)."""

    # -- data plane ------------------------------------------------------------
    def _forward(self, packet: PacketFields) -> Tuple[float, Optional[FlowEntry], bool]:
        """The forwarding core: ``(delay_ms, matched entry or None, punted)``.

        Matching a rule updates its use time and traffic count *after* the
        forwarding tier is decided, mirroring real counter updates.
        """
        entry = self.tables.match_packet(packet)
        if entry is None:
            self.stats.packets_to_controller += 1
            return self.control_path_delay.sample(self.rng), None, True
        punted = any(isinstance(a, ControllerAction) for a in entry.actions)
        if punted:
            delay = self.control_path_delay.sample(self.rng)
            self.stats.packets_to_controller += 1
        else:
            layer = self.tables.layer_of(entry)
            delay = self.layer_delays[layer].sample(self.rng)
            self.stats.packets_by_layer[layer] += 1
        self.tables.touch(entry, self.clock.now_ms)
        return delay, entry, punted

    def forward_packet_detailed(self, packet: PacketFields) -> ForwardingResult:
        """Forward one packet, reporting delay and the applied actions."""
        delay, entry, punted = self._forward(packet)
        if entry is None:
            return ForwardingResult(delay, (), matched=False, punted=True)
        return ForwardingResult(delay, entry.actions, matched=True, punted=punted)

    def forward_packet(self, packet: PacketFields) -> float:
        """Forward one packet; returns the data-path delay in ms."""
        return self._forward(packet)[0]

    def layer_of_match(self, match: Match, priority: Optional[int] = None) -> int:
        """Current layer of the rule with this match (for test assertions)."""
        entry = self.tables.lookup_exact(match, priority)
        if entry is None:
            raise FlowNotFoundError(f"no entry for {match}")
        return self.tables.layer_of(entry)

    # -- statistics ---------------------------------------------------------------
    def collect_flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        entries = []
        for entry in self.tables.entries:
            if request.match is not None and request.match.key() != entry.match.key():
                continue
            entries.append(
                FlowStatsEntry(
                    match=entry.match,
                    priority=entry.priority,
                    packet_count=entry.traffic_count,
                    table_name=self.tables.layers[self.tables.layer_of(entry)].name,
                )
            )
        return FlowStatsReply(entries=tuple(entries))

    @property
    def num_flows(self) -> int:
        return len(self.tables)

    def reset_rules(self) -> None:
        """Remove all rules and reset per-run bookkeeping."""
        self.tables.clear()
        self.shift_model.clear()
        self._last_add_priority = None
        self._last_command = None

    def __repr__(self) -> str:
        return f"SimulatedSwitch(name={self.name!r}, flows={self.num_flows})"
