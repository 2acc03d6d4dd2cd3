"""Multi-table OpenFlow pipeline switches.

Section 2 of the paper observes that even on switches advertising
OpenFlow 1.1+ pipelines, "the multiple tables in OpenFlow pipelines are
mostly implemented in switch software. Only entries belonging to a
single table are eligible to be chosen and pushed into TCAM."  The
conclusion lists inferring "multiple tables and their priorities" as
future work; this module provides the substrate and
:mod:`repro.core.pipeline_inference` the probing patterns.

A :class:`PipelineSwitch` exposes N pipeline tables.  Exactly one of
them (typically table 0) may be hardware-backed -- its resident rules
match at TCAM speed -- while the rest are software tables with slow-path
lookup latency.  Packets walk the pipeline from table 0, following
GotoTable instructions; a miss in any visited table punts to the
controller (the common table-miss default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.openflow.actions import ControllerAction, GotoTableAction
from repro.openflow.errors import BadMatchError
from repro.openflow.match import PacketFields
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
from repro.switches.base import ControlCostModel, ForwardingResult, SwitchStats
from repro.tables.policies import CachePolicy, FIFO
from repro.tables.stack import RankedTableStack, TableLayer
from repro.tables.tcam import PriorityShiftModel


@dataclass(frozen=True)
class PipelineTableSpec:
    """Configuration of one pipeline table.

    Args:
        capacity: entry capacity (None = unbounded software table).
        lookup_delay: per-lookup latency when a rule in this table
            matches (fast for the hardware-backed table).
        policy: cache policy (relevant only for capacity-layered tables).
    """

    capacity: Optional[int]
    lookup_delay: LatencyModel
    policy: CachePolicy = FIFO


class PipelineSwitch:
    """An OpenFlow 1.1+ switch with a multi-table pipeline.

    Args:
        name: switch identifier.
        tables: pipeline table specs, table 0 first.
        control_path_delay: punt-to-controller latency.
        cost_model: control-plane operation costs.  The entry-shift term
            applies only to the hardware table.
        hardware_table_id: which table is TCAM-backed (None = all
            software).
    """

    def __init__(
        self,
        name: str,
        tables: Sequence[PipelineTableSpec],
        control_path_delay: LatencyModel,
        cost_model: ControlCostModel,
        hardware_table_id: Optional[int] = 0,
        clock: Optional[VirtualClock] = None,
        rng: Optional[SeededRng] = None,
        seed: int = 0,
    ) -> None:
        if not tables:
            raise ValueError("a pipeline needs at least one table")
        if hardware_table_id is not None and not 0 <= hardware_table_id < len(tables):
            raise ValueError("hardware_table_id out of range")
        self.name = name
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else SeededRng(seed).child(f"pipe:{name}")
        self.specs = list(tables)
        self.hardware_table_id = hardware_table_id
        self.control_path_delay = control_path_delay
        self.cost_model = cost_model
        self.stacks: List[RankedTableStack] = [
            RankedTableStack([TableLayer(f"table{i}", capacity=spec.capacity)], spec.policy)
            for i, spec in enumerate(tables)
        ]
        self.shift_models: List[PriorityShiftModel] = [
            PriorityShiftModel() for _ in tables
        ]
        self.stats = SwitchStats(packets_by_layer=[0] * len(tables))
        self._last_add_priority: Dict[int, Optional[int]] = {
            i: None for i in range(len(tables))
        }

    @property
    def num_tables(self) -> int:
        return len(self.specs)

    @property
    def num_flows(self) -> int:
        return sum(len(stack) for stack in self.stacks)

    # -- control plane ---------------------------------------------------------
    def _jitter(self, latency_ms: float) -> float:
        std = self.cost_model.jitter_std_frac
        if std <= 0 or latency_ms <= 0:
            return latency_ms
        return max(0.0, latency_ms * self.rng.normal(1.0, std))

    def _validate_table(self, table_id: int) -> None:
        if not 0 <= table_id < len(self.specs):
            raise BadMatchError(
                f"switch {self.name!r} has {len(self.specs)} tables, "
                f"got table {table_id}"
            )

    def apply_flow_mod(self, flow_mod: FlowMod) -> None:
        """Apply one flow_mod to its pipeline table.

        Raises:
            BadMatchError: unknown table, or a GotoTable action pointing
                backwards or out of range.
            TableFullError: the target table cannot absorb an ADD.
        """
        self._validate_table(flow_mod.table_id)
        for action in flow_mod.actions:
            if isinstance(action, GotoTableAction):
                if action.table_id <= flow_mod.table_id:
                    raise BadMatchError("GotoTable must point to a later table")
                self._validate_table(action.table_id)

        table_id = flow_mod.table_id
        stack = self.stacks[table_id]
        if flow_mod.command is FlowModCommand.ADD:
            self._apply_add(table_id, flow_mod)
        elif flow_mod.command is FlowModCommand.MODIFY:
            entry = stack.lookup_exact(flow_mod.match)
            if entry is None:
                self._apply_add(table_id, flow_mod)
                return
            entry.actions = flow_mod.actions
            if flow_mod.priority != entry.priority:
                self.shift_models[table_id].record_delete(entry.priority)
                self.shift_models[table_id].record_add(flow_mod.priority)
                stack.update_priority(entry, flow_mod.priority)
            self.stats.mods += 1
            self.clock.advance(self._jitter(self.cost_model.mod_ms))
        elif flow_mod.command is FlowModCommand.DELETE:
            removed = 0
            while True:
                entry = stack.lookup_exact(flow_mod.match)
                if entry is None:
                    break
                stack.remove(entry)
                self.shift_models[table_id].record_delete(entry.priority)
                removed += 1
            self.stats.dels += removed
            self.clock.advance(self._jitter(self.cost_model.del_ms))

    def _apply_add(self, table_id: int, flow_mod: FlowMod) -> None:
        priority = flow_mod.priority
        try:
            self.stacks[table_id].insert(
                flow_mod.match, priority, flow_mod.actions, self.clock.now_ms
            )
        except Exception:
            self.stats.rejected_adds += 1
            self.clock.advance(self._jitter(self.cost_model.add_base_ms))
            raise
        # Only an accepted ADD shifts entries, and only the hardware
        # table charges for them.
        shifts = self.shift_models[table_id].record_add(priority)
        cost = self.cost_model.add_base_ms
        if table_id == self.hardware_table_id:
            cost += self.cost_model.shift_ms * shifts
            last_priority = self._last_add_priority[table_id]
            if last_priority is None or priority != last_priority:
                cost += self.cost_model.priority_group_ms
            self.stats.total_shifts += shifts
        self._last_add_priority[table_id] = priority
        self.stats.adds += 1
        self.clock.advance(self._jitter(cost))

    def drain(self, barrier: BarrierRequest) -> None:
        """Finish pending work (the sequential model has none queued)."""

    # -- data plane ----------------------------------------------------------------
    def forward_packet_detailed(self, packet: PacketFields) -> ForwardingResult:
        """Walk the pipeline from table 0, following GotoTable actions."""
        delay = 0.0
        table_id = 0
        while True:
            stack = self.stacks[table_id]
            entry = stack.match_packet(packet)
            if entry is None:
                # Table miss: punt (the OpenFlow default miss behaviour).
                self.stats.packets_to_controller += 1
                delay += self.control_path_delay.sample(self.rng)
                return ForwardingResult(
                    delay_ms=delay, actions=(), matched=False, punted=True
                )
            delay += self.specs[table_id].lookup_delay.sample(self.rng)
            self.stats.packets_by_layer[table_id] += 1
            stack.touch(entry, self.clock.now_ms)
            goto = next(
                (a for a in entry.actions if isinstance(a, GotoTableAction)), None
            )
            if goto is None:
                punted = any(isinstance(a, ControllerAction) for a in entry.actions)
                if punted:
                    self.stats.packets_to_controller += 1
                    delay += self.control_path_delay.sample(self.rng)
                return ForwardingResult(
                    delay_ms=delay,
                    actions=entry.actions,
                    matched=True,
                    punted=punted,
                )
            table_id = goto.table_id

    def forward_packet(self, packet: PacketFields) -> float:
        return self.forward_packet_detailed(packet).delay_ms

    # -- statistics --------------------------------------------------------------------
    def collect_flow_stats(self, request: FlowStatsRequest) -> FlowStatsReply:
        entries = []
        for table_id, stack in enumerate(self.stacks):
            for entry in stack.entries:
                if request.match is not None and request.match.key() != entry.match.key():
                    continue
                entries.append(
                    FlowStatsEntry(
                        match=entry.match,
                        priority=entry.priority,
                        packet_count=entry.traffic_count,
                        table_name=f"table{table_id}",
                    )
                )
        return FlowStatsReply(entries=tuple(entries))

    def reset_rules(self) -> None:
        for stack in self.stacks:
            stack.clear()
        for model in self.shift_models:
            model.clear()
        for table_id in self._last_add_priority:
            self._last_add_priority[table_id] = None

    def __repr__(self) -> str:
        return (
            f"PipelineSwitch(name={self.name!r}, tables={self.num_tables}, "
            f"flows={self.num_flows})"
        )
