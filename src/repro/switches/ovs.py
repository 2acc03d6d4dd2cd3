"""Open vSwitch behavioural model.

OVS differs from the hardware switches in two ways the paper measures:

* *Traffic-driven kernel caching* (Figure 2a): a rule pushed to OVS lands
  in the userspace table; only when data-plane traffic matches it does an
  exact-match "microflow" get installed in the kernel table (a 1-to-N
  mapping: one wildcard rule can spawn many microflows).  The first
  packet of a flow therefore takes the slow path, subsequent packets the
  fast path.
* *Priority-insensitive installs* (Figure 3c): software tables need no
  entry shifting, so install latency is flat regardless of priority
  order, and is much lower than hardware TCAM installs for moderate rule
  counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.openflow.match import PacketFields
from repro.sim.clock import VirtualClock
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRng
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.entry import FlowEntry
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


class OvsSwitch(SimulatedSwitch):
    """Open vSwitch: unbounded userspace table plus kernel microflow cache.

    Args:
        name: switch identifier.
        kernel_delay: fast-path latency (kernel exact-match hit).
        userspace_delay: slow-path latency (userspace lookup + kernel
            microflow installation).
        control_path_delay: miss-to-controller latency.
        cost_model: flat (priority-independent) install costs.
        kernel_capacity: microflow cache size (entries); oldest evicted.
    """

    def __init__(
        self,
        name: str,
        kernel_delay: LatencyModel,
        userspace_delay: LatencyModel,
        control_path_delay: LatencyModel,
        cost_model: ControlCostModel,
        clock: Optional[VirtualClock] = None,
        rng: Optional[SeededRng] = None,
        seed: int = 0,
        kernel_capacity: int = 200_000,
        hard_limit: int = 200_000,
    ) -> None:
        super().__init__(
            name=name,
            layers=[TableLayer("userspace", capacity=None)],
            policy=FIFO,
            layer_delays=[userspace_delay],
            control_path_delay=control_path_delay,
            cost_model=cost_model,
            clock=clock,
            rng=rng,
            seed=seed,
            hard_limit=hard_limit,
        )
        self.kernel_delay = kernel_delay
        self.kernel_capacity = kernel_capacity
        # Maps exact packet header tuples to the covering rule's entry id.
        self._kernel_cache: Dict[tuple, int] = {}
        self.kernel_hits = 0

    @staticmethod
    def _packet_key(packet: PacketFields) -> tuple:
        return (
            packet.eth_src,
            packet.eth_dst,
            packet.eth_type,
            packet.ip_src,
            packet.ip_dst,
            packet.ip_proto,
            packet.tp_src,
            packet.tp_dst,
        )

    def _forward(self, packet: PacketFields) -> Tuple[float, Optional[FlowEntry], bool]:
        key = self._packet_key(packet)
        entry_id = self._kernel_cache.get(key)
        if entry_id is not None:
            entry = self.tables._entries.get(entry_id)
            if entry is not None:
                self.kernel_hits += 1
                self.tables.touch(entry, self.clock.now_ms)
                return self.kernel_delay.sample(self.rng), entry, False
            # Covering rule was removed; invalidate the stale microflow.
            del self._kernel_cache[key]
        delay, entry, punted = super()._forward(packet)
        if entry is not None and not punted:
            # Slow path: the userspace lookup installs a kernel microflow
            # so the flow's later packets take the fast path (1-to-N).
            if len(self._kernel_cache) >= self.kernel_capacity:
                oldest = next(iter(self._kernel_cache))
                del self._kernel_cache[oldest]
            self._kernel_cache[key] = entry.entry_id
        return delay, entry, punted

    def reset_rules(self) -> None:
        super().reset_rules()
        self._kernel_cache.clear()
        self.kernel_hits = 0

    @property
    def kernel_cache_size(self) -> int:
        return len(self._kernel_cache)
