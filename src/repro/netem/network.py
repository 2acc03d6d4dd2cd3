"""The emulated network: switches bound to topology nodes.

This plays the role of the paper's Mininet setup and hardware testbed:
every topology node gets a simulated switch built from a vendor profile,
all reachable through one :class:`~repro.core.scheduler.NetworkExecutor`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.scheduler import NetworkExecutor
from repro.netem.flows import NetworkFlow
from repro.netem.topology import Topology
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.switches.base import SimulatedSwitch
from repro.switches.profiles import SwitchProfile


class EmulatedNetwork:
    """Simulated switches deployed on a topology.

    Each switch gets deterministic port numbers: port
    :attr:`LOCAL_PORT` delivers locally (the flow's egress), and each
    neighbour occupies one port starting at 2 (sorted by name), so
    installed forwarding rules can be *traced* hop by hop
    (:mod:`repro.netem.tracing`).

    Args:
        topology: the network topology.
        profiles: per-switch vendor profiles; ``default_profile`` fills
            any switch not listed.
        default_profile: profile for unlisted switches.
        seed: base seed; each switch derives its own stream.
    """

    #: Output port meaning "deliver at this switch" (flow egress).
    LOCAL_PORT = 1

    def __init__(
        self,
        topology: Topology,
        default_profile: SwitchProfile,
        profiles: Optional[Dict[str, SwitchProfile]] = None,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.seed = seed
        self.profiles: Dict[str, SwitchProfile] = {}
        self.switches: Dict[str, SimulatedSwitch] = {}
        self.channels: Dict[str, ControlChannel] = {}
        overrides = profiles or {}
        for index, name in enumerate(sorted(topology.switches)):
            profile = overrides.get(name, default_profile)
            switch = profile.build(seed=seed + index)
            switch.name = name
            self.profiles[name] = profile
            self.switches[name] = switch
            self.channels[name] = ControlChannel(switch)
        self.flows: Dict[int, NetworkFlow] = {}
        self._next_flow_id = 0
        self._ports: Dict[str, Dict[str, int]] = {}
        self._port_neighbors: Dict[str, Dict[int, str]] = {}
        for name in topology.switches:
            neighbors = sorted(topology.graph.neighbors(name))
            self._ports[name] = {
                neighbor: 2 + index for index, neighbor in enumerate(neighbors)
            }
            self._port_neighbors[name] = {
                port: neighbor for neighbor, port in self._ports[name].items()
            }

    # -- ports ----------------------------------------------------------------
    def port_to(self, switch: str, neighbor: str) -> int:
        """The output port on ``switch`` that reaches ``neighbor``."""
        try:
            return self._ports[switch][neighbor]
        except KeyError:
            raise KeyError(f"{switch!r} has no link to {neighbor!r}") from None

    def neighbor_on_port(self, switch: str, port: int) -> Optional[str]:
        """The switch behind ``port``, or None (local/unknown port)."""
        return self._port_neighbors.get(switch, {}).get(port)

    def port_along_path(self, path, switch: str) -> int:
        """The output port ``switch`` should use on ``path``."""
        path = list(path)
        index = path.index(switch)
        if index == len(path) - 1:
            return self.LOCAL_PORT
        return self.port_to(switch, path[index + 1])

    # -- flows --------------------------------------------------------------
    def new_flow(
        self, src: str, dst: str, demand: float = 1.0, priority: int = 100,
        path: Optional[List[str]] = None,
    ) -> NetworkFlow:
        """Create (and track) a flow routed on the shortest path."""
        if path is None:
            path = self.topology.shortest_path(src, dst)
        flow = NetworkFlow(
            flow_id=self._next_flow_id,
            src=src,
            dst=dst,
            path=path,
            demand=demand,
            priority=priority,
        )
        self._next_flow_id += 1
        self.flows[flow.flow_id] = flow
        return flow

    def forget_flow(self, flow_id: int) -> None:
        self.flows.pop(flow_id, None)

    def preinstall_flow_rules(
        self, flows: Optional[List[NetworkFlow]] = None
    ) -> int:
        """Install the tracked flows' rules on their paths (untimed setup).

        Returns the number of rules installed.  Scheduler experiments
        measure from the executor's epoch reset, so setup time here does
        not contaminate results.
        """
        from repro.openflow.actions import OutputAction
        from repro.openflow.messages import FlowMod, FlowModCommand

        installed = 0
        for flow in flows if flows is not None else list(self.flows.values()):
            for switch in flow.path:
                self.channels[switch].send_flow_mod(
                    FlowMod(
                        command=FlowModCommand.ADD,
                        match=flow.match(),
                        priority=flow.priority,
                        actions=(
                            OutputAction(port=self.port_along_path(flow.path, switch)),
                        ),
                    )
                )
                installed += 1
        return installed

    def executor(
        self, fault_injector=None, instruments: Instruments = NULL_INSTRUMENTS
    ) -> NetworkExecutor:
        """A network executor over every switch in the topology.

        ``instruments`` is forwarded to
        :class:`~repro.core.scheduler.NetworkExecutor` unchanged; its
        telemetry collector, if any, also starts watching every switch
        (and per-port flow counts) in this network.  With a
        ``fault_injector`` (:class:`repro.faults.FaultInjector`), the
        executor sees fault-wrapped channels while the network's own
        ``channels`` stay bare for untimed setup traffic.
        """
        instruments.watch_network(self)
        return NetworkExecutor(
            self.channels, fault_injector=fault_injector, instruments=instruments
        )

    def reset_rules(self) -> None:
        """Wipe all switch rule state (between scheduler comparisons)."""
        for switch in self.switches.values():
            switch.reset_rules()
