"""Static flow pusher: path-given flow installation requests.

The simplest application style the paper mentions (citing the Ryu static
flow pusher): the application provides the complete path for each flow;
the app translates it into per-switch ADD requests chained egress-first
for update consistency, and the mirror-image removal requests chained
ingress-first.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence

from repro.core.requests import RequestDag, SwitchRequest
from repro.netem.consistency import (
    add_forward_path_dependencies,
    add_reverse_path_dependencies,
)
from repro.netem.flows import NetworkFlow
from repro.openflow.actions import OutputAction
from repro.openflow.messages import FlowModCommand


class StaticFlowPusher:
    """Translates path-pinned flows into switch-request DAGs.

    Args:
        dag: the request DAG to append to (a new one if omitted).
        port_resolver: maps (path, switch) to the output port the rule
            should use; pass ``network.port_along_path`` for traceable
            forwarding on an :class:`~repro.netem.network.EmulatedNetwork`.
            The default synthesises stable but untraceable port numbers.
    """

    def __init__(
        self,
        dag: Optional[RequestDag] = None,
        port_resolver=None,
    ) -> None:
        self.dag = dag if dag is not None else RequestDag()
        self._resolver = port_resolver

    def _port_towards(self, path: Sequence[str], switch: str) -> int:
        if self._resolver is not None:
            return self._resolver(path, switch)
        index = list(path).index(switch)
        if index == len(path) - 1:
            return 1
        # crc32, not hash(): str hashing is salted per process.
        return 2 + zlib.crc32(path[index + 1].encode()) % 30

    def push_flow(
        self,
        flow: NetworkFlow,
        install_by_ms: Optional[float] = None,
    ) -> List[SwitchRequest]:
        """Emit ADD requests along the flow's path, egress installed first."""
        chain = [
            self.dag.new_request(
                location=switch,
                command=FlowModCommand.ADD,
                match=flow.match(),
                priority=flow.priority,
                actions=(OutputAction(port=self._port_towards(flow.path, switch)),),
                install_by_ms=install_by_ms,
            )
            for switch in flow.path
        ]
        add_reverse_path_dependencies(self.dag, chain)
        return chain

    def remove_flow(self, flow: NetworkFlow) -> List[SwitchRequest]:
        """Emit DELETE requests along the path, ingress drained first."""
        chain = [
            self.dag.new_request(
                location=switch,
                command=FlowModCommand.DELETE,
                match=flow.match(),
                priority=flow.priority,
            )
            for switch in flow.path
        ]
        add_forward_path_dependencies(self.dag, chain)
        return chain

    def reroute_flow(
        self, flow: NetworkFlow, new_path: Sequence[str]
    ) -> List[SwitchRequest]:
        """Move a flow to ``new_path``: install the detour, repoint the
        ingress, then drain rules on abandoned switches.

        The flow object is updated to the new path.
        """
        old_path = list(flow.path)
        new_path = list(new_path)
        if new_path[0] != flow.src or new_path[-1] != flow.dst:
            raise ValueError("new path must keep the flow's endpoints")

        requests: List[SwitchRequest] = []
        chain: List[SwitchRequest] = []
        old_switches = set(old_path)
        for switch in new_path:
            if switch in old_switches and self._next_hop(
                old_path, switch
            ) == self._next_hop(new_path, switch):
                continue
            command = (
                FlowModCommand.MODIFY if switch in old_switches else FlowModCommand.ADD
            )
            chain.append(
                self.dag.new_request(
                    location=switch,
                    command=command,
                    match=flow.match(),
                    priority=flow.priority,
                    actions=(OutputAction(port=self._port_towards(new_path, switch)),),
                )
            )
        add_reverse_path_dependencies(self.dag, chain)
        requests.extend(chain)

        removals = [
            self.dag.new_request(
                location=switch,
                command=FlowModCommand.DELETE,
                match=flow.match(),
                priority=flow.priority,
                after=chain[:1],
            )
            for switch in old_path
            if switch not in set(new_path)
        ]
        add_forward_path_dependencies(self.dag, removals)
        requests.extend(removals)

        flow.path = new_path
        return requests

    @staticmethod
    def _next_hop(path: Sequence[str], switch: str) -> Optional[str]:
        path = list(path)
        if switch not in path:
            return None
        index = path.index(switch)
        return path[index + 1] if index + 1 < len(path) else None
