"""Network-event scenarios that produce switch-request DAGs.

Reproduces the paper's Section 7.2 setups:

* **Link failure (LF)** -- a physical link dies; every flow crossing it
  is rerouted, generating additions on the detour switches and
  modifications at switches whose next hop changes, chained in reverse
  path order for update consistency.
* **Traffic engineering (TE)** -- a traffic-matrix change adds, removes,
  and modifies flows.  Two forms are provided: a distribution-controlled
  random mix (the hardware-testbed TE1/TE2 and Figure 11 scenarios) and
  a max-min-fair B4 allocation diff (the Mininet scenario, Figure 12).

It also hosts the :data:`FAULT_SCENARIOS` catalogue: named, deterministic
:class:`~repro.faults.FaultPlan` presets (lossy control channel, transient
rejects, stalls, a mid-run disconnect, and their combination) that the
``tango-probe faults`` CLI and the faulted bench case run against these
network scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.requests import RequestDag, SwitchRequest
from repro.faults.plan import DisconnectWindow, FaultPlan, StallWindow
from repro.netem.consistency import (
    add_forward_path_dependencies,
    add_reverse_path_dependencies,
)
from repro.netem.flows import NetworkFlow
from repro.netem.network import EmulatedNetwork
from repro.netem.temaxmin import max_min_fair_allocation
from repro.openflow.actions import OutputAction
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.rng import SeededRng


@dataclass
class ScenarioResultDag:
    """A generated request DAG plus summary statistics.

    ``preinstall`` lists (location, request) pairs that must be applied
    *before* the timed scheduling run: the rules that MODIFY/DELETE
    requests operate on.
    """

    dag: RequestDag
    adds: int = 0
    mods: int = 0
    dels: int = 0
    preinstall: List[Tuple[str, SwitchRequest]] = field(default_factory=list)

    def apply_preinstall(self, network: EmulatedNetwork) -> None:
        """Install the preinstall rules directly (untimed setup)."""
        for location, request in self.preinstall:
            network.channels[location].send_flow_mod(request.mod)

    @property
    def total(self) -> int:
        return self.adds + self.mods + self.dels

    def count(self, request: SwitchRequest) -> None:
        if request.command is FlowModCommand.ADD:
            self.adds += 1
        elif request.command is FlowModCommand.MODIFY:
            self.mods += 1
        else:
            self.dels += 1


class LinkFailureScenario:
    """Reroute every flow crossing a failed link.

    Args:
        network: the emulated network (flows must be tracked in it).
        link: the failing link as an (a, b) switch pair.
    """

    def __init__(self, network: EmulatedNetwork, link: Tuple[str, str]) -> None:
        self.network = network
        self.link = tuple(sorted(link))

    def affected_flows(self) -> List[NetworkFlow]:
        return [
            flow
            for flow in self.network.flows.values()
            if self.link in flow.links()
        ]

    def build_dag(self) -> ScenarioResultDag:
        """Create the rerouting request DAG (does not execute it)."""
        degraded = self.network.topology.copy()
        degraded.remove_link(*self.link)
        result = ScenarioResultDag(dag=RequestDag())

        for flow in self.affected_flows():
            new_path = degraded.shortest_path(flow.src, flow.dst)
            old_switches = set(flow.path)
            chain: List[SwitchRequest] = []
            for switch in new_path:
                actions = (
                    OutputAction(port=self.network.port_along_path(new_path, switch)),
                )
                if switch not in old_switches:
                    command = FlowModCommand.ADD
                elif self._next_hop(flow.path, switch) != self._next_hop(
                    new_path, switch
                ):
                    command = FlowModCommand.MODIFY
                else:
                    continue
                request = result.dag.new_request(
                    location=switch,
                    command=command,
                    match=flow.match(),
                    priority=flow.priority,
                    actions=actions,
                )
                result.count(request)
                chain.append(request)
            add_reverse_path_dependencies(result.dag, chain)

            removals: List[SwitchRequest] = []
            for switch in flow.path:
                if switch in set(new_path):
                    continue
                request = result.dag.new_request(
                    location=switch,
                    command=FlowModCommand.DELETE,
                    match=flow.match(),
                    priority=flow.priority,
                    after=chain[:1],  # only after ingress is repointed
                )
                result.count(request)
                removals.append(request)
            add_forward_path_dependencies(result.dag, removals)
            flow.path = new_path
        return result

    @staticmethod
    def _next_hop(path: List[str], switch: str) -> Optional[str]:
        if switch not in path:
            return None
        index = path.index(switch)
        return path[index + 1] if index + 1 < len(path) else None


class TrafficEngineeringScenario:
    """Traffic-matrix-driven rule updates."""

    def __init__(self, network: EmulatedNetwork, seed: int = 0) -> None:
        self.network = network
        self.rng = SeededRng(seed).child("te-scenario")

    # -- distribution-controlled mix (testbed TE1/TE2, Figure 11) ----------------
    def random_mix(
        self,
        n_requests: int,
        mix: Tuple[float, float, float] = (0.5, 0.25, 0.25),
        dag_levels: int = 1,
        priorities: str = "random",
        locations: Optional[Sequence[str]] = None,
    ) -> ScenarioResultDag:
        """A controlled mixture of adds/mods/dels.

        Args:
            n_requests: total request count.
            mix: fractions of (ADD, MODIFY, DELETE) requests.
            dag_levels: dependency depth; level-2+ requests depend on a
                randomly chosen request from the previous level.
            priorities: ``"random"`` (app-specified, unique-ish) or
                ``"same"`` (all equal).
            locations: switches to spread requests over (default: all).
        """
        if abs(sum(mix) - 1.0) > 1e-6:
            raise ValueError("mix fractions must sum to 1")
        if dag_levels < 1:
            raise ValueError("dag_levels must be >= 1")
        switches = list(locations or sorted(self.network.switches))
        result = ScenarioResultDag(dag=RequestDag())

        n_add = int(round(n_requests * mix[0]))
        n_mod = int(round(n_requests * mix[1]))
        n_del = n_requests - n_add - n_mod
        commands = (
            [FlowModCommand.ADD] * n_add
            + [FlowModCommand.MODIFY] * n_mod
            + [FlowModCommand.DELETE] * n_del
        )
        self.rng.shuffle(commands)

        priority_pool = list(range(1, 4 * n_requests))
        levels: List[List[SwitchRequest]] = [[] for _ in range(dag_levels)]
        for index, command in enumerate(commands):
            level = index % dag_levels
            switch = self.rng.choice(switches)
            flow = self.network.new_flow(switch, switch, path=[switch])
            priority = (
                100 if priorities == "same" else self.rng.choice(priority_pool)
            )
            parents: List[SwitchRequest] = []
            if level > 0 and levels[level - 1]:
                parents = [self.rng.choice(levels[level - 1])]
            request = result.dag.new_request(
                location=switch,
                command=command,
                match=flow.match(),
                priority=priority,
                after=parents,
            )
            if command is not FlowModCommand.ADD:
                # MODIFY/DELETE operate on a rule that must already exist.
                result.preinstall.append(
                    (
                        switch,
                        SwitchRequest(
                            -request.request_id - 1,
                            switch,
                            FlowMod(FlowModCommand.ADD, request.match, priority),
                        ),
                    )
                )
            result.count(request)
            levels[level].append(request)
        return result

    # -- B4-style allocation diff (Figure 12) ---------------------------------------
    def from_traffic_matrices(
        self,
        before: Dict[Tuple[str, str], float],
        after: Dict[Tuple[str, str], float],
        flows_per_pair: int = 1,
        preinstall: bool = True,
    ) -> ScenarioResultDag:
        """Requests realising a traffic-matrix change under max-min TE.

        Pairs present only in ``after`` gain flows (path-chained ADDs,
        egress first); pairs only in ``before`` lose them (forward-chained
        DELETEs); pairs whose max-min allocation changes get MODIFYs
        along their path.

        Args:
            preinstall: install the ``before`` flows' rules on the
                switches (untimed setup), so the MODIFY/DELETE requests
                act on real table state.
        """
        result = ScenarioResultDag(dag=RequestDag())

        flows_before: Dict[Tuple[str, str], List[NetworkFlow]] = {}
        for pair, demand in before.items():
            flows_before[pair] = [
                self.network.new_flow(pair[0], pair[1], demand=demand / flows_per_pair)
                for _ in range(flows_per_pair)
            ]
        if preinstall:
            self.network.preinstall_flow_rules(
                [f for group in flows_before.values() for f in group]
            )
        allocation_before = max_min_fair_allocation(
            self.network.topology,
            [f for group in flows_before.values() for f in group],
        )

        flows_after: Dict[Tuple[str, str], List[NetworkFlow]] = {}
        for pair, demand in after.items():
            if pair in flows_before:
                group = flows_before[pair]
                for flow in group:
                    flow.demand = demand / flows_per_pair
                flows_after[pair] = group
            else:
                flows_after[pair] = [
                    self.network.new_flow(
                        pair[0], pair[1], demand=demand / flows_per_pair
                    )
                    for _ in range(flows_per_pair)
                ]
        allocation_after = max_min_fair_allocation(
            self.network.topology,
            [f for group in flows_after.values() for f in group],
        )

        # New pairs: installations, egress first.
        for pair in after:
            if pair in before:
                continue
            for flow in flows_after[pair]:
                chain = [
                    result.dag.new_request(
                        location=switch,
                        command=FlowModCommand.ADD,
                        match=flow.match(),
                        priority=flow.priority,
                        actions=(OutputAction(port=self.network.port_along_path(flow.path, switch)),),
                    )
                    for switch in flow.path
                ]
                for request in chain:
                    result.count(request)
                add_reverse_path_dependencies(result.dag, chain)

        # Removed pairs: drain from ingress.
        for pair in before:
            if pair in after:
                continue
            for flow in flows_before[pair]:
                chain = [
                    result.dag.new_request(
                        location=switch,
                        command=FlowModCommand.DELETE,
                        match=flow.match(),
                        priority=flow.priority,
                    )
                    for switch in flow.path
                ]
                for request in chain:
                    result.count(request)
                add_forward_path_dependencies(result.dag, chain)
                self.network.forget_flow(flow.flow_id)

        # Shared pairs with changed allocations: modify along the path.
        for pair in after:
            if pair not in before:
                continue
            for flow in flows_after[pair]:
                rate_before = allocation_before.get(flow.flow_id, 0.0)
                rate_after = allocation_after.get(flow.flow_id, 0.0)
                if abs(rate_after - rate_before) < 1e-9:
                    continue
                chain = [
                    result.dag.new_request(
                        location=switch,
                        command=FlowModCommand.MODIFY,
                        match=flow.match(),
                        priority=flow.priority,
                        actions=(OutputAction(port=self.network.port_along_path(flow.path, switch)),),
                    )
                    for switch in flow.path
                ]
                for request in chain:
                    result.count(request)
                add_reverse_path_dependencies(result.dag, chain)
        return result


@dataclass(frozen=True)
class FaultScenario:
    """A named, parameter-free fault preset.

    ``plan(seed)`` expands the preset into a concrete, deterministic
    :class:`~repro.faults.FaultPlan`; window fields apply to every
    switch (``switch=None``), so the same scenario works against any
    topology.  Probabilities are per message; window times are on the
    simulated clock, relative to the executor epoch.
    """

    name: str
    description: str
    loss_probability: float = 0.0
    reject_probability: float = 0.0
    probe_loss_probability: float = 0.0
    #: (start_ms, duration_ms, extra_ms) or None.
    stall: Optional[Tuple[float, float, float]] = None
    #: (start_ms, reconnect_at_ms) or None.
    disconnect: Optional[Tuple[float, float]] = None

    def plan(self, seed: int = 0) -> FaultPlan:
        """The concrete fault plan for this scenario under ``seed``."""
        stalls: Tuple[StallWindow, ...] = ()
        if self.stall is not None:
            start, duration, extra = self.stall
            stalls = (StallWindow(start_ms=start, duration_ms=duration, extra_ms=extra),)
        disconnects: Tuple[DisconnectWindow, ...] = ()
        if self.disconnect is not None:
            start, reconnect = self.disconnect
            disconnects = (DisconnectWindow(start_ms=start, reconnect_at_ms=reconnect),)
        return FaultPlan(
            seed=seed,
            loss_probability=self.loss_probability,
            reject_probability=self.reject_probability,
            probe_loss_probability=self.probe_loss_probability,
            stalls=stalls,
            disconnects=disconnects,
        )


#: Named fault presets for the CLI, CI smoke job, and faulted benchmarks.
FAULT_SCENARIOS: Dict[str, FaultScenario] = {
    scenario.name: scenario
    for scenario in (
        FaultScenario(
            name="none",
            description="No faults (bit-identical to running without an injector).",
        ),
        FaultScenario(
            name="lossy",
            description="10% control-message loss, 5% probe-reply loss.",
            loss_probability=0.10,
            probe_loss_probability=0.05,
        ),
        FaultScenario(
            name="reject",
            description="5% transient flow_mod rejections by the switch agent.",
            reject_probability=0.05,
        ),
        FaultScenario(
            name="stall",
            description="Every switch stalls +2 ms per op during [10 ms, 60 ms).",
            stall=(10.0, 50.0, 2.0),
        ),
        FaultScenario(
            name="disconnect",
            description="All control connections drop during [20 ms, 80 ms).",
            disconnect=(20.0, 80.0),
        ),
        FaultScenario(
            name="chaos",
            description=(
                "10% control loss plus one mid-run disconnect [30 ms, 90 ms) "
                "(the acceptance scenario)."
            ),
            loss_probability=0.10,
            disconnect=(30.0, 90.0),
        ),
    )
}
