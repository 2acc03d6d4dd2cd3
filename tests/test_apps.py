"""Tests for the controller applications layer."""

import hashlib

import pytest

from repro.apps import AclApplication, RouteRequest, RoutingApplication, StaticFlowPusher
from repro.apps.acl import PriorityMode
from repro.core.placement import FlowPlacer, FlowRequirements
from repro.core.priorities import check_priorities
from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler
from repro.netem.flows import NetworkFlow
from repro.netem.network import EmulatedNetwork
from repro.netem.topology import Topology, triangle_topology
from repro.openflow.actions import DropAction, OutputAction
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import OVS_PROFILE
from repro.workloads.classbench import ClassbenchLikeGenerator, classbench_preset
from repro.workloads.dependencies import build_dependency_graph


def _flow(fid, path, priority=100):
    return NetworkFlow(flow_id=fid, src=path[0], dst=path[-1], path=path, priority=priority)


# -- StaticFlowPusher --------------------------------------------------------------
def test_push_flow_orders_egress_first():
    pusher = StaticFlowPusher()
    flow = _flow(1, ["a", "b", "c"])
    chain = pusher.push_flow(flow)
    assert [r.location for r in chain] == ["a", "b", "c"]
    ready = pusher.dag.independent_requests()
    assert [r.location for r in ready] == ["c"]


def test_remove_flow_drains_ingress_first():
    pusher = StaticFlowPusher()
    flow = _flow(2, ["a", "b", "c"])
    pusher.remove_flow(flow)
    ready = pusher.dag.independent_requests()
    assert [r.location for r in ready] == ["a"]
    assert all(r.command is FlowModCommand.DELETE for r in pusher.dag.requests)


def test_push_flow_egress_gets_port_one():
    pusher = StaticFlowPusher()
    chain = pusher.push_flow(_flow(3, ["a", "b"]))
    egress_actions = chain[-1].actions
    assert egress_actions == (OutputAction(port=1),)


def test_reroute_adds_detour_modifies_ingress_deletes_abandoned():
    pusher = StaticFlowPusher()
    flow = _flow(4, ["a", "b", "c"])
    requests = pusher.reroute_flow(flow, ["a", "d", "c"])
    by_command = {}
    for request in requests:
        by_command.setdefault(request.command, []).append(request.location)
    assert by_command[FlowModCommand.ADD] == ["d"]
    assert by_command[FlowModCommand.MODIFY] == ["a"]
    assert by_command[FlowModCommand.DELETE] == ["b"]
    assert flow.path == ["a", "d", "c"]


def test_reroute_rejects_changed_endpoints():
    pusher = StaticFlowPusher()
    flow = _flow(5, ["a", "b"])
    with pytest.raises(ValueError):
        pusher.reroute_flow(flow, ["a", "c"])


def test_push_flow_with_deadline():
    pusher = StaticFlowPusher()
    chain = pusher.push_flow(_flow(6, ["a"]), install_by_ms=25.0)
    assert chain[0].install_by_ms == 25.0


# -- AclApplication -----------------------------------------------------------------
def _nested_rules():
    return [
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A010000, 16)),
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000, 8)),
        Match(eth_type=0x0800, ip_dst=IpPrefix(0x0B000000, 8)),
    ]


def test_acl_priorities_satisfy_dependencies():
    app = AclApplication("sw")
    rules = _nested_rules()
    dag, requests = app.compile(rules)
    dependencies = build_dependency_graph(rules)
    priorities = {i: requests[i].priority for i in requests}
    assert check_priorities(dependencies, priorities) == []
    # Rule 0 shadows rule 1: strictly higher priority and installed first.
    assert requests[0].priority > requests[1].priority
    ready_ids = {r.request_id for r in dag.independent_requests()}
    assert requests[0].request_id in ready_ids
    assert requests[1].request_id not in ready_ids


def test_acl_topological_mode_minimises_distinct_priorities():
    app = AclApplication("sw", priority_mode=PriorityMode.TOPOLOGICAL)
    _, requests = app.compile(_nested_rules())
    assert len({r.priority for r in requests.values()}) == 2  # depth 2


def test_acl_unique_mode_one_priority_per_rule():
    app = AclApplication("sw", priority_mode=PriorityMode.UNIQUE)
    _, requests = app.compile(_nested_rules())
    assert len({r.priority for r in requests.values()}) == 3


def test_acl_default_action_is_drop():
    _, requests = AclApplication("sw").compile(_nested_rules())
    assert all(r.actions == (DropAction(),) for r in requests.values())


def test_acl_custom_actions_validated():
    app = AclApplication("sw")
    with pytest.raises(ValueError):
        app.compile(_nested_rules(), actions=[(DropAction(),)])


def test_acl_compiles_and_schedules_classbench():
    ruleset = ClassbenchLikeGenerator(n_rules=80, depth=12, seed=3).generate()
    app = AclApplication("sw")
    dag, _ = app.compile(ruleset.rules)
    network = EmulatedNetwork(_single_node_topology("sw"), default_profile=OVS_PROFILE)
    result = BasicTangoScheduler(network.executor()).schedule(dag)
    assert result.total_requests == 80
    assert network.switches["sw"].num_flows == 80


def test_acl_compile_classbench1_golden():
    """Priorities and install-DAG edges of ClassBench 1, pinned from the
    all-pairs overlap scan (order included)."""
    dag, requests = AclApplication("sw").compile(classbench_preset(1).rules)
    priorities = [requests[i].priority for i in sorted(requests)]
    edges = dag.edge_ids()
    assert len(edges) == 3294
    digest = hashlib.sha256(repr((priorities, edges)).encode()).hexdigest()
    assert digest == "ebdf46e22f2e398577be5e51a46fdab244d791d755450b30dbffca1156af9171"


def _single_node_topology(name):
    topology = Topology("one")
    topology.add_switch(name)
    return topology


# -- RoutingApplication ---------------------------------------------------------------
def test_routing_without_placer_uses_shortest_path():
    network = EmulatedNetwork(triangle_topology(), default_profile=OVS_PROFILE)
    app = RoutingApplication(network)
    request = RouteRequest("s1", "s2", FlowRequirements(expected_packets=10))
    assert app.choose_path(request) == ["s1", "s2"]


def test_routing_k_paths_validated():
    network = EmulatedNetwork(triangle_topology(), default_profile=OVS_PROFILE)
    with pytest.raises(ValueError):
        RoutingApplication(network, k_paths=0)


def test_routing_emits_consistent_install_dag():
    network = EmulatedNetwork(triangle_topology(), default_profile=OVS_PROFILE)
    app = RoutingApplication(network)
    dag = app.route(
        [
            RouteRequest("s1", "s2", FlowRequirements(10)),
            RouteRequest("s2", "s3", FlowRequirements(10)),
        ]
    )
    assert len(dag) == 4  # two 2-hop paths
    result = BasicTangoScheduler(network.executor()).schedule(dag)
    assert result.total_requests == 4


def test_routing_with_placer_avoids_expensive_switch():
    """A detour through a cheap switch beats a direct hop through an
    expensive one when the flow is setup-critical."""
    from repro.core.inference import InferredSwitchModel
    from repro.core.latency_curves import LatencyCurve, PriorityPattern
    from repro.openflow.messages import FlowModCommand as FMC

    def model(name, install_ms):
        m = InferredSwitchModel(name=name)
        m.latency_curves = {
            (FMC.ADD, PriorityPattern.ASCENDING): LatencyCurve(
                op=FMC.ADD,
                pattern=PriorityPattern.ASCENDING,
                linear_ms=install_ms,
                quadratic_ms=0.0,
            )
        }
        return m

    topology = Topology("square")
    for name in ("in", "hw", "sw", "out"):
        topology.add_switch(name)
    topology.add_link("in", "hw")
    topology.add_link("hw", "out")
    topology.add_link("in", "sw")
    topology.add_link("sw", "out")
    network = EmulatedNetwork(topology, default_profile=OVS_PROFILE)

    placer = FlowPlacer(
        [model("in", 0.1), model("out", 0.1), model("hw", 50.0), model("sw", 0.1)]
    )
    app = RoutingApplication(network, placer=placer, k_paths=3)
    request = RouteRequest(
        "in", "out", FlowRequirements(expected_packets=0, setup_weight=1.0)
    )
    assert app.choose_path(request) == ["in", "sw", "out"]
