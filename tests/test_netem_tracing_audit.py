"""Tests for packet tracing and the consistency auditor."""

import pytest

from repro.baselines import FifoOrderScheduler
from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler
from repro.netem.audit import (
    AuditingExecutor,
    probes_for_flows,
)
from repro.netem.consistency import add_reverse_path_dependencies
from repro.netem.network import EmulatedNetwork
from repro.netem.tracing import TraceOutcome, trace_packet
from repro.netem.topology import Topology, triangle_topology
from repro.openflow.actions import DropAction, OutputAction
from repro.openflow.match import PacketFields
from repro.openflow.messages import FlowModCommand
from repro.switches.profiles import OVS_PROFILE


def _network():
    return EmulatedNetwork(triangle_topology(), default_profile=OVS_PROFILE, seed=2)


def _line_network():
    topology = Topology("line")
    for name in ("a", "b", "c"):
        topology.add_switch(name)
    topology.add_link("a", "b")
    topology.add_link("b", "c")
    return EmulatedNetwork(topology, default_profile=OVS_PROFILE, seed=2)


# -- port mapping ------------------------------------------------------------------
def test_ports_are_deterministic_and_disjoint():
    network = _network()
    ports = {network.port_to("s1", n) for n in ("s2", "s3")}
    assert len(ports) == 2
    assert all(p >= 2 for p in ports)
    assert network.neighbor_on_port("s1", network.port_to("s1", "s2")) == "s2"


def test_port_to_unknown_neighbor_rejected():
    network = _network()
    with pytest.raises(KeyError):
        network.port_to("s1", "nowhere")


def test_port_along_path_egress_is_local():
    network = _network()
    assert network.port_along_path(["s1", "s2"], "s2") == network.LOCAL_PORT
    assert network.port_along_path(["s1", "s2"], "s1") == network.port_to("s1", "s2")


# -- tracing --------------------------------------------------------------------------
def test_trace_installed_flow_is_delivered():
    network = _line_network()
    flow = network.new_flow("a", "c")
    network.preinstall_flow_rules()
    probe = probes_for_flows(network, [flow])[0]
    trace = trace_packet(network, probe.packet, "a")
    assert trace.outcome is TraceOutcome.DELIVERED
    assert trace.path == ["a", "b", "c"]
    assert trace.delivered_at == "c"
    assert trace.total_delay_ms > 0


def test_trace_unknown_packet_is_punted_at_ingress():
    network = _line_network()
    trace = trace_packet(network, PacketFields(ip_dst=99), "a")
    assert trace.outcome is TraceOutcome.PUNTED
    assert trace.path == ["a"]


def test_trace_detects_midpath_black_hole():
    network = _line_network()
    flow = network.new_flow("a", "c")
    # Install only the ingress rule: the packet is forwarded to b, which
    # punts -- exactly the transient the reverse ordering prevents.
    network.preinstall_flow_rules()
    network.switches["b"].reset_rules()
    probe = probes_for_flows(network, [flow])[0]
    trace = trace_packet(network, probe.packet, "a")
    assert trace.outcome is TraceOutcome.PUNTED
    assert trace.path == ["a", "b"]


def test_trace_detects_drop_rule():
    network = _line_network()
    flow = network.new_flow("a", "c")
    network.preinstall_flow_rules()
    network.channels["b"].send_flow_mod(
        __import__("repro.openflow.messages", fromlist=["FlowMod"]).FlowMod(
            FlowModCommand.ADD,
            flow.match(),
            priority=10_000,
            actions=(DropAction(),),
        )
    )
    trace = trace_packet(network, probes_for_flows(network, [flow])[0].packet, "a")
    assert trace.outcome is TraceOutcome.DROPPED


def test_trace_detects_forwarding_loop():
    network = _line_network()
    flow = network.new_flow("a", "c")
    # a -> b and b -> a: a two-switch loop.
    for src, dst in (("a", "b"), ("b", "a")):
        network.channels[src].send_flow_mod(
            __import__("repro.openflow.messages", fromlist=["FlowMod"]).FlowMod(
                FlowModCommand.ADD,
                flow.match(),
                priority=100,
                actions=(OutputAction(port=network.port_to(src, dst)),),
            )
        )
    trace = trace_packet(network, probes_for_flows(network, [flow])[0].packet, "a")
    assert trace.outcome is TraceOutcome.LOOP


def test_trace_unknown_ingress_rejected():
    with pytest.raises(KeyError):
        trace_packet(_line_network(), PacketFields(), "nope")


# -- auditing ----------------------------------------------------------------------------
def _install_dag(network, flow, reverse=True):
    dag = RequestDag()
    chain = [
        dag.new_request(
            switch,
            FlowModCommand.ADD,
            flow.match(),
            priority=flow.priority,
            actions=(OutputAction(port=network.port_along_path(flow.path, switch)),),
        )
        for switch in flow.path
    ]
    if reverse:
        add_reverse_path_dependencies(dag, chain)
    return dag


def test_reverse_order_install_is_consistent():
    network = _line_network()
    flow = network.new_flow("a", "c")
    dag = _install_dag(network, flow, reverse=True)
    executor = AuditingExecutor(network, probes_for_flows(network, [flow]))
    BasicTangoScheduler(executor).schedule(dag)
    assert executor.report.consistent
    assert executor.report.probes_traced == 3


def test_forward_order_install_creates_transient_black_hole():
    network = _line_network()
    flow = network.new_flow("a", "c")
    dag = _install_dag(network, flow, reverse=False)
    # FIFO order issues ingress-first: after the first request the
    # ingress forwards into a rule-less switch b.
    executor = AuditingExecutor(network, probes_for_flows(network, [flow]))
    FifoOrderScheduler(executor).schedule(dag)
    assert not executor.report.consistent
    first = executor.report.violations[0]
    assert first.outcome in (TraceOutcome.PUNTED, TraceOutcome.LOOP)
    assert list(first.reached)[0] == "a"


def test_flow_pusher_with_network_ports_is_consistent_end_to_end():
    network = _network()
    flow = network.new_flow("s1", "s2", path=["s1", "s3", "s2"])
    dag = _install_dag(network, flow, reverse=True)
    executor = AuditingExecutor(network, probes_for_flows(network, [flow]))
    BasicTangoScheduler(executor).schedule(dag)
    assert executor.report.consistent
    trace = trace_packet(network, probes_for_flows(network, [flow])[0].packet, "s1")
    assert trace.outcome is TraceOutcome.DELIVERED
    assert trace.path == ["s1", "s3", "s2"]


def test_misdelivery_detected():
    network = _line_network()
    flow = network.new_flow("a", "c")
    network.preinstall_flow_rules()
    # Corrupt b's rule to deliver locally instead of forwarding to c.
    network.channels["b"].send_flow_mod(
        __import__("repro.openflow.messages", fromlist=["FlowMod"]).FlowMod(
            FlowModCommand.MODIFY,
            flow.match(),
            priority=flow.priority,
            actions=(OutputAction(port=network.LOCAL_PORT),),
        )
    )
    probe = probes_for_flows(network, [flow])[0]
    executor = AuditingExecutor(network, [probe])
    dag = RequestDag()
    dag.new_request("a", FlowModCommand.MODIFY, flow.match(), priority=flow.priority,
                    actions=(OutputAction(port=network.port_to("a", "b")),))
    BasicTangoScheduler(executor).schedule(dag)
    assert not executor.report.consistent
    assert executor.report.violations[0].outcome is TraceOutcome.DELIVERED
