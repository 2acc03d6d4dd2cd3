"""The fault injector's channel proxies (repro.faults.injector)."""

import pytest

from repro.faults import (
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    StallWindow,
)
from repro.openflow.actions import OutputAction
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import (
    ControlMessageLostError,
    FlowModRejectedError,
    SwitchDisconnectedError,
)
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand, PacketOut
from repro.obs import NULL_INSTRUMENTS
from repro.perf.harness import NOOP_WORKLOADS
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer


def _channel(name="sw", seed=1):
    switch = SimulatedSwitch(
        name=name,
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.0,
            priority_group_ms=0.0,
            mod_ms=0.5,
            del_ms=0.25,
            jitter_std_frac=0.0,
        ),
        seed=seed,
    )
    return ControlChannel(switch, rtt=ConstantLatency(0.0))


def _flow_mod(i, priority=100):
    return FlowMod(
        command=FlowModCommand.ADD,
        match=Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32)),
        priority=priority,
        actions=(OutputAction(port=1),),
    )


def _packet(i):
    return PacketOut(packet=PacketFields(eth_type=0x0800, ip_dst=i))


# -- wrapping ----------------------------------------------------------------
def test_wrap_channels_preserves_keys_and_counts():
    injector = FaultInjector(FaultPlan())
    channels = {"b": _channel("b"), "a": _channel("a")}
    wrapped = injector.wrap_channels(channels)
    assert sorted(wrapped) == ["a", "b"]
    assert all(w.inner is channels[k] for k, w in wrapped.items())
    assert injector.injection_counts() == {
        "losses": 0,
        "rejects": 0,
        "probe_losses": 0,
        "stalls": 0,
        "disconnects": 0,
    }


def test_proxy_delegates_channel_surface():
    channel = _channel()
    wrapped = FaultInjector(FaultPlan()).wrap_channel(channel)
    assert wrapped.switch is channel.switch
    assert wrapped.clock is channel.clock
    wrapped.send_flow_mod(_flow_mod(1))
    assert wrapped.messages == channel.messages == 1
    assert wrapped.total_control_time_ms() == channel.total_control_time_ms() == 1.0
    assert wrapped.LOSS_TIMEOUT_MS == channel.LOSS_TIMEOUT_MS


# -- probabilistic faults ----------------------------------------------------
def test_loss_injection_costs_detect_time_and_counts():
    plan = FaultPlan(seed=1, loss_probability=0.9, loss_detect_ms=7.0)
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    before = channel.clock.now_ms
    with pytest.raises(ControlMessageLostError):
        wrapped.send_flow_mod(_flow_mod(1))
    assert channel.clock.now_ms == before + 7.0
    assert wrapped.injected_losses == 1
    # The switch never saw the message: neither counter moves.
    assert channel.messages == 0
    assert channel.total_control_time_ms() == 0.0


def test_reject_injection_costs_detect_time_and_counts():
    plan = FaultPlan(seed=1, reject_probability=0.9, reject_detect_ms=3.0)
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    before = channel.clock.now_ms
    with pytest.raises(FlowModRejectedError):
        wrapped.send_flow_mod(_flow_mod(1))
    assert channel.clock.now_ms == before + 3.0
    assert wrapped.injected_rejects == 1
    assert channel.messages == 0
    assert channel.total_control_time_ms() == 0.0


def test_probe_loss_reports_timeout_rtt():
    plan = FaultPlan(seed=1, probe_loss_probability=0.9)
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    wrapped.send_flow_mod(_flow_mod(1, priority=10))
    rtt = wrapped.send_packet_out(_packet(1))
    assert rtt == channel.LOSS_TIMEOUT_MS
    assert wrapped.injected_probe_losses == 1


# -- window faults -----------------------------------------------------------
def test_disconnect_window_fails_fast_with_reconnect_time():
    plan = FaultPlan(disconnects=(DisconnectWindow(0.0, 50.0),))
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    before = channel.clock.now_ms
    with pytest.raises(SwitchDisconnectedError) as info:
        wrapped.send_flow_mod(_flow_mod(1))
    assert channel.clock.now_ms == before  # fail-fast: zero clock cost
    assert info.value.reconnect_at_ms == 50.0
    assert wrapped.disconnect_hits == 1
    # After the window the same message goes through.
    channel.clock.advance_to(50.0)
    wrapped.send_flow_mod(_flow_mod(1))
    assert channel.messages == 1


def test_disconnect_also_times_out_probes():
    plan = FaultPlan(disconnects=(DisconnectWindow(0.0, 50.0),), loss_detect_ms=4.0)
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    before = channel.clock.now_ms
    assert wrapped.send_packet_out(_packet(1)) == channel.LOSS_TIMEOUT_MS
    assert channel.clock.now_ms == before + 4.0


def test_stall_window_adds_extra_time():
    plan = FaultPlan(stalls=(StallWindow(0.0, 100.0, extra_ms=9.0),))
    bare = _channel(seed=3)
    faulty_inner = _channel(seed=3)
    wrapped = FaultInjector(plan).wrap_channel(faulty_inner)
    bare.send_flow_mod(_flow_mod(1))
    wrapped.send_flow_mod(_flow_mod(1))
    assert wrapped.stall_hits == 1
    assert faulty_inner.clock.now_ms == bare.clock.now_ms + 9.0


def test_stall_scoped_to_named_switch():
    plan = FaultPlan(stalls=(StallWindow(0.0, 100.0, extra_ms=9.0, switch="other"),))
    channel = _channel("sw")
    wrapped = FaultInjector(plan).wrap_channel(channel)
    wrapped.send_flow_mod(_flow_mod(1))
    assert wrapped.stall_hits == 0


# -- determinism --------------------------------------------------------------
def _fault_trace(plan, n=40):
    channel = _channel()
    wrapped = FaultInjector(plan).wrap_channel(channel)
    trace = []
    for i in range(n):
        try:
            wrapped.send_flow_mod(_flow_mod(i))
            trace.append("ok")
        except ControlMessageLostError:
            trace.append("loss")
        except FlowModRejectedError:
            trace.append("reject")
    return trace, channel.clock.now_ms


def test_same_seed_same_fault_sequence():
    plan = FaultPlan(seed=9, loss_probability=0.3, reject_probability=0.2)
    assert _fault_trace(plan) == _fault_trace(plan)


def test_different_seed_different_fault_sequence():
    a, _ = _fault_trace(FaultPlan(seed=9, loss_probability=0.3))
    b, _ = _fault_trace(FaultPlan(seed=10, loss_probability=0.3))
    assert a != b


def test_streams_are_per_switch_name_not_wrap_order():
    plan = FaultPlan(seed=9, loss_probability=0.3)

    def outcomes(order):
        injector = FaultInjector(plan)
        wrapped = {name: injector.wrap_channel(_channel(name)) for name in order}
        result = {}
        for name in sorted(wrapped):
            events = []
            for i in range(20):
                try:
                    wrapped[name].send_flow_mod(_flow_mod(i))
                    events.append("ok")
                except ControlMessageLostError:
                    events.append("loss")
            result[name] = events
        return result

    assert outcomes(["a", "b"]) == outcomes(["b", "a"])


def test_verify_noop_injection_passes():
    # An injector with an empty plan changes no op, issue record, fleet
    # model or TangoDB record of any no-op workload, and injects nothing.
    for name, run in NOOP_WORKLOADS.items():
        injector = FaultInjector(FaultPlan())
        assert run(60, NULL_INSTRUMENTS, injector=injector) == run(60, NULL_INSTRUMENTS), name
        assert not any(injector.injection_counts().values()), name
