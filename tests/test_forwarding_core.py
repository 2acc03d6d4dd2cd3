"""Differential tests for the switches' shared forwarding core.

``forward_packet`` (the probe path: delay only) and
``forward_packet_detailed`` (delay plus actions) run the same core, so
twin switches built from one seed must report identical delays, end
with identical stats, and leave their RNG streams at the same point.
"""

import dataclasses

import pytest

from repro.core.inference import SwitchInferenceEngine
from repro.core.probing import probe_match, probe_packet
from repro.openflow.actions import ControllerAction
from repro.openflow.match import IpPrefix, Match, PacketFields
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.switches.ovs import OvsSwitch
from repro.switches.profiles import VENDOR_PROFILES

BASE = 0x0A00_0000
PUNT_INDEX = 90_000
MISS = PacketFields(eth_type=0x0800, ip_dst=0x01)


def _rule_count(profile) -> int:
    """Enough rules to reach a second table layer when there is one."""
    sizes = profile.true_layer_sizes
    if len(sizes) > 1 and sizes[0] is not None:
        return sizes[0] + 4
    return 32


def _scenario(profile):
    """(flow_mods to apply, packets to forward) steps, in order."""
    n = _rule_count(profile)
    cover = Match(eth_type=0x0800, ip_dst=IpPrefix(BASE, 8))
    setup = [FlowMod(FlowModCommand.ADD, cover, priority=1)]
    setup += [
        FlowMod(FlowModCommand.ADD, probe_match(i), priority=100) for i in range(n)
    ]
    setup.append(
        FlowMod(
            FlowModCommand.ADD,
            probe_match(PUNT_INDEX),
            priority=100,
            actions=(ControllerAction(),),
        )
    )
    first, last = probe_packet(0), probe_packet(n - 1)
    return [
        (setup, [first, last, first, last]),  # slow then fast (OVS kernel hit)
        ([], [MISS, probe_packet(PUNT_INDEX), MISS]),  # table miss, punt
        # Delete rule 0: OVS's microflow for packet 0 goes stale, and the
        # packet falls through to the low-priority covering rule.
        ([FlowMod(FlowModCommand.DELETE, probe_match(0))], [first, first, last]),
    ]


@pytest.mark.parametrize("name", sorted(VENDOR_PROFILES))
def test_forward_packet_equals_detailed_delay_on_twin_switches(name):
    profile = VENDOR_PROFILES[name]
    fast, detailed = profile.build(seed=11), profile.build(seed=11)
    results = []
    for flow_mods, packets in _scenario(profile):
        for flow_mod in flow_mods:
            fast.apply_flow_mod(flow_mod)
            detailed.apply_flow_mod(flow_mod)
        for packet in packets:
            result = detailed.forward_packet_detailed(packet)
            assert fast.forward_packet(packet) == result.delay_ms
            results.append(result)
    assert dataclasses.asdict(fast.stats) == dataclasses.asdict(detailed.stats)
    assert fast.rng.uniform() == detailed.rng.uniform()
    miss, punt = results[4], results[5]
    assert (miss.matched, miss.punted, miss.actions) == (False, True, ())
    assert punt.matched and punt.punted
    assert any(isinstance(a, ControllerAction) for a in punt.actions)
    assert all(r.matched and not r.punted for r in results[:4] + results[7:])
    if isinstance(fast, OvsSwitch):
        # Hits on packets 0 and n-1, packet n-1 again after the delete,
        # and packet 0's re-installed microflow (stale entry, then slow path).
        assert fast.kernel_hits == detailed.kernel_hits == 4
        assert fast.kernel_cache_size == detailed.kernel_cache_size == 2
    assert fast.stats.packets_to_controller == 3


def test_engines_of_one_inference_share_probe_objects():
    engine = SwitchInferenceEngine(VENDOR_PROFILES["switch1"], seed=2)
    first, second = engine._fresh_engine(), engine._fresh_engine()
    a, b = first.new_handle(), second.new_handle()
    assert a.index == b.index == 0
    assert a.match is b.match
    assert a.packet is b.packet
    assert a.packet_out is b.packet_out
