"""Fault gates see every probe message.

:class:`FaultyControlChannel` forwards unknown attributes to the wrapped
channel, so a channel send method it does not define itself would skip
the outage gate, the stall windows and the probe-loss draws without
failing anything.  These tests pin the policy probe under injected
probe loss and stalls (its traffic passes send many packets whose RTTs
nobody reads) and require the proxy to define every channel send.
"""

import inspect

import pytest

from repro.core.inference import SwitchInferenceEngine
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import FaultyControlChannel
from repro.faults.plan import StallWindow
from repro.openflow.channel import ControlChannel
from repro.switches.profiles import VENDOR_PROFILES, make_cache_test_profile
from repro.tables.policies import LFU, TRAFFIC_THEN_PRIORITY


def _run(case: str):
    if case.startswith("switch1"):
        profile, cache_size = VENDOR_PROFILES["switch1"], 96
        stalls = (StallWindow(200.0, 400.0, 0.75),) if case.endswith("stalled") else ()
    else:
        policy = {"LFU": LFU, "TRAFFIC+PRIORITY": TRAFFIC_THEN_PRIORITY}[case]
        profile = make_cache_test_profile(
            policy, layer_sizes=(48, None), layer_means_ms=(0.5, 2.5)
        )
        cache_size, stalls = 48, (StallWindow(30.0, 60.0, 0.5),)
    injector = FaultInjector(
        FaultPlan(seed=3, probe_loss_probability=0.05, stalls=stalls)
    )
    engine = SwitchInferenceEngine(profile, seed=5, fault_injector=injector)
    result = engine.infer_policy(cache_size)
    return {
        "terms": [(a.value, d.value) for a, d in result.terms],
        "correlations": result.correlations,
        "virtual_cost_ms": engine.virtual_cost_ms().hex(),
        "injections": injector.injection_counts(),
        "probe_ops": engine.probe_ops(),
    }


_NO_CORRELATION = [{"insertion": 0.0, "usage_time": 0.0, "traffic": 0.0, "priority": 0.0}]

PINNED = {
    # Every one of the 192 flows fits Switch #1's TCAM: nothing correlates.
    "switch1": {
        "terms": [],
        "correlations": _NO_CORRELATION,
        "virtual_cost_ms": "0x1.a5b0edad28ac3p+10",
        "injections": {
            "losses": 0, "rejects": 0, "probe_losses": 59, "stalls": 0, "disconnects": 0,
        },
        "probe_ops": 384,
    },
    "switch1-stalled": {
        "terms": [],
        "correlations": _NO_CORRELATION,
        "virtual_cost_ms": "0x1.d730edad28a5fp+10",
        "injections": {
            "losses": 0, "rejects": 0, "probe_losses": 59, "stalls": 264, "disconnects": 0,
        },
        "probe_ops": 384,
    },
    # Traffic-ranked caches: the unread traffic packets decide the answer.
    "LFU": {
        "terms": [("traffic", 1), ("insertion", 1)],
        "correlations": [
            {"insertion": 0.0, "usage_time": 0.0, "traffic": 1.0, "priority": 0.0},
            {
                "insertion:+": 1.0,
                "insertion:-": -0.05986843400892496,
                "usage_time:+": 0.427008410146899,
                "usage_time:-": -0.2795084971874734,
                "priority:+": 0.5328701692569688,
                "priority:-": 0.10425720702853734,
            },
        ],
        "virtual_cost_ms": "0x1.caf0f6edc2c99p+11",
        "injections": {
            "losses": 0, "rejects": 0, "probe_losses": 95, "stalls": 49, "disconnects": 0,
        },
        "probe_ops": 1344,
    },
    "TRAFFIC+PRIORITY": {
        "terms": [("traffic", 1), ("priority", 1), ("insertion", 1)],
        "correlations": [
            {"insertion": 0.0, "usage_time": 0.0, "traffic": 1.0, "priority": 0.0},
            {
                "insertion:+": 0.5625686771261945,
                "insertion:-": -0.20851441405707463,
                "usage_time:+": 0.4103913408340614,
                "usage_time:-": -0.3913118960624628,
                "priority:+": 1.0,
                "priority:-": 0.08606629658238704,
            },
            {
                "insertion:+": 0.9793792286287203,
                "insertion:-": -0.040064154010750204,
                "usage_time:+": 0.44721359549995765,
                "usage_time:-": -0.07537783614444082,
            },
        ],
        "virtual_cost_ms": "0x1.652d0dd27368dp+12",
        "injections": {
            "losses": 0, "rejects": 0, "probe_losses": 125, "stalls": 49, "disconnects": 0,
        },
        "probe_ops": 2112,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_faulted_policy_probe_is_pinned(case):
    assert _run(case) == PINNED[case]


def test_fault_proxy_defines_every_channel_send():
    """A send the proxy inherits through ``__getattr__`` skips every gate."""
    sends = [
        name
        for name, member in inspect.getmembers(ControlChannel, inspect.isfunction)
        if name.startswith(("send_", "request_"))
    ]
    assert "send_packet_out" in sends
    missing = [name for name in sends if name not in vars(FaultyControlChannel)]
    assert missing == []
