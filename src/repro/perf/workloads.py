"""Deterministic workload builders for the op-count bench cases.

Every builder is a pure function of its arguments: same ``n`` -> same
DAG, same priorities, same request ids.  The executor is a single
simulated switch with zero jitter and flat per-op costs, so schedule
results (makespan, rounds, pattern choices) are exactly reproducible and
comparable between the optimized schedulers and the retired ones the
differential tests keep.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.requests import RequestDag, SwitchRequest
from repro.core.scheduler import NetworkExecutor
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.switches.profiles import SwitchProfile, make_cache_test_profile
from repro.tables.policies import FIFO, LIFO, LRU
from repro.tables.stack import TableLayer


def _match(index: int) -> Match:
    return Match(eth_type=0x0800, ip_dst=IpPrefix(index & 0xFFFFFFFF, 32))


def fast_executor(
    *locations: str,
    seed: int = 1,
    fault_injector=None,
    instruments: Instruments = NULL_INSTRUMENTS,
) -> NetworkExecutor:
    """Unbounded, jitter-free switches with flat per-op costs.

    With a ``fault_injector`` (:class:`repro.faults.FaultInjector`), the
    channels are wrapped so the injector's seeded plan applies — used by
    the faulted bench case and the no-op check.  ``instruments`` is
    handed to the executor (and so to schedulers built on it).
    """
    channels = {}
    for offset, location in enumerate(locations or ("sw",)):
        switch = SimulatedSwitch(
            name=location,
            layers=[TableLayer("t", capacity=None)],
            policy=FIFO,
            layer_delays=[ConstantLatency(0.01)],
            control_path_delay=ConstantLatency(0.1),
            cost_model=ControlCostModel(
                add_base_ms=0.2,
                shift_ms=0.0,
                priority_group_ms=0.0,
                mod_ms=0.1,
                del_ms=0.1,
                jitter_std_frac=0.0,
            ),
            seed=seed + offset,
        )
        channels[location] = ControlChannel(switch, rtt=ConstantLatency(0.0))
    return NetworkExecutor(
        channels, fault_injector=fault_injector, instruments=instruments
    )


def chain_dag(n: int, location: str = "sw") -> RequestDag:
    """``n`` ADD requests in one dependency chain (worst case for the
    pre-optimization per-round ready rescan: V rounds of O(V + E))."""
    dag = RequestDag()
    previous: Optional[SwitchRequest] = None
    for index in range(n):
        request = dag.new_request(
            location, FlowModCommand.ADD, _match(index), priority=index + 1
        )
        if previous is not None:
            dag.add_dependency(previous, request, check_cycle=False)
        previous = request
    dag.validate_acyclic()
    return dag


def layered_dag(n: int, width: int = 50, location: str = "sw") -> RequestDag:
    """``n`` ADD requests in layers of ``width``; each request depends on
    one request of the previous layer.  Priorities are a deterministic
    scatter so the pattern oracle's ordering actually reorders batches.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    dag = RequestDag()
    previous_layer: List[SwitchRequest] = []
    layer: List[SwitchRequest] = []
    for index in range(n):
        priority = (index * 37) % 1000 + 1
        request = dag.new_request(
            location, FlowModCommand.ADD, _match(index), priority=priority
        )
        if previous_layer:
            parent = previous_layer[len(layer) % len(previous_layer)]
            dag.add_dependency(parent, request, check_cycle=False)
        layer.append(request)
        if len(layer) == width:
            previous_layer, layer = layer, []
    dag.validate_acyclic()
    return dag


#: Per-request duration estimates (ms) for the unlock workload below.
UNLOCK_ESTIMATES = {"a": 5.0, "b": 1.0}


def unlock_groups_dag(n: int, group: int = 20) -> RequestDag:
    """Independent copies of the paper's "unlock" shape on switches a/b.

    Each group is one cheap blocker plus slow peers on switch ``a`` and a
    run of dependents on switch ``b`` unlocked by the blocker -- the
    scenario where prefix lookahead beats greedy batching.  Groups are
    mutually independent, so ready sets are wide (good oracle-memoization
    pressure) while round counts stay bounded.
    """
    if group < 2:
        raise ValueError("group must be at least 2")
    dag = RequestDag()
    index = 0
    while index < n:
        size = min(group, n - index)
        half = max(1, size // 2)
        blocker = dag.new_request(
            "a", FlowModCommand.ADD, _match(index), priority=1
        )
        for j in range(1, half):
            dag.new_request(
                "a", FlowModCommand.ADD, _match(index + j), priority=j + 1
            )
        for j in range(size - half):
            dag.new_request(
                "b",
                FlowModCommand.ADD,
                _match(index + half + j),
                priority=j + 1,
                after=[blocker],
            )
        index += size
    return dag


def descending_priorities(n: int) -> List[int]:
    """The TCAM-hostile install order: every add shifts all residents."""
    return list(range(n, 0, -1))


#: Engine knobs for the fleet-inference bench: tiny rule caps and batch
#: sizes keep a full probe run fast while still exercising every stage.
FLEET_BENCH_KNOBS = {
    "size_probe_max_rules": 192,
    "latency_batch_sizes": (20, 60),
}


#: Rule budget of the serve_churn bench switch: small enough that the
#: Zipf working set overflows it and eviction/aggregation churn is
#: sustained at every baseline size.
SERVE_CHURN_CAPACITY = 96


def serve_bench_profile() -> SwitchProfile:
    """The serve_churn bench switch: one bounded LRU fast layer.

    A single bounded layer keeps the occupancy-ratio trajectory easy to
    read, and LRU is the policy family the FDRC-style eviction is
    designed around (recency-ranked victims).
    """
    return make_cache_test_profile(
        LRU,
        layer_sizes=(SERVE_CHURN_CAPACITY, None),
        layer_means_ms=(0.5, 4.8),
        name="serve-bench",
    )


def serve_churn_config(n: int):
    """The serve_churn bench workload: ``n`` arrivals of churning flows.

    Sixteen tenants with Zipf-skewed destinations rotate their hot sets
    every 150 virtual ms, so the cached working set decays instead of
    converging; FDRC admission (2 packet-ins) punts one-packet flows;
    the 96-rule budget forces policy-ranked eviction and wildcard
    aggregation throughout the run.  Pure function of ``n`` — same size,
    byte-identical run.
    """
    from repro.serve import ServeConfig, StreamConfig

    return ServeConfig(
        stream=StreamConfig(
            arrivals=n,
            tenants=16,
            destinations_per_tenant=64,
            rate_per_ms=2.0,
            zipf_skew=1.1,
            tenant_skew=0.6,
            churn_interval_ms=150.0,
            seed=11,
        ),
        batch_size=16,
        capacity=SERVE_CHURN_CAPACITY,
        admission_threshold=2,
        admission_window_ms=80.0,
        idle_timeout_ms=400.0,
        maintenance_interval_ms=100.0,
    )


#: Engine knobs for the sharded-fleet bench: the smallest layer/batch
#: geometry that still runs every probe stage, so a large fleet stays
#: tractable (one full probe is ~300 virtual ops instead of the fleet
#: case's ~800).
SHARDED_BENCH_KNOBS = {
    "size_probe_max_rules": 16,
    "latency_batch_sizes": (4, 8),
}


def sharded_fleet_profiles(count: int) -> List[SwitchProfile]:
    """``count`` tier-named profiles with pairwise-distinct fingerprints.

    Each profile's first-layer mean delay carries a per-index epsilon,
    so every member fingerprints uniquely and a cold sharded run does
    ``count`` genuinely independent probes (shared fingerprints would
    let single-flight coalescing collapse the work).  Names follow the fat-tree tiers
    :func:`repro.core.placement.assign_tier` recognises (1/8 core, 3/8
    aggregation, the rest edge), so the ``tier`` partition strategy has
    real structure to keep pod-local.
    """
    policies = (FIFO, LRU, LIFO)
    profiles: List[SwitchProfile] = []
    for index in range(count):
        slot = index % 8
        if slot == 0:
            name = f"core-{index}"
        elif slot < 4:
            name = f"aggr-{index}"
        else:
            name = f"edge-{index}"
        profiles.append(
            make_cache_test_profile(
                policies[index % len(policies)],
                layer_sizes=(8 + index % 5, None),
                layer_means_ms=(0.4 + index * 1e-4, 4.0 + (index % 9) * 0.1),
                name=name,
            )
        )
    return profiles


def fleet_bench_profiles() -> List[SwitchProfile]:
    """Three small, distinct, deterministic profiles for fleet benches.

    Distinct layer sizes, cache policies, and path delays give each
    profile its own fingerprint (three full probe runs in a cold-cache
    fleet) and measurably different probe durations, so the fleet
    driver's interleaving actually reorders events.
    """
    return [
        make_cache_test_profile(
            FIFO, layer_sizes=(64, None), layer_means_ms=(0.5, 4.8), name="fleet-a"
        ),
        make_cache_test_profile(
            LRU, layer_sizes=(48, None), layer_means_ms=(0.6, 5.0), name="fleet-b"
        ),
        make_cache_test_profile(
            LIFO, layer_sizes=(96, None), layer_means_ms=(0.4, 4.2), name="fleet-c"
        ),
    ]
