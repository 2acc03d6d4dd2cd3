#!/usr/bin/env python3
"""Quickstart: probe a switch, then schedule rules with what you learned.

Runs in a few seconds:

1. register a simulated hardware switch (vendor profile "Switch #2"),
2. let Tango infer its flow-table size and operation latency curves,
3. install 500 rules twice -- once in a naive random order, once through
   the Tango scheduler -- and compare installation times,
4. re-probe the switch online, with those 500 rules still in production
   (Section 4: "online testing when the switch is running"),
5. infer a software switch too and let Tango place flows between the two
   by inferred cost (the Section 1 example: setup-critical flows go to
   the software switch, high-volume flows to the hardware one).

Usage:
    python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import RandomOrderScheduler
from repro.core import (
    FlowPlacer,
    FlowRequirements,
    NetworkExecutor,
    OnlineSizeProber,
    RequestDag,
    Tango,
)
from repro.core.probing import ProbingEngine, probe_match
from repro.openflow.messages import FlowModCommand
from repro.sim.rng import SeededRng
from repro.switches import OVS_PROFILE, SWITCH_2


def build_dag(location: str, n_rules: int, seed: int) -> RequestDag:
    """An independent batch of rule additions with random priorities."""
    rng = SeededRng(seed).child("quickstart")
    dag = RequestDag()
    priorities = rng.sample(list(range(1, 8 * n_rules)), n_rules)
    for index in range(n_rules):
        dag.new_request(
            location,
            FlowModCommand.ADD,
            probe_match(index),
            priority=priorities[index],
        )
    return dag


def main() -> None:
    tango = Tango(seed=42)
    name = tango.register_profile(SWITCH_2)

    print(f"Probing switch {name!r} ...")
    model = tango.infer(name, include_policy=False, latency_batch_sizes=(100, 400, 900))
    print(f"  inferred flow-table layers : {model.layer_sizes}")
    for (op, pattern), curve in sorted(
        model.latency_curves.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
    ):
        print(
            f"  latency curve {op.value:>3} / {pattern.value:<10}: "
            f"t(n) = {curve.linear_ms:.3f}*n + {curve.quadratic_ms:.5f}*n^2  ms"
        )

    n_rules = 500
    naive = RandomOrderScheduler(NetworkExecutor({name: tango.channel(name)}), seed=7)
    naive_result = naive.schedule(build_dag(name, n_rules, seed=1))
    # Start the second run from an empty flow table.
    tango.switch(name).reset_rules()
    tango_result = tango.schedule(build_dag(name, n_rules, seed=1))

    print(f"\nInstalling {n_rules} rules with random priorities:")
    print(f"  random issue order : {naive_result.makespan_ms / 1000:.2f} s")
    print(f"  Tango scheduler    : {tango_result.makespan_ms / 1000:.2f} s")
    speedup = naive_result.makespan_ms / tango_result.makespan_ms
    print(f"  speedup            : {speedup:.1f}x (the paper reports up to 12x)")

    # The production rules sit on probe addresses; the prober skips them.
    online = OnlineSizeProber(ProbingEngine(tango.channel(name))).probe()
    print(f"\nOnline re-probe of {name!r} with its rules in production:")
    print(
        f"  {online.production_rules} production + {online.free_capacity} free "
        f"= {online.total_capacity} entries (offline estimate: {model.layer_sizes[0]})"
    )
    print(f"  rules still installed afterwards: {tango.switch(name).num_flows}")

    software = tango.register_profile(OVS_PROFILE)
    placer = FlowPlacer(
        [
            model,
            tango.infer(
                software,
                include_policy=False,
                size_probe_max_rules=128,
                latency_batch_sizes=(100, 400, 900),
            ),
        ]
    )
    print(f"\nPlacing flows between {software!r} and {name!r} by inferred cost:")
    for label, flow in (
        ("setup-critical, 1 packet", FlowRequirements(expected_packets=1, setup_weight=20.0)),
        ("bulk, 50,000 packets", FlowRequirements(expected_packets=50_000)),
    ):
        choice = placer.place(flow)
        print(
            f"  {label:24s} -> {choice.switch:8s} (install {choice.install_ms:.2f} ms, "
            f"{choice.per_packet_ms:.2f} ms per packet)"
        )


if __name__ == "__main__":
    main()
