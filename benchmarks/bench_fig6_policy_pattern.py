"""Figure 6 -- the policy-probe attribute initialisation pattern.

The paper visualises the post-initialisation state of 200 flows probing
a cache of size 100: each of the four ATTRIB attributes splits the flows
into a high half and a low half, with the halves of different attributes
pairwise independent, so the cached set correlates strongly with exactly
the policy's primary attribute.

This bench reproduces the construction and checks its two defining
properties (balance and pairwise independence), then runs the full probe
against an LRU switch as the paper's running example.
"""

from __future__ import annotations

import pytest

from repro.core.policy_inference import PolicyProber, _high_bit
from repro.core.probing import ProbingEngine
from repro.openflow.channel import ControlChannel
from repro.sim.rng import SeededRng
from repro.switches.profiles import make_cache_test_profile
from repro.tables.entry import FlowAttribute
from repro.tables.policies import LRU, Direction

from benchmarks._helpers import print_table

CACHE_SIZE = 100


def bench_fig6_policy_pattern(benchmark):
    profile = make_cache_test_profile(
        LRU, layer_sizes=(CACHE_SIZE, 2 * CACHE_SIZE, None), layer_means_ms=(0.5, 2.5, 4.8)
    )

    def run():
        switch = profile.build(seed=23)
        engine = ProbingEngine(ControlChannel(switch), rng=SeededRng(23).child("fig6"))
        prober = PolicyProber(engine, cache_size=CACHE_SIZE)
        handles, _, values = prober._initialise_round(list(FlowAttribute))
        result_values = {a: list(v) for a, v in values.items()}
        engine.remove_all_flows()
        inference = PolicyProber(
            ProbingEngine(
                ControlChannel(profile.build(seed=24)),
                rng=SeededRng(24).child("fig6b"),
            ),
            cache_size=CACHE_SIZE,
        ).probe()
        return len(handles), result_values, inference

    flow_count, values, inference = benchmark.pedantic(run, rounds=1, iterations=1)

    # Balance: every attribute splits the flows exactly in half.
    s = flow_count
    rows = []
    for attribute in FlowAttribute:
        ordered = sorted(range(s), key=lambda i: values[attribute][i])
        top_half = set(ordered[s // 2 :])
        high_bits = {i for i in range(s) if _high_bit(i, attribute)}
        assert top_half == high_bits
        rows.append(
            [
                attribute.value,
                f"{min(values[attribute]):.0f}..{max(values[attribute]):.0f}",
                len(high_bits),
            ]
        )
    print_table(
        f"Figure 6: attribute initialisation over {s} flows (cache={CACHE_SIZE})",
        ["attribute", "value range", "high-half size"],
        rows,
    )

    # Pairwise independence: any two attributes' high halves overlap in s/4.
    attributes = list(FlowAttribute)
    for i, a in enumerate(attributes):
        for b in attributes[i + 1 :]:
            high_a = {k for k in range(s) if _high_bit(k, a)}
            high_b = {k for k in range(s) if _high_bit(k, b)}
            assert len(high_a & high_b) == s // 4

    # The running example: LRU is identified from use time alone.
    assert inference.terms[0] == (FlowAttribute.USE_TIME, Direction.INCREASING)
    print(f"Inferred policy on the figure's switch: {inference.terms}")
    benchmark.extra_info["inferred"] = [
        (a.value, d.name) for a, d in inference.terms
    ]
