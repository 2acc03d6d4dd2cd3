"""Sustained-churn serving -- the long-running controller service.

Not tied to a paper figure: this bench quantifies the serving extension
(`repro.serve`) the ROADMAP's continuous-control-loop item calls for.
A Zipf/churn flow-request stream is served against a 96-rule budget
with FDRC admission, policy-ranked eviction, and wildcard aggregation;
the measured quantity is *virtual* time (sustained requests/sec, p50
and p99 install latency), and the full serving summary lands in
``benchmark.extra_info["serve"]`` so ``tango-report bench``
renders a "Sustained serving" section for it.
"""

from __future__ import annotations

from repro.obs import Instruments, MetricsRegistry
from repro.perf.workloads import (
    SERVE_CHURN_CAPACITY,
    serve_bench_profile,
    serve_churn_config,
)
from repro.serve import ServeLoop

from benchmarks._helpers import print_table

ARRIVALS = 5000


def bench_serve_churn(benchmark):
    def run():
        loop = ServeLoop(
            serve_churn_config(ARRIVALS),
            serve_bench_profile(),
            instruments=Instruments(metrics=MetricsRegistry()),
        )
        return loop.run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    cache = result.cache
    rows = [
        ["arrivals", result.arrivals],
        ["virtual duration", f"{result.duration_ms / 1000.0:.2f}s"],
        ["requests/sec (virtual)", f"{result.requests_per_sec:.0f}"],
        ["install p50 / p99", f"{result.install_p50_ms} / {result.install_p99_ms} ms"],
        ["hit rate", f"{100.0 * cache.hit_rate:.1f}%"],
        ["evictions / aggregations", f"{cache.evictions} / {cache.aggregations}"],
        ["final occupancy", result.occupancy["total"]],
    ]
    print_table(
        f"Sustained serving under churn ({SERVE_CHURN_CAPACITY}-rule budget)",
        ["metric", "value"],
        rows,
    )

    # Shape: the stream must actually churn the finite table -- flows
    # are cached (nonzero hits), cold flows punted (FDRC admission),
    # and the budget respected at all times.
    assert cache.hits > 0 and cache.punts > 0
    assert cache.aggregations > 0
    assert result.occupancy["total"] <= SERVE_CHURN_CAPACITY
    assert result.install_p99_ms is not None
    benchmark.extra_info["serve"] = result.to_dict()
