"""Tests for the long-running serving loop (replay, degradation)."""

from repro.obs import Instruments
from repro.obs.metrics import MetricsRegistry
from repro.obs.export import jsonl_lines
from repro.obs.slo import default_collector
from repro.serve import ServeConfig, ServeLoop, StreamConfig
from repro.serve.loop import policy_from_model
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import LRU


def _profile(fast=256):
    return make_cache_test_profile(
        LRU, layer_sizes=(fast, None), layer_means_ms=(0.5, 4.8), name="loop-ut"
    )


def _config(**overrides):
    stream = StreamConfig(
        arrivals=overrides.pop("arrivals", 2500),
        tenants=8,
        destinations_per_tenant=64,
        rate_per_ms=2.0,
        zipf_skew=1.1,
        tenant_skew=0.6,
        churn_interval_ms=150.0,
        seed=overrides.pop("seed", 7),
    )
    base = dict(
        stream=stream,
        batch_size=16,
        capacity=64,
        admission_threshold=2,
        admission_window_ms=80.0,
        idle_timeout_ms=400.0,
        maintenance_interval_ms=100.0,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _run(config, collector=None):
    loop = ServeLoop(
        config,
        _profile(),
        instruments=Instruments(metrics=MetricsRegistry(), telemetry=collector),
    )
    return loop.run()


def test_replay_is_byte_identical():
    """Two same-seed runs: identical telemetry JSONL and table state."""
    first_collector, second_collector = default_collector(), default_collector()
    first = _run(_config(), first_collector)
    second = _run(_config(), second_collector)
    assert first.to_dict() == second.to_dict()
    assert first.table_signature == second.table_signature
    assert jsonl_lines(first_collector.samples) == jsonl_lines(second_collector.samples)
    assert jsonl_lines(first_collector.alerts) == jsonl_lines(second_collector.alerts)


def test_different_seed_diverges():
    assert (
        _run(_config(seed=7)).table_signature != _run(_config(seed=8)).table_signature
    )


def test_loop_exercises_the_whole_cache_surface():
    # A 40-rule budget under churn makes every reclaim path fire in one
    # run: aggregation first, then eviction, plus idle expiry.
    result = _run(
        _config(capacity=40, aggregate_min_rules=6, idle_timeout_ms=250.0)
    )
    cache = result.cache
    assert result.arrivals == 2500
    assert cache.hits > 0 and cache.misses > 0
    assert cache.punts > 0  # FDRC admission actually punting
    assert cache.evictions > 0  # policy-ranked reclaim under pressure
    assert cache.aggregations > 0  # wildcard folding under pressure
    assert cache.expirations > 0  # idle timeout firing via maintenance
    assert result.maintenance_ticks > 0
    assert result.install_p50_ms is not None
    assert result.install_p99_ms >= result.install_p50_ms
    assert result.requests_per_sec > 0
    assert result.occupancy["total"] <= 40
    assert len(result.table_signature) == result.occupancy["total"]


def test_shrinking_tcam_monotonically_increases_evictions():
    """Degradation: the smaller the budget, the harder eviction works."""
    rates = []
    for capacity in (160, 96, 48, 24):
        # Aggregation off and a long idle timeout isolate policy-ranked
        # eviction as the only way the loop reclaims slots.
        result = _run(
            _config(
                capacity=capacity,
                aggregate_min_rules=512,
                idle_timeout_ms=1_000_000.0,
            )
        )
        assert result.occupancy["total"] <= capacity
        rates.append(result.cache.evictions / result.arrivals)
    assert rates == sorted(rates)
    assert rates[-1] > rates[0]  # strictly worse at the extremes


def test_shrinking_tcam_monotonically_degrades_hit_rate():
    hit_rates = []
    for capacity in (160, 48, 12):
        result = _run(
            _config(
                capacity=capacity,
                aggregate_min_rules=512,
                idle_timeout_ms=1_000_000.0,
            )
        )
        hit_rates.append(result.cache.hit_rate)
    assert hit_rates == sorted(hit_rates, reverse=True)


def test_metrics_histogram_records_installs():
    registry = MetricsRegistry()
    loop = ServeLoop(
        _config(arrivals=600), _profile(), instruments=Instruments(metrics=registry)
    )
    result = loop.run()
    snapshot = registry.snapshot()
    hist = snapshot.get("serve.install_ms")
    # Every scheduled ADD lands in the histogram: exact installs plus
    # the wildcard rules aggregation created.
    expected = result.cache.installs + result.cache.aggregations
    assert hist is not None and hist["count"] == expected


def test_policy_from_model_handles_missing_probe():
    assert policy_from_model(None) is None

    class _NoProbe:
        policy_probe = None

    assert policy_from_model(_NoProbe()) is None

    class _Probe:
        @staticmethod
        def as_policy(name):
            return name

    class _Model:
        name = "ut"
        policy_probe = _Probe()

    assert policy_from_model(_Model()) == "inferred:ut"


def test_attachments_change_nothing_on_the_bench_workload():
    """The ``serve_churn`` op-count baseline is taken with a metrics
    registry attached; the instruments may not alter what the loop
    does."""
    from repro.obs import Tracer
    from repro.perf.workloads import serve_bench_profile, serve_churn_config

    def signature(**attachments):
        loop = ServeLoop(serve_churn_config(1000), serve_bench_profile(), **attachments)
        result = loop.run()
        return result.op_count, result.to_dict(), result.table_signature

    bare = signature()
    assert bare[0] == 1923
    instruments = Instruments(Tracer(), MetricsRegistry(), default_collector())
    assert signature(instruments=instruments) == bare
    assert len(instruments.tracer) > 0 and len(instruments.metrics) > 0
    assert instruments.telemetry.samples
