"""Tests for the continuous flow-telemetry collector."""

import io

import pytest

from repro.obs import NULL_INSTRUMENTS, Instruments, Tracer
from repro.obs.export import jsonl_lines, write_jsonl
from repro.obs.telemetry import (
    FlowCache,
    FlowCacheConfig,
    SlidingWindow,
    TelemetryCollector,
    TelemetrySample,
    read_telemetry_jsonl,
    summarize_telemetry,
    timeseries,
)


# -- sliding windows ----------------------------------------------------------------
def test_window_trims_samples_older_than_window():
    window = SlidingWindow(window_ms=10.0)
    window.observe(0.0, 1.0)
    window.observe(5.0, 2.0)
    window.observe(20.0, 3.0)  # pushes t=0 and t=5 out of [10, 20]
    assert window.values() == [3.0]
    assert window.count() == 1


def test_window_percentile_nearest_rank():
    window = SlidingWindow(window_ms=1000.0)
    for index in range(1, 101):
        window.observe(float(index), float(index))
    assert window.percentile(50.0) == 50.0
    assert window.percentile(99.0) == 99.0
    assert window.percentile(100.0) == 100.0
    with pytest.raises(ValueError):
        window.percentile(101.0)


def test_window_percentile_and_mean_empty_is_none():
    window = SlidingWindow(window_ms=10.0)
    assert window.percentile(99.0) is None
    assert window.mean() is None
    assert window.violation_fraction(1.0) is None


def test_window_violation_fraction_is_strictly_above():
    window = SlidingWindow(window_ms=100.0)
    for t, value in enumerate([1.0, 2.0, 3.0, 4.0]):
        window.observe(float(t), value)
    assert window.violation_fraction(2.0) == pytest.approx(0.5)


def test_window_capacity_bounds_retention():
    window = SlidingWindow(window_ms=1e9, capacity=3)
    for t in range(10):
        window.observe(float(t), float(t))
    assert window.values() == [7.0, 8.0, 9.0]


def test_window_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SlidingWindow(window_ms=0.0)
    with pytest.raises(ValueError):
        SlidingWindow(window_ms=1.0, capacity=0)


# -- flow cache ----------------------------------------------------------------------
def test_flow_cache_inactive_timeout_exports_idle_flows():
    cache = FlowCache(FlowCacheConfig(active_timeout_ms=1000.0, inactive_timeout_ms=50.0))
    cache.record("s1", "f1", 0.0)
    cache.record("s1", "f2", 40.0)
    records = cache.expire(100.0)  # f1 idle 100ms > 50; f2 idle 60ms > 50
    assert [(r.key, r.reason) for r in records] == [("f1", "inactive"), ("f2", "inactive")]
    assert len(cache) == 0


def test_flow_cache_active_timeout_exports_long_lived_flows():
    cache = FlowCache(FlowCacheConfig(active_timeout_ms=100.0, inactive_timeout_ms=1000.0))
    assert cache.record("s1", "f1", 0.0) is None
    assert cache.record("s1", "f1", 50.0) is None
    record = cache.record("s1", "f1", 120.0)
    assert record is not None
    assert record.reason == "active"
    assert record.updates == 3
    assert record.packets == 3
    # Counters reset: the flow starts over on its next update.
    assert len(cache) == 0


def test_flow_cache_flush_exports_everything_sorted():
    cache = FlowCache()
    cache.record("s2", "b", 1.0)
    cache.record("s1", "a", 2.0)
    records = cache.flush(10.0)
    assert [(r.source, r.key, r.reason) for r in records] == [
        ("s1", "a", "flush"),
        ("s2", "b", "flush"),
    ]


def test_flow_cache_deterministic_one_in_n_sampling():
    cache = FlowCache(FlowCacheConfig(sampling_rate=3))
    for index in range(9):
        cache.record("s1", f"f{index}", float(index))
    # Every 3rd update lands: updates 3, 6, 9 (1-indexed arrival order).
    assert len(cache) == 3
    assert cache.sampled_out == 6


def test_flow_cache_config_validation():
    with pytest.raises(ValueError):
        FlowCacheConfig(active_timeout_ms=0.0)
    with pytest.raises(ValueError):
        FlowCacheConfig(sampling_rate=0)


# -- collector cadence and recording ---------------------------------------------------
def test_collector_push_fires_elapsed_cadence_ticks():
    collector = TelemetryCollector(interval_ms=10.0)
    collector.observe_probe("s1", "add", t_ms=0.0, rtt_ms=1.0)  # anchors cadence
    assert collector.ticks == 1
    collector.observe_probe("s1", "add", t_ms=35.0, rtt_ms=1.0)  # crosses 10, 20, 30
    assert collector.ticks == 4


def test_collector_tick_timestamps_are_interval_multiples():
    collector = TelemetryCollector(interval_ms=10.0)
    seen = []
    collector.watch("probe", lambda t_ms: [] if seen.append(t_ms) else [])
    collector.observe_probe("s1", "add", t_ms=7.0, rtt_ms=1.0)
    collector.observe_probe("s1", "add", t_ms=23.0, rtt_ms=1.0)
    assert seen == [0.0, 10.0, 20.0]


def test_collector_emit_records_samples_and_series_names():
    collector = TelemetryCollector()
    collector.emit(1.0, "x.y", 5.0, source="s1", layer="t0")
    collector.emit(2.0, "x.y", 7.0, source="s1")
    collector.emit(3.0, "a.b", 1.0)
    assert [(s.series, s.source, s.value) for s in collector.samples] == [
        ("x.y", "s1", 5.0),
        ("x.y", "s1", 7.0),
        ("a.b", "", 1.0),
    ]
    assert collector.series_names() == ["a.b", "x.y"]
    first = collector.samples[0]
    assert first.labels == (("layer", "t0"),)


def test_collector_capacity_drops_oldest_and_counts():
    collector = TelemetryCollector(capacity=2)
    for t in range(4):
        collector.emit(float(t), "s", float(t))
    assert collector.dropped == 2
    assert [sample.value for sample in collector.samples] == [2.0, 3.0]
    assert collector.stats()["dropped"] == 2


def test_collector_rejects_bad_parameters():
    with pytest.raises(ValueError):
        TelemetryCollector(interval_ms=0.0)
    with pytest.raises(ValueError):
        TelemetryCollector(capacity=0)


def test_collector_observe_install_records_latency_and_flow():
    collector = TelemetryCollector(interval_ms=1000.0)
    collector.observe_install("s1", "add", started_ms=1.0, finished_ms=3.5)
    installs = [
        (s.t_ms, s.source, s.value)
        for s in collector.samples
        if s.series == "executor.install_ms"
    ]
    assert installs == [(3.5, "s1", 2.5)]


def test_collector_finish_flushes_flow_cache():
    collector = TelemetryCollector(interval_ms=1000.0)
    collector.observe_flow("s1", "f1", t_ms=1.0)
    collector.finish(5.0)
    exports = [s for s in collector.samples if s.series == "flow.export"]
    assert len(exports) == 1
    assert dict(exports[0].labels)["reason"] == "flush"


def test_collector_bind_simulator_samples_on_cadence_and_drains():
    from repro.sim.events import Simulator

    sim = Simulator()
    collector = TelemetryCollector(interval_ms=10.0)
    hits = []
    collector.watch("probe", lambda t_ms: [] if hits.append(t_ms) else [])
    for delay in (5.0, 15.0, 25.0):
        sim.schedule(delay, lambda: None)
    collector.bind_simulator(sim)
    sim.run()
    assert hits  # the sampler fired
    assert all(t % 10.0 == 0.0 for t in hits)
    assert len(sim.queue) == 0  # the self-rescheduling sampler stopped


def test_watch_switch_emits_occupancy_and_counter_series():
    from repro.sim.latency import ConstantLatency
    from repro.switches import SimulatedSwitch
    from repro.switches.base import ControlCostModel
    from repro.tables import FIFO, TableLayer

    switch = SimulatedSwitch(
        name="sw",
        layers=[TableLayer("tcam", capacity=8), TableLayer("sw", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5), ConstantLatency(3.0)],
        control_path_delay=ConstantLatency(8.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.1,
            priority_group_ms=0.1,
            mod_ms=0.5,
            del_ms=0.5,
            jitter_std_frac=0.0,
        ),
        seed=3,
    )
    collector = TelemetryCollector()
    collector.watch_switch("sw", switch)
    collector.sample(0.0)
    names = {sample.series for sample in collector.samples}
    assert {"switch.occupancy", "switch.layer_occupancy", "switch.flow_mods",
            "switch.shifts", "switch.packets"} <= names


# -- no collector -----------------------------------------------------------------------
def test_null_collector_is_disabled_and_records_nothing():
    assert NULL_INSTRUMENTS.enabled is False
    assert NULL_INSTRUMENTS.telemetry is None
    # A handle without a collector drops every telemetry hook, and its
    # other sinks record none of that traffic.
    tracer = Tracer()
    instruments = Instruments(tracer=tracer)
    for handle in (NULL_INSTRUMENTS, instruments):
        handle.observe_flow("s1", "f", 0.0)
        handle.watch_switch("s1", object())
        handle.watch_network(object())
        handle.bind_simulator(object())
        handle.finish(9.0)
    assert instruments.telemetry is None
    assert tracer.events == []


# -- serialization ----------------------------------------------------------------------
def _sample_stream():
    collector = TelemetryCollector(interval_ms=10.0)
    collector.observe_install("s1", "add", 0.0, 2.5)
    collector.observe_batch("Basic", "P1", 0.0, 12.0, 4, deadline_misses=1)
    collector.observe_probe("s2", "mod", 15.0, 0.7)
    collector.finish(20.0)
    return collector.samples


def test_jsonl_roundtrip_identity_through_handle_and_path(tmp_path):
    samples = _sample_stream()
    buffer = io.StringIO()
    assert write_jsonl(samples, buffer) == len(samples)
    assert read_telemetry_jsonl(io.StringIO(buffer.getvalue())) == samples
    path = str(tmp_path / "telemetry.jsonl")
    write_jsonl(samples, path)
    assert read_telemetry_jsonl(path) == samples


def test_jsonl_lines_are_byte_deterministic():
    first = jsonl_lines(_sample_stream())
    second = jsonl_lines(_sample_stream())
    assert first == second
    assert ": " not in first[0]  # compact separators, sorted keys
    import json

    keys = list(json.loads(first[0]))
    assert keys == sorted(keys)


def test_sample_dict_roundtrip_preserves_labels():
    sample = TelemetrySample(
        t_ms=1.0, series="s", source="sw", value=2.0, labels=(("a", "1"), ("b", "2"))
    )
    assert TelemetrySample.from_dict(sample.to_dict()) == sample


def test_summarize_telemetry_rolls_up_series():
    summary = summarize_telemetry(_sample_stream())
    assert summary["samples"] == len(_sample_stream())
    install = summary["series"]["executor.install_ms"]
    assert install["count"] == 1
    assert install["mean"] == pytest.approx(2.5)
    assert summary["span_ms"] >= 0.0


def test_summarize_telemetry_empty():
    summary = summarize_telemetry([])
    assert summary["samples"] == 0
    assert summary["series"] == {}
    assert summary["span_ms"] == 0.0


def test_timeseries_filters_and_sorts():
    samples = [
        TelemetrySample(t_ms=5.0, series="a", source="x", value=2.0),
        TelemetrySample(t_ms=1.0, series="a", source="y", value=1.0),
        TelemetrySample(t_ms=3.0, series="b", source="x", value=9.0),
    ]
    assert timeseries(samples, "a") == [(1.0, 1.0), (5.0, 2.0)]
    assert timeseries(samples, "a", source="x") == [(5.0, 2.0)]
    assert timeseries(samples, "missing") == []


# -- the collector may not perturb schedules -------------------------------------------
def test_attached_collector_is_a_noop_for_the_scheduler():
    from repro.core.scheduler import BasicTangoScheduler
    from repro.perf.workloads import fast_executor, layered_dag

    def run(instruments):
        dag = layered_dag(200)
        executor = fast_executor(instruments=instruments)
        result = BasicTangoScheduler(executor).schedule(dag)
        return (
            result.makespan_ms,
            result.rounds,
            tuple(result.pattern_choices),
            tuple((r.request.request_id, r.started_ms, r.finished_ms) for r in result.records),
        )

    bare = run(NULL_INSTRUMENTS)
    collector = TelemetryCollector(interval_ms=5.0)
    attached = run(Instruments(telemetry=collector))
    assert bare == attached
    assert collector.samples  # it did record


def test_two_same_seed_scheduler_runs_serialize_identically():
    from repro.core.scheduler import BasicTangoScheduler
    from repro.perf.workloads import fast_executor, layered_dag

    def stream():
        collector = TelemetryCollector(interval_ms=5.0)
        executor = fast_executor(instruments=Instruments(telemetry=collector))
        BasicTangoScheduler(executor).schedule(layered_dag(200))
        collector.finish(executor.now_ms())
        return jsonl_lines(collector.samples)

    assert stream() == stream()
