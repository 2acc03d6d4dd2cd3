"""End-to-end telemetry: instrumented probing, scheduling, and provenance.

These tests pin the observability acceptance criteria: one annotated
span per scheduled batch, byte-identical same-seed traces, retry/packet
metrics from the probing engine, and ``ScoreRecord.source`` provenance.
"""

import io

from repro.baselines import DionysusScheduler
from repro.core.inference import SwitchInferenceEngine
from repro.core.probing import ProbingEngine
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    DeadlineAwareTangoScheduler,
    PrefixTangoScheduler,
)
from repro.core.scores import TangoScoreDatabase
from repro.obs import Instruments, MetricsRegistry, Tracer, write_jsonl
from repro.openflow.channel import ControlChannel
from repro.perf.workloads import chain_dag, fast_executor, layered_dag
from repro.sim.rng import SeededRng
from repro.switches import SWITCH_2
from repro.switches.profiles import make_cache_test_profile
from repro.tables.policies import FIFO


def _traced_run(scheduler_cls, build_dag, **kwargs):
    tracer = Tracer()
    metrics = MetricsRegistry()
    executor = fast_executor()
    instruments = Instruments(tracer=tracer, metrics=metrics)
    scheduler = scheduler_cls(executor, instruments=instruments, **kwargs)
    result = scheduler.schedule(build_dag(60))
    return tracer, metrics, result


def test_basic_scheduler_emits_one_annotated_span_per_batch():
    tracer, metrics, result = _traced_run(BasicTangoScheduler, layered_dag)
    batches = [e for e in tracer.events if e.name == "scheduler.batch"]
    assert len(batches) == result.rounds
    assert [b.attrs["pattern"] for b in batches] == list(result.pattern_choices)
    for span in batches:
        assert span.is_span
        assert span.attrs["batch_size"] > 0
        assert span.attrs["actual_ms"] >= 0.0
        assert span.attrs["deadline_misses"] == 0
    snapshot = metrics.snapshot()
    assert snapshot["scheduler.batches{scheduler=BasicTangoScheduler}"] == result.rounds
    assert (
        snapshot["scheduler.requests{scheduler=BasicTangoScheduler}"]
        == result.total_requests
    )
    assert snapshot["scheduler.oracle_calls"] == result.rounds


def test_prefix_scheduler_spans_carry_estimate_and_cut():
    tracer, _, result = _traced_run(
        PrefixTangoScheduler, chain_dag, estimate=lambda request: 1.0
    )
    batches = [e for e in tracer.events if e.name == "scheduler.batch"]
    assert len(batches) == result.rounds
    for span in batches:
        assert span.attrs["estimated_ms"] >= 0.0
        assert span.attrs["cut"] <= span.attrs["ready"]


def test_deadline_and_concurrent_schedulers_emit_spans():
    for cls, extra_key in (
        (DeadlineAwareTangoScheduler, "urgent"),
        (ConcurrentTangoScheduler, "guard_ms"),
    ):
        tracer, _, result = _traced_run(cls, layered_dag, estimate=lambda r: 1.0)
        batches = [e for e in tracer.events if e.name == "scheduler.batch"]
        assert len(batches) == result.rounds
        assert all(extra_key in b.attrs for b in batches)


def test_dionysus_spans_are_policy_tagged():
    tracer = Tracer()
    metrics = MetricsRegistry()
    scheduler = DionysusScheduler(
        fast_executor(), instruments=Instruments(tracer=tracer, metrics=metrics)
    )
    result = scheduler.schedule(layered_dag(60))
    batches = [e for e in tracer.events if e.name == "scheduler.batch"]
    assert len(batches) == result.rounds
    assert all(b.attrs["policy"] == "critical_path" for b in batches)
    snapshot = metrics.snapshot()
    assert snapshot["scheduler.batches{scheduler=DionysusScheduler}"] == result.rounds


def test_executor_metrics_and_request_instants():
    tracer = Tracer()
    metrics = MetricsRegistry()
    executor = fast_executor(
        instruments=Instruments(tracer=tracer, metrics=metrics, trace_requests=True)
    )
    BasicTangoScheduler(executor).schedule(chain_dag(10))
    snapshot = metrics.snapshot()
    issued = [v for k, v in snapshot.items() if k.startswith("executor.requests_issued")]
    assert sum(issued) == 10
    assert snapshot["executor.issue_ms"]["count"] == 10
    instants = [e for e in tracer.events if e.name == "executor.issue"]
    assert len(instants) == 10
    assert all("issue_ms" in e.attrs and "switch" in e.attrs for e in instants)


def test_same_seed_traces_are_byte_identical():
    def render():
        tracer, _, _ = _traced_run(BasicTangoScheduler, layered_dag)
        buffer = io.StringIO()
        write_jsonl(tracer.events, buffer)
        return buffer.getvalue()

    first, second = render(), render()
    assert first == second
    assert first  # non-empty


def test_untraced_run_matches_traced_run_exactly():
    bare = BasicTangoScheduler(fast_executor()).schedule(layered_dag(60))
    _, _, traced = _traced_run(BasicTangoScheduler, layered_dag)
    assert bare.makespan_ms == traced.makespan_ms
    assert bare.rounds == traced.rounds
    assert list(bare.pattern_choices) == list(traced.pattern_choices)


def test_probing_engine_counts_packets_and_retries_under_loss():
    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    switch = profile.build(seed=2)
    channel = ControlChannel(
        switch,
        probe_loss_probability=0.5,
        rng=SeededRng(2).child("lossy-channel"),
    )
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine = ProbingEngine(
        channel,
        rng=SeededRng(2).child("lossy-probe"),
        instruments=Instruments(tracer=tracer, metrics=metrics),
    )
    handle = engine.install_new_flow()
    for _ in range(30):
        engine.measure_rtt(handle, retries=5)
    snapshot = metrics.snapshot()
    switch_label = f"{{switch={engine.switch_name}}}"
    assert snapshot[f"probe.packets_sent{switch_label}"] >= 30
    assert snapshot[f"probe.rtt_retries{switch_label}"] > 0
    assert snapshot[f"probe.flow_mods_sent{switch_label}"] >= 1


def test_inference_trace_spans_and_score_provenance():
    scores = TangoScoreDatabase()
    tracer = Tracer()
    metrics = MetricsRegistry()
    engine = SwitchInferenceEngine(
        SWITCH_2,
        scores=scores,
        seed=1,
        instruments=Instruments(tracer=tracer, metrics=metrics),
    )
    model = engine.infer(include_policy=False)
    assert model.size_probe is not None
    names = {e.name for e in tracer.events}
    assert "infer.size_probe" in names
    assert "infer.size.fill" in names
    root = next(e for e in tracer.events if e.name == "infer.size_probe")
    assert root.attrs["rules_installed"] > 0
    # Provenance: every TangoDB write names the prober that produced it.
    size_record = scores.get_record(model.name, "size_probe")
    assert size_record is not None and size_record.source == "size_prober"
    model_record = scores.get_record(model.name, "switch_model")
    assert model_record is not None and model_record.source == "inference_engine"
    curve_records = [
        r
        for r in scores.records_for_switch(model.name)
        if r.key.metric == "latency_curve"
    ]
    assert curve_records
    assert all(
        (r.source or "").startswith("latency_curve_prober:") for r in curve_records
    )
    assert metrics.snapshot()["infer.size.doubling_rounds"] > 0


def test_probing_pattern_spans_record_provenance():
    from repro.core.patterns import ProbePattern
    from repro.openflow.messages import FlowModCommand

    profile = make_cache_test_profile(FIFO, (64, None), layer_means_ms=(0.5, 3.0))
    switch = profile.build(seed=3)
    scores = TangoScoreDatabase()
    tracer = Tracer()
    engine = ProbingEngine(
        ControlChannel(switch),
        scores=scores,
        rng=SeededRng(3).child("p"),
        instruments=Instruments(tracer=tracer),
    )
    handles = [engine.new_handle(priority=100 + i) for i in range(4)]
    pattern = ProbePattern(
        name="probe-adds",
        flow_mods=tuple(h.flow_mod(FlowModCommand.ADD) for h in handles),
        traffic=tuple(h.packet for h in handles),
    )
    engine.apply_pattern(pattern)
    span = next(e for e in tracer.events if e.name == "probe.apply_pattern")
    assert span.attrs["pattern"] == pattern.name
    assert span.attrs["flow_mods"] == 4
    assert span.attrs["packets"] == 4
    record = scores.get_record(
        engine.switch_name, "pattern_result", pattern=pattern.name
    )
    assert record is not None
    assert record.source == f"probing:{pattern.name}"
