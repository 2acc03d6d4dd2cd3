"""Tests for the one instrumentation handle, :class:`repro.obs.Instruments`."""

from repro.core.requests import SwitchRequest
from repro.obs import (
    NULL_INSTRUMENTS,
    Instruments,
    MetricsRegistry,
    TelemetryCollector,
    Tracer,
)
from repro.openflow.errors import ControlMessageLostError, SwitchDisconnectedError
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand

REQUEST = SwitchRequest(7, "s1", FlowMod(FlowModCommand.ADD, Match(ip_dst=IpPrefix(1, 32))))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def test_null_instruments_are_disabled_and_record_nothing():
    assert NULL_INSTRUMENTS.enabled is False
    assert NULL_INSTRUMENTS.tracer is None
    assert NULL_INSTRUMENTS.metrics is None
    assert NULL_INSTRUMENTS.telemetry is None
    # Per-sink no-ops are tested with each sink (test_obs_metrics,
    # test_obs_trace, test_obs_telemetry); every fan-out method is safe
    # with no sink attached.
    clock = FakeClock(1.0)
    NULL_INSTRUMENTS.request_issued(REQUEST, 0.0, 1.0)
    batch = NULL_INSTRUMENTS.open_batch("Sched", "P1", 3, 0, clock=clock)
    NULL_INSTRUMENTS.close_batch(batch, 2.0, requested=3, issued=3, misses=0)
    NULL_INSTRUMENTS.fault_deferred("Sched", REQUEST, ControlMessageLostError(), 1, clock)
    NULL_INSTRUMENTS.fleet_stage_done("s1", "size", 1.0, clock=clock)
    NULL_INSTRUMENTS.fleet_member_done("s1", "probe", 1.0, clock=clock)


def test_any_sink_enables_the_handle():
    assert Instruments(tracer=Tracer()).enabled
    assert Instruments(metrics=MetricsRegistry()).enabled
    assert Instruments(telemetry=TelemetryCollector()).enabled


def test_request_issued_fans_out_to_every_sink():
    tracer, registry = Tracer(), MetricsRegistry()
    collector = TelemetryCollector(interval_ms=5.0)
    instruments = Instruments(tracer, registry, collector, trace_requests=True)
    instruments.request_issued(REQUEST, 1.0, 3.5)
    snapshot = registry.snapshot()
    assert snapshot["executor.requests_issued{command=add}"] == 1.0
    assert snapshot["executor.issue_ms"]["count"] == 1
    installs = [s for s in collector.samples if s.series == "executor.install_ms"]
    assert [(s.t_ms, s.value, s.source) for s in installs] == [(3.5, 2.5, "s1")]
    (event,) = tracer.events
    assert event.name == "executor.issue" and event.start_ms == 3.5
    assert event.attrs == {
        "request_id": 7, "switch": "s1", "command": "add", "issue_ms": 2.5,
    }


def test_request_events_need_trace_requests():
    tracer = Tracer()
    Instruments(tracer=tracer).request_issued(REQUEST, 1.0, 3.5)
    assert len(tracer) == 0


def test_batch_span_counters_and_stream():
    tracer, registry = Tracer(), MetricsRegistry()
    collector = TelemetryCollector(interval_ms=5.0)
    instruments = Instruments(tracer, registry, collector)
    clock = FakeClock(2.0)
    batch = instruments.open_batch(
        "Sched", "P1", 4, 0, clock=clock, estimate=lambda: 3.0, cut=2
    )
    clock.now = 6.0
    instruments.close_batch(batch, clock(), requested=4, issued=3, misses=1)
    (span,) = tracer.events
    assert (span.name, span.start_ms, span.end_ms) == ("scheduler.batch", 2.0, 6.0)
    assert span.attrs == {
        "pattern": "P1", "batch_size": 4, "round": 0, "cut": 2,
        "estimated_ms": 3.0, "actual_ms": 4.0, "deadline_misses": 1,
    }
    snapshot = registry.snapshot()
    assert snapshot["scheduler.batches{scheduler=Sched}"] == 1.0
    assert snapshot["scheduler.requests{scheduler=Sched}"] == 4.0
    assert snapshot["scheduler.deadline_misses{scheduler=Sched}"] == 1.0
    series = {s.series: s.value for s in collector.samples if s.source == "Sched"}
    assert series == {
        "scheduler.batch_ms": 4.0,
        "scheduler.batch_size": 3.0,
        "scheduler.deadline_misses": 1.0,
    }


def test_fault_deferral_feeds_counter_series_and_event():
    tracer, registry = Tracer(), MetricsRegistry()
    collector = TelemetryCollector(interval_ms=5.0)
    instruments = Instruments(tracer, registry, collector)
    fault = SwitchDisconnectedError("s1", reconnect_at_ms=7.0)
    instruments.fault_deferred("Sched", REQUEST, fault, 2, clock=FakeClock(4.0))
    assert registry.snapshot()["scheduler.fault_retries{scheduler=Sched}"] == 1.0
    series = {s.series: s.value for s in collector.samples if s.source == "Sched"}
    assert series == {"scheduler.fault_deferrals": 1.0, "scheduler.fault_hold_ms": 3.0}
    (event,) = tracer.events
    assert event.name == "scheduler.fault_deferred"
    assert event.attrs == {
        "request_id": 7, "switch": "s1", "fault": "SwitchDisconnectedError",
        "attempts": 2, "retry_at_ms": 7.0,
    }
