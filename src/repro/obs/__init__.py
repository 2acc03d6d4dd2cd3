"""``repro.obs`` -- structured tracing, metrics, telemetry, provenance.

The telemetry subsystem behind every measurement-driven decision in the
reproduction: a deterministic span/event tracer timestamped from the
*simulated* clock (:mod:`repro.obs.trace`), a metrics registry with
counters/gauges/histograms (:mod:`repro.obs.metrics`), exporters for
JSONL, Chrome ``trace_event``, and Prometheus text formats
(:mod:`repro.obs.export`), a continuous flow-telemetry pipeline with
NetFlow-style flow-cache sampling (:mod:`repro.obs.telemetry`), and SLO
burn-rate alerting over sliding windows of that stream
(:mod:`repro.obs.slo`).  ``tango-report``
(:mod:`repro.tools.report`) reads every artifact back through this
package's readers.

Components reach those sinks through one handle,
:class:`~repro.obs.instruments.Instruments` (``instruments=`` on every
constructor).  They all default to :data:`NULL_INSTRUMENTS`, whose one
``enabled`` bit is false, so telemetry off means a single attribute
check on the hot paths and zero recorded state.
"""

from repro.obs.export import (
    prometheus_text,
    read_jsonl,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.instruments import NULL_INSTRUMENTS, Instruments
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    BurnWindow,
    DEFAULT_BURN_WINDOWS,
    SloPolicy,
    SloTarget,
    TelemetryAlert,
    default_collector,
    default_slo_targets,
    read_alerts_jsonl,
)
from repro.obs.telemetry import (
    FlowCache,
    FlowCacheConfig,
    FlowRecord,
    SlidingWindow,
    TelemetryCollector,
    TelemetrySample,
    read_telemetry_jsonl,
    summarize_telemetry,
    timeseries,
)
from repro.obs.trace import (
    Span,
    TraceEvent,
    Tracer,
)

__all__ = [
    "BurnWindow",
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "DEFAULT_BURN_WINDOWS",
    "FlowCache",
    "FlowCacheConfig",
    "FlowRecord",
    "Gauge",
    "Histogram",
    "Instruments",
    "MetricsRegistry",
    "NULL_INSTRUMENTS",
    "SlidingWindow",
    "SloPolicy",
    "SloTarget",
    "Span",
    "TelemetryAlert",
    "TelemetryCollector",
    "TelemetrySample",
    "TraceEvent",
    "Tracer",
    "default_collector",
    "default_slo_targets",
    "prometheus_text",
    "read_alerts_jsonl",
    "read_jsonl",
    "read_telemetry_jsonl",
    "summarize_events",
    "summarize_telemetry",
    "timeseries",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
