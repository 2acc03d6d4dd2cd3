"""One instrumentation handle for every component.

An :class:`Instruments` bundles the optional sinks of a run (tracer,
metrics registry, telemetry collector) and is the only instrumentation
argument a component takes.  Its one ``enabled`` bit is false exactly
when no sink is attached, as on :data:`NULL_INSTRUMENTS`.  Components
check that bit and then talk to the handle, never to a sink: an event
that feeds several sinks is one named method here that owns the
per-sink work, and single-sink calls do nothing for a missing sink.

Usage::

    instruments = Instruments(tracer=Tracer(), metrics=MetricsRegistry())
    executor = NetworkExecutor(channels, instruments=instruments)
    BasicTangoScheduler(executor).schedule(dag)  # inherits the handle
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from repro.obs.metrics import (
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import TelemetryCollector
from repro.obs.trace import _NULL_SPAN, Clock, Tracer


#: An open scheduler batch: (scheduler, pattern, start_ms, span).
Batch = Tuple[str, str, float, Any]


class Instruments:
    """The tracer, metrics registry and telemetry collector of one run.

    Args:
        tracer: span/event tracer, or ``None`` for no trace.
        metrics: metrics registry, or ``None`` for no metrics.
        telemetry: continuous-telemetry collector, or ``None``.
        trace_requests: also trace one ``executor.issue`` event per
            issued request (needs a tracer).
    """

    __slots__ = ("tracer", "metrics", "telemetry", "trace_requests", "enabled")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[TelemetryCollector] = None,
        trace_requests: bool = False,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.telemetry = telemetry
        self.trace_requests = trace_requests
        self.enabled = not (tracer is None and metrics is None and telemetry is None)

    # -- metrics ----------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The registry's counter, or a shared no-op one without a registry."""
        if self.metrics is None:
            return _NULL_COUNTER
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if self.metrics is None:
            return _NULL_GAUGE
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        if self.metrics is None:
            return _NULL_HISTOGRAM
        return self.metrics.histogram(name, buckets=buckets, **labels)

    # -- trace ------------------------------------------------------------------
    def span(
        self, name: str, category: str = "", clock: Optional[Clock] = None, **attrs: Any
    ) -> Any:
        """An open span, or a shared no-op one without a tracer."""
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, category, clock, **attrs)

    def event(
        self, name: str, category: str = "", clock: Optional[Clock] = None, **attrs: Any
    ) -> None:
        if self.tracer is not None:
            self.tracer.event(name, category, clock, **attrs)

    # -- telemetry --------------------------------------------------------------
    def watch_switch(self, name: str, switch: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.watch_switch(name, switch)

    def watch_network(self, network: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.watch_network(network)

    def bind_simulator(self, sim: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.bind_simulator(sim)

    def observe_flow(self, source: str, key: str, t_ms: float) -> None:
        if self.telemetry is not None:
            self.telemetry.observe_flow(source, key, t_ms)

    def finish(self, now_ms: float) -> None:
        """End of run: flush the collector's flow cache and last tick."""
        if self.telemetry is not None:
            self.telemetry.finish(now_ms)

    # -- events feeding several sinks -------------------------------------------
    def request_issued(self, request: Any, started_ms: float, finished_ms: float) -> None:
        """One executed :class:`~repro.core.requests.SwitchRequest`: issue
        counter and latency histogram, the collector's install stream
        and, with ``trace_requests``, an ``executor.issue`` event."""
        switch, command = request.location, request.command.value
        self.counter("executor.requests_issued", command=command).inc()
        self.histogram("executor.issue_ms").observe(finished_ms - started_ms)
        if self.telemetry is not None:
            self.telemetry.observe_install(switch, command, started_ms, finished_ms)
        if self.trace_requests and self.tracer is not None:
            self.tracer.event(
                "executor.issue",
                category="executor",
                clock=lambda: finished_ms,
                request_id=request.request_id,
                switch=switch,
                command=command,
                issue_ms=finished_ms - started_ms,
            )

    def open_batch(
        self,
        scheduler: str,
        pattern: str,
        size: int,
        round_index: int,
        clock: Clock,
        estimate: Optional[Callable[[], Optional[float]]] = None,
        **attrs: Any,
    ) -> Batch:
        """Open a ``scheduler.batch`` span carrying the oracle's choice,
        the batch estimate (when ``estimate`` gives one) and ``attrs``."""
        span = self.span(
            "scheduler.batch",
            category="scheduler",
            clock=clock,
            pattern=pattern,
            batch_size=size,
            round=round_index,
        )
        if self.tracer is not None:
            estimated = estimate() if estimate is not None else None
            if estimated is not None:
                attrs["estimated_ms"] = estimated
            span.set(**attrs)
        return scheduler, pattern, clock(), span

    def close_batch(
        self, batch: Batch, now_ms: float, requested: int, issued: int, misses: int
    ) -> None:
        """Close a batch: batch, request and deadline-miss counters, the
        span's actual cost, and the collector's batch stream."""
        scheduler, pattern, start_ms, span = batch
        self.counter("scheduler.deadline_misses", scheduler=scheduler).inc(misses)
        self.counter("scheduler.batches", scheduler=scheduler).inc()
        self.counter("scheduler.requests", scheduler=scheduler).inc(requested)
        span.set(actual_ms=now_ms - start_ms, deadline_misses=misses)
        if self.telemetry is not None:
            self.telemetry.observe_batch(
                scheduler, pattern, start_ms, now_ms, issued, deadline_misses=misses
            )
        span.close()

    def fault_deferred(
        self, scheduler: str, request: Any, fault: Any, attempts: int, clock: Clock
    ) -> None:
        """A request deferred by a transient fault (a
        :class:`~repro.openflow.errors.TransientFaultError`): retry
        counter, the deferral and hold-time series, and a trace event."""
        switch, kind, retry_at_ms = request.location, type(fault).__name__, fault.retry_at_ms
        self.counter("scheduler.fault_retries", scheduler=scheduler).inc()
        if self.telemetry is not None:
            now = clock()
            hold = max(0.0, retry_at_ms - now) if retry_at_ms is not None else 0.0
            self.telemetry.emit(
                now, "scheduler.fault_deferrals", 1.0, source=scheduler, switch=switch, fault=kind
            )
            self.telemetry.emit(
                now, "scheduler.fault_hold_ms", hold, source=scheduler, switch=switch
            )
        self.event(
            "scheduler.fault_deferred",
            category="scheduler",
            clock=clock,
            request_id=request.request_id,
            switch=switch,
            fault=kind,
            attempts=attempts,
            retry_at_ms=retry_at_ms,
        )

    def fleet_stage_done(
        self, switch: str, stage: str, elapsed_ms: float, clock: Clock
    ) -> None:
        """A fleet member finished one probe stage: the probe RTT stream
        and a ``fleet.stage`` event."""
        if self.telemetry is not None:
            self.telemetry.observe_probe(switch, stage, clock(), elapsed_ms)
        self.event(
            "fleet.stage",
            category="fleet",
            clock=clock,
            switch=switch,
            stage=stage,
            elapsed_ms=elapsed_ms,
        )

    def fleet_member_done(
        self, switch: str, outcome: str, duration_ms: float, clock: Clock
    ) -> None:
        """A fleet member resolved (probe, cache or coalesced): the
        ``fleet.member_ms`` series and a ``fleet.member_finish`` event."""
        if self.telemetry is not None:
            self.telemetry.emit(
                clock(), "fleet.member_ms", duration_ms, source=switch, outcome=outcome
            )
        self.event(
            "fleet.member_finish",
            category="fleet",
            clock=clock,
            switch=switch,
            source=outcome,
            duration_ms=duration_ms,
        )


#: The handle with no sink attached; every component defaults to it.
NULL_INSTRUMENTS = Instruments()
