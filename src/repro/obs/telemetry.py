"""Continuous flow telemetry on the simulated clock.

Everything else in :mod:`repro.obs` is one-shot: a trace and a metrics
snapshot per batch run.  This module is the *standing* stream: a
:class:`TelemetryCollector` samples per-switch, per-port, and per-flow
counters (packets, flow-mod rates, TCAM occupancy from
:mod:`repro.tables`, install latency from scheduler batch spans) on a
configurable virtual-time cadence, in the style of NetFlow-for-OpenFlow
and sFlow network monitors.

Design rules, shared with the tracer and the metrics registry:

* **Deterministic.**  Every timestamp comes from a virtual clock; the
  sampling cadence is arithmetic on those timestamps (ticks at exact
  multiples of ``interval_ms``), so two same-seed runs produce
  byte-identical telemetry JSONL streams.
* **Observation only.**  The collector *reads* attached components --
  switch table stacks, network flows, executor clocks -- and its push
  hooks (`observe_install`, `observe_batch`, ...) record into private
  buffers.  Nothing it does touches a clock, an RNG, a DAG, or a score
  database, and :func:`repro.perf.harness.verify_noop` proves
  schedules, op counts, and TangoDB contents are byte-identical with a
  collector attached versus detached.
* **One seam.**  Components reach the collector only through
  :class:`repro.obs.Instruments`; without one attached, telemetry costs
  the handle's single ``enabled`` check on the hot paths.

Flow-cache sampling follows NetFlow-for-OpenFlow semantics: per-flow
records accumulate packets/updates and are exported when the *active*
timeout elapses (long-lived flows emit periodic records) or when the
*inactive* timeout expires (idle flows are evicted and exported), with
an optional deterministic 1-in-N sampling rate on updates.

Usage::

    collector = TelemetryCollector(interval_ms=5.0)
    # Network.executor also starts the collector watching the network.
    executor = network.executor(instruments=Instruments(telemetry=collector))
    BasicTangoScheduler(executor).schedule(dag)  # inherits the handle
    collector.finish(executor.now_ms())
    write_jsonl(collector.samples, "run.telemetry.jsonl")
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs.export import PathOrFile, read_records
from repro.obs.metrics import _labelset


@dataclass(frozen=True)
class TelemetrySample:
    """One telemetry observation at a point in virtual time.

    ``series`` names the measured quantity (``"switch.occupancy"``,
    ``"executor.install_ms"``, ...), ``source`` the component it was
    measured on (a switch name, a scheduler class, ...), and ``labels``
    carries any further dimensions (port, command, layer).
    """

    t_ms: float
    series: str
    source: str
    value: float
    labels: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_ms": self.t_ms,
            "series": self.series,
            "source": self.source,
            "value": self.value,
            "labels": {k: v for k, v in self.labels},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetrySample":
        return cls(
            t_ms=float(payload["t_ms"]),
            series=str(payload["series"]),
            source=str(payload.get("source", "")),
            value=float(payload["value"]),
            labels=tuple(
                sorted((str(k), str(v)) for k, v in (payload.get("labels") or {}).items())
            ),
        )


class SlidingWindow:
    """A time-bounded ring buffer of (t_ms, value) samples.

    Samples older than ``window_ms`` behind the newest observation (or
    an explicit ``now_ms`` passed to the aggregate readers) are evicted
    lazily.  All aggregates are pure functions of the retained samples,
    so they are deterministic for a deterministic input stream.
    """

    __slots__ = ("window_ms", "capacity", "_samples")

    def __init__(self, window_ms: float, capacity: int = 4096) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.window_ms = float(window_ms)
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)

    def observe(self, t_ms: float, value: float) -> None:
        self._samples.append((t_ms, value))
        self._trim(t_ms)

    def _trim(self, now_ms: float) -> None:
        floor = now_ms - self.window_ms
        samples = self._samples
        while samples and samples[0][0] < floor:
            samples.popleft()

    # -- aggregates -------------------------------------------------------------
    def count(self, now_ms: Optional[float] = None) -> int:
        if now_ms is not None:
            self._trim(now_ms)
        return len(self._samples)

    def values(self, now_ms: Optional[float] = None) -> List[float]:
        if now_ms is not None:
            self._trim(now_ms)
        return [value for _, value in self._samples]

    def mean(self, now_ms: Optional[float] = None) -> Optional[float]:
        values = self.values(now_ms)
        return sum(values) / len(values) if values else None

    def percentile(self, p: float, now_ms: Optional[float] = None) -> Optional[float]:
        """Nearest-rank percentile (p in [0, 100]) of retained values."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        values = sorted(self.values(now_ms))
        if not values:
            return None
        rank = max(0, min(len(values) - 1, int((p / 100.0) * len(values) + 0.5) - 1))
        return values[rank]

    def violation_fraction(
        self, threshold: float, now_ms: Optional[float] = None
    ) -> Optional[float]:
        """Fraction of retained values strictly above ``threshold``."""
        values = self.values(now_ms)
        if not values:
            return None
        return sum(1 for value in values if value > threshold) / len(values)

    def __len__(self) -> int:
        return len(self._samples)


# -- flow-cache sampling (NetFlow-for-OpenFlow semantics) ------------------------
@dataclass(frozen=True)
class FlowCacheConfig:
    """Flow-cache sampling knobs.

    Args:
        active_timeout_ms: a flow continuously updated for this long is
            exported (and its counters reset) -- long-lived flows emit
            periodic records instead of one giant one.
        inactive_timeout_ms: a flow idle for this long is expired and
            exported.
        sampling_rate: deterministic 1-in-N update sampling; every Nth
            update (per collector, in arrival order) lands in the cache.
            1 records every update.
    """

    active_timeout_ms: float = 1000.0
    inactive_timeout_ms: float = 250.0
    sampling_rate: int = 1

    def __post_init__(self) -> None:
        if self.active_timeout_ms <= 0 or self.inactive_timeout_ms <= 0:
            raise ValueError("flow-cache timeouts must be positive")
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")


@dataclass
class FlowCacheEntry:
    """Accumulated counters for one tracked flow."""

    key: str
    source: str
    first_ms: float
    last_ms: float
    packets: int = 0
    updates: int = 0


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow record (the NetFlow analogue)."""

    key: str
    source: str
    start_ms: float
    end_ms: float
    packets: int
    updates: int
    reason: str  # "active" | "inactive" | "flush"


class FlowCache:
    """Deterministic flow cache with active/inactive timeout export."""

    def __init__(self, config: Optional[FlowCacheConfig] = None) -> None:
        self.config = config if config is not None else FlowCacheConfig()
        self._entries: Dict[Tuple[str, str], FlowCacheEntry] = {}
        self._seen = 0
        self.sampled_out = 0
        self.exported: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def record(
        self, source: str, key: str, t_ms: float, packets: int = 1
    ) -> Optional[FlowRecord]:
        """Account one flow update; returns an export if a timeout fired."""
        self._seen += 1
        if self.config.sampling_rate > 1 and (
            self._seen % self.config.sampling_rate
        ) != 0:
            self.sampled_out += 1
            return None
        cache_key = (source, key)
        entry = self._entries.get(cache_key)
        if entry is None:
            entry = self._entries[cache_key] = FlowCacheEntry(
                key=key, source=source, first_ms=t_ms, last_ms=t_ms
            )
        entry.packets += packets
        entry.updates += 1
        entry.last_ms = t_ms
        if t_ms - entry.first_ms >= self.config.active_timeout_ms:
            return self._export(cache_key, t_ms, "active")
        return None

    def _export(
        self, cache_key: Tuple[str, str], t_ms: float, reason: str
    ) -> FlowRecord:
        entry = self._entries.pop(cache_key)
        self.exported += 1
        return FlowRecord(
            key=entry.key,
            source=entry.source,
            start_ms=entry.first_ms,
            end_ms=t_ms,
            packets=entry.packets,
            updates=entry.updates,
            reason=reason,
        )

    def expire(self, now_ms: float) -> List[FlowRecord]:
        """Export every flow idle past the inactive timeout."""
        floor = now_ms - self.config.inactive_timeout_ms
        stale = sorted(
            cache_key
            for cache_key, entry in self._entries.items()
            if entry.last_ms < floor
        )
        return [self._export(cache_key, now_ms, "inactive") for cache_key in stale]

    def flush(self, now_ms: float) -> List[FlowRecord]:
        """Export everything still resident (end of run)."""
        keys = sorted(self._entries)
        return [self._export(cache_key, now_ms, "flush") for cache_key in keys]


# -- the collector ----------------------------------------------------------------
#: Default ring-buffer capacity for retained samples.
DEFAULT_SAMPLE_CAPACITY = 262144


class TelemetryCollector:
    """Samples attached components on a virtual-time cadence.

    The collector has two input paths:

    * **Pull**: :meth:`watch_switch` / :meth:`watch_network` register
      read-only probes that run at every cadence tick
      (:meth:`sample`), emitting occupancy, flow-mod, shift, packet,
      and per-port flow-count series.
    * **Push**: instrumented components call :meth:`observe_install`,
      :meth:`observe_batch`, :meth:`observe_probe`, and
      :meth:`observe_flow` as work happens; pushes also advance the
      cadence (ticks fire for every elapsed ``interval_ms`` boundary),
      so scheduler runs that never touch a :class:`~repro.sim.events.Simulator`
      still sample on schedule.

    Args:
        interval_ms: cadence between samples on the virtual clock.
        flow_cache: NetFlow-style flow-cache sampling configuration.
        capacity: retained-sample ring buffer size (oldest drop first).
    """

    def __init__(
        self,
        interval_ms: float = 10.0,
        flow_cache: Optional[FlowCacheConfig] = None,
        capacity: int = DEFAULT_SAMPLE_CAPACITY,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.interval_ms = float(interval_ms)
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)
        self.dropped = 0
        self._probes: List[Tuple[str, Callable[[float], List[TelemetrySample]]]] = []
        self._series: Set[str] = set()
        self._policies: List[Any] = []
        self.flow_cache = FlowCache(flow_cache)
        self._next_tick_ms: Optional[float] = None
        self.ticks = 0

    # -- recording --------------------------------------------------------------
    @property
    def samples(self) -> List[TelemetrySample]:
        """Retained samples in emission order (bounded by capacity)."""
        return list(self._samples)

    def series_names(self) -> List[str]:
        """Sorted distinct series names emitted so far."""
        return sorted(self._series)

    def emit(
        self,
        t_ms: float,
        series: str,
        value: float,
        source: str = "",
        **labels: Any,
    ) -> TelemetrySample:
        """Record one sample and notify policies."""
        sample = TelemetrySample(
            t_ms=float(t_ms),
            series=series,
            source=source,
            value=float(value),
            labels=_labelset(labels),
        )
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append(sample)
        self._series.add(series)
        for policy in self._policies:
            policy.ingest(sample)
        return sample

    # -- policies ---------------------------------------------------------------
    def add_policy(self, policy: Any) -> Any:
        """Attach an alerting policy (``ingest``/``evaluate`` duck type).

        Policies see every sample as it is emitted and are evaluated at
        each cadence tick; their alerts carry the tick's deterministic
        virtual timestamp.
        """
        self._policies.append(policy)
        return policy

    @property
    def alerts(self) -> List[Any]:
        """All alerts raised by attached policies, in raise order."""
        merged: List[Any] = []
        for policy in self._policies:
            merged.extend(getattr(policy, "alerts", ()))
        merged.sort(key=lambda alert: (alert.t_ms, alert.name))
        return merged

    # -- pull probes -------------------------------------------------------------
    def watch(
        self, name: str, probe: Callable[[float], List[TelemetrySample]]
    ) -> None:
        """Register a raw pull probe run at every cadence tick."""
        self._probes.append((name, probe))

    def watch_switch(self, name: str, switch: Any) -> None:
        """Sample a simulated switch's tables and operation counters.

        Emits per tick: total occupancy, per-layer occupancy (and the
        occupancy *ratio* for bounded layers), cumulative flow-mod and
        shift counters, and per-layer packet counts.  All reads are
        pure; the switch is never mutated.
        """

        def probe(t_ms: float) -> List[TelemetrySample]:
            emitted: List[TelemetrySample] = []
            tables = switch.tables
            stats = switch.stats
            emitted.append(
                self.emit(t_ms, "switch.occupancy", len(tables), source=name)
            )
            snapshot = tables.occupancy_snapshot()
            for layer in snapshot["layers"]:
                emitted.append(
                    self.emit(
                        t_ms,
                        "switch.layer_occupancy",
                        layer["entries"],
                        source=name,
                        layer=layer["name"],
                    )
                )
                if layer["ratio"] is not None:
                    emitted.append(
                        self.emit(
                            t_ms,
                            "switch.occupancy_ratio",
                            layer["ratio"],
                            source=name,
                            layer=layer["name"],
                        )
                    )
            emitted.append(
                self.emit(
                    t_ms,
                    "switch.flow_mods",
                    stats.adds + stats.mods + stats.dels,
                    source=name,
                )
            )
            emitted.append(
                self.emit(t_ms, "switch.shifts", stats.total_shifts, source=name)
            )
            emitted.append(
                self.emit(
                    t_ms,
                    "switch.packets",
                    sum(stats.packets_by_layer) + stats.packets_to_controller,
                    source=name,
                )
            )
            return emitted

        self.watch(f"switch:{name}", probe)

    def watch_network(self, network: Any) -> None:
        """Watch every switch in an emulated network, plus per-port flows.

        The per-port series counts tracked flows whose path crosses each
        (switch, port) -- the standing per-port utilisation signal the
        TE re-optimization loop will consume.
        """
        for name in sorted(network.switches):
            self.watch_switch(name, network.switches[name])

        def port_probe(t_ms: float) -> List[TelemetrySample]:
            emitted: List[TelemetrySample] = []
            port_flows: Dict[Tuple[str, int], int] = {}
            for flow_id in sorted(network.flows):
                flow = network.flows[flow_id]
                path = flow.path
                for index, switch in enumerate(path):
                    if index == len(path) - 1:
                        port = network.LOCAL_PORT
                    else:
                        port = network.port_to(switch, path[index + 1])
                    port_flows[(switch, port)] = port_flows.get((switch, port), 0) + 1
            for (switch, port), count in sorted(port_flows.items()):
                emitted.append(
                    self.emit(
                        t_ms, "port.flows", count, source=switch, port=str(port)
                    )
                )
            return emitted

        self.watch("network:ports", port_probe)

    # -- push hooks (instrumented components) -------------------------------------
    def observe_install(
        self, switch: str, command: str, started_ms: float, finished_ms: float
    ) -> None:
        """One executed flow-mod: install latency + per-switch op counts."""
        self.emit(
            finished_ms,
            "executor.install_ms",
            finished_ms - started_ms,
            source=switch,
            command=command,
        )
        record = self.flow_cache.record(switch, command, finished_ms)
        if record is not None:
            self._emit_flow_record(record)
        self._tick_to(finished_ms)

    def observe_batch(
        self,
        scheduler: str,
        pattern: str,
        started_ms: float,
        finished_ms: float,
        size: int,
        deadline_misses: int = 0,
    ) -> None:
        """One scheduler batch span."""
        self.emit(
            finished_ms,
            "scheduler.batch_ms",
            finished_ms - started_ms,
            source=scheduler,
            pattern=pattern,
        )
        self.emit(finished_ms, "scheduler.batch_size", size, source=scheduler)
        if deadline_misses:
            self.emit(
                finished_ms,
                "scheduler.deadline_misses",
                deadline_misses,
                source=scheduler,
            )
        self._tick_to(finished_ms)

    def observe_probe(self, switch: str, op: str, t_ms: float, rtt_ms: float) -> None:
        """One probe RTT."""
        self.emit(t_ms, "probe.rtt_ms", rtt_ms, source=switch, op=op)
        self._tick_to(t_ms)

    def observe_flow(
        self, source: str, key: str, t_ms: float, packets: int = 1
    ) -> None:
        """One per-flow update (packets forwarded, rule hit, ...)."""
        record = self.flow_cache.record(source, key, t_ms, packets=packets)
        if record is not None:
            self._emit_flow_record(record)
        self._tick_to(t_ms)

    def _emit_flow_record(self, record: FlowRecord) -> None:
        self.emit(
            record.end_ms,
            "flow.export",
            record.packets,
            source=record.source,
            key=record.key,
            reason=record.reason,
            updates=str(record.updates),
        )

    # -- cadence -----------------------------------------------------------------
    def _tick_to(self, now_ms: float) -> None:
        """Fire every elapsed cadence tick up to ``now_ms``."""
        if self._next_tick_ms is None:
            base = (now_ms // self.interval_ms) * self.interval_ms
            self._next_tick_ms = base + self.interval_ms
            self.sample(base)
            return
        while self._next_tick_ms <= now_ms:
            tick = self._next_tick_ms
            self._next_tick_ms = tick + self.interval_ms
            self.sample(tick)

    def sample(self, now_ms: float) -> int:
        """Take one cadence sample: run pull probes, expire the flow
        cache, and evaluate attached policies.  Returns the number of
        samples emitted."""
        before = len(self._samples) + self.dropped
        self.ticks += 1
        for _, probe in self._probes:
            probe(now_ms)
        for record in self.flow_cache.expire(now_ms):
            self._emit_flow_record(record)
        for policy in self._policies:
            policy.evaluate(now_ms)
        return len(self._samples) + self.dropped - before

    def finish(self, now_ms: float) -> None:
        """End-of-run: flush the flow cache and run one final tick."""
        for record in self.flow_cache.flush(now_ms):
            self._emit_flow_record(record)
        self.sample(now_ms)

    def bind_simulator(self, sim: Any) -> None:
        """Sample on ``interval_ms`` cadence while ``sim`` has work queued.

        The sampler reschedules itself only while other events remain,
        so the queue still drains.  Sampling actions are pure reads and
        never touch the simulator clock or any RNG, so attaching a
        collector leaves event outcomes byte-identical (relative order
        of the workload's own events is preserved -- sequence numbers
        stay monotone in push order).
        """

        def tick() -> None:
            # Route through the shared cadence so a boundary served by a
            # push (observe_*) between wake-ups is not sampled twice.
            self._tick_to(sim.clock.now_ms)
            if len(sim.queue) > 0:
                sim.schedule(self.interval_ms, tick)

        sim.schedule(self.interval_ms, tick)

    # -- reporting ----------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Deterministic roll-up for bench trajectories and reports."""
        per_series: Dict[str, int] = {}
        for sample in self._samples:
            per_series[sample.series] = per_series.get(sample.series, 0) + 1
        return {
            "samples": len(self._samples),
            "dropped": self.dropped,
            "ticks": self.ticks,
            "series": {k: per_series[k] for k in sorted(per_series)},
            "flow_cache": {
                "resident": len(self.flow_cache),
                "exported": self.flow_cache.exported,
                "sampled_out": self.flow_cache.sampled_out,
            },
            "alerts": len(self.alerts),
        }


# -- JSONL export -------------------------------------------------------------------
def read_telemetry_jsonl(source: PathOrFile) -> List[TelemetrySample]:
    """Load a telemetry JSONL stream back into samples; a malformed line
    raises :class:`ValueError` naming ``FILE:LINE``."""
    return read_records(source, TelemetrySample.from_dict)


def summarize_telemetry(samples: Sequence[TelemetrySample]) -> Dict[str, Any]:
    """Condense a telemetry stream into per-series statistics.

    The payload behind ``tango-report telemetry`` and the markdown
    report's flow-telemetry section: per series -- sample count, distinct
    sources, min/mean/max/last value, and the time extent.
    """
    per_series: Dict[str, Dict[str, Any]] = {}
    for sample in samples:
        stats = per_series.get(sample.series)
        if stats is None:
            stats = per_series[sample.series] = {
                "count": 0,
                "sources": set(),
                "min": sample.value,
                "max": sample.value,
                "sum": 0.0,
                "first_ms": sample.t_ms,
                "last_ms": sample.t_ms,
                "last": sample.value,
            }
        stats["count"] += 1
        stats["sources"].add(sample.source)
        stats["min"] = min(stats["min"], sample.value)
        stats["max"] = max(stats["max"], sample.value)
        stats["sum"] += sample.value
        stats["last_ms"] = max(stats["last_ms"], sample.t_ms)
        stats["last"] = sample.value
    series_out: Dict[str, Any] = {}
    for name in sorted(per_series):
        stats = per_series[name]
        series_out[name] = {
            "count": stats["count"],
            "sources": len(stats["sources"]),
            "min": stats["min"],
            "mean": stats["sum"] / stats["count"],
            "max": stats["max"],
            "last": stats["last"],
            "first_ms": stats["first_ms"],
            "last_ms": stats["last_ms"],
        }
    return {
        "samples": len(samples),
        "series": series_out,
        "span_ms": (
            max(s.t_ms for s in samples) - min(s.t_ms for s in samples)
            if samples
            else 0.0
        ),
    }


def timeseries(
    samples: Sequence[TelemetrySample],
    series: str,
    source: Optional[str] = None,
) -> List[Tuple[float, float]]:
    """Chronological (t_ms, value) points for one series.

    Samples are emitted in nondecreasing virtual-time order per source,
    but interleaved sources may arrive out of order -- points are
    returned sorted by (t_ms, value) for a stable plot.
    """
    points: List[Tuple[float, float]] = []
    for sample in samples:
        if sample.series != series:
            continue
        if source is not None and sample.source != source:
            continue
        insort(points, (sample.t_ms, sample.value))
    return points
