"""SLO burn-rate alerting over the telemetry stream.

Consumes :class:`~repro.obs.telemetry.TelemetryCollector` samples and
turns them into structured, deterministic :class:`TelemetryAlert`\\ s.
:class:`SloPolicy` implements multi-window burn-rate alerting in the SRE
style.  Each :class:`SloTarget` defines an objective (e.g. "p99 install
latency under 40 ms", "occupancy ratio under 0.9") with an error
*budget* -- the tolerated fraction of violating observations.  An alert
fires only when the violation rate, expressed as a multiple of the
budget (the *burn rate*), exceeds the threshold over **both** a short
and a long window: the long window proves the burn is sustained, the
short window proves it is still happening, so a burst that already
ended pages nobody.

Determinism: policies are evaluated only at collector cadence ticks, so
alert timestamps are exact multiples of the collector's ``interval_ms``
and two same-seed runs raise byte-identical alert streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import PathOrFile, read_records, write_jsonl
from repro.obs.telemetry import SlidingWindow, TelemetryCollector, TelemetrySample


@dataclass(frozen=True)
class TelemetryAlert:
    """One structured alert raised by a policy at a cadence tick."""

    t_ms: float
    name: str
    kind: str  # "burn_rate" (older streams may also hold "drift")
    series: str
    source: str
    severity: str  # "page" | "ticket"
    value: float
    threshold: float
    detail: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_ms": self.t_ms,
            "name": self.name,
            "kind": self.kind,
            "series": self.series,
            "source": self.source,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
            "detail": {k: v for k, v in self.detail},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TelemetryAlert":
        return cls(
            t_ms=float(payload["t_ms"]),
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            series=str(payload["series"]),
            source=str(payload.get("source", "")),
            severity=str(payload["severity"]),
            value=float(payload["value"]),
            threshold=float(payload["threshold"]),
            detail=tuple(
                sorted((str(k), str(v)) for k, v in (payload.get("detail") or {}).items())
            ),
        )


_AGGREGATES = ("p50", "p99", "mean", "max")


@dataclass(frozen=True)
class SloTarget:
    """One service-level objective over a telemetry series.

    Args:
        name: alert name, e.g. ``"install-latency-p99"``.
        series: telemetry series to watch (``"executor.install_ms"``).
        threshold: objective bound; an observation *violates* when the
            windowed ``aggregate`` exceeds it.
        budget: tolerated violation fraction (error budget).  Burn rate
            is ``violation_fraction / budget``.
        aggregate: which windowed statistic the alert reports as its
            current value ("p50", "p99", "mean", "max").
        per_source: aggregate windows per sample source (per switch)
            instead of pooling the series.
    """

    name: str
    series: str
    threshold: float
    budget: float = 0.05
    aggregate: str = "p99"
    per_source: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(f"aggregate must be one of {_AGGREGATES}")


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window burn-rate rule (short AND long must burn)."""

    short_ms: float
    long_ms: float
    burn_threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.short_ms <= 0 or self.long_ms <= 0:
            raise ValueError("burn windows must be positive")
        if self.short_ms > self.long_ms:
            raise ValueError("short window must not exceed the long window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")


#: Default two-tier burn-rate ladder (virtual milliseconds): a fast
#: page on an intense sustained burn, a slower ticket on a gentle one.
DEFAULT_BURN_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow(short_ms=50.0, long_ms=200.0, burn_threshold=4.0, severity="page"),
    BurnWindow(short_ms=200.0, long_ms=1000.0, burn_threshold=2.0, severity="ticket"),
)


class _TargetState:
    """Per-(target, source) windows and per-rule hysteresis latches."""

    __slots__ = ("windows", "firing")

    def __init__(self, target: SloTarget, rules: Sequence[BurnWindow]) -> None:
        self.windows: List[Tuple[SlidingWindow, SlidingWindow]] = [
            (SlidingWindow(rule.short_ms), SlidingWindow(rule.long_ms))
            for rule in rules
        ]
        self.firing: List[bool] = [False] * len(rules)


class SloPolicy:
    """Multi-window burn-rate alerting over telemetry samples.

    Attach to a collector with
    :meth:`~repro.obs.telemetry.TelemetryCollector.add_policy`; the
    collector feeds every sample through :meth:`ingest` and calls
    :meth:`evaluate` at each cadence tick.  An alert fires when a
    target's burn rate exceeds a rule's threshold on both the short and
    the long window, and re-arms only after the short-window burn drops
    back under the threshold (hysteresis -- one alert per sustained
    episode per rule).

    Args:
        targets: the objectives to watch.
        windows: burn-rate rules; default two-tier page/ticket ladder.
        min_samples: observations required in a window before it can
            fire (suppresses cold-start noise).
    """

    def __init__(
        self,
        targets: Sequence[SloTarget],
        windows: Sequence[BurnWindow] = DEFAULT_BURN_WINDOWS,
        min_samples: int = 5,
    ) -> None:
        if not targets:
            raise ValueError("need at least one SloTarget")
        names = [target.name for target in targets]
        if len(set(names)) != len(names):
            raise ValueError("target names must be unique")
        self.targets = tuple(targets)
        self.rules = tuple(windows)
        self.min_samples = min_samples
        self.alerts: List[TelemetryAlert] = []
        self._states: Dict[Tuple[str, str], _TargetState] = {}
        self._by_series: Dict[str, List[SloTarget]] = {}
        for target in self.targets:
            self._by_series.setdefault(target.series, []).append(target)

    def _state(self, target: SloTarget, source: str) -> _TargetState:
        key = (target.name, source if target.per_source else "")
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _TargetState(target, self.rules)
        return state

    # -- collector protocol -------------------------------------------------------
    def ingest(self, sample: TelemetrySample) -> None:
        """Feed one sample into every matching target's windows."""
        for target in self._by_series.get(sample.series, ()):
            state = self._state(target, sample.source)
            for short, long in state.windows:
                short.observe(sample.t_ms, sample.value)
                long.observe(sample.t_ms, sample.value)

    def evaluate(self, now_ms: float) -> List[TelemetryAlert]:
        """Check every (target, source, rule); returns alerts raised now."""
        raised: List[TelemetryAlert] = []
        for key in sorted(self._states):
            name, source = key
            target = next(t for t in self.targets if t.name == name)
            state = self._states[key]
            for index, rule in enumerate(self.rules):
                short, long = state.windows[index]
                short_frac = short.violation_fraction(target.threshold, now_ms)
                long_frac = long.violation_fraction(target.threshold, now_ms)
                if (
                    short_frac is None
                    or long_frac is None
                    or short.count() < self.min_samples
                    or long.count() < self.min_samples
                ):
                    state.firing[index] = False
                    continue
                short_burn = short_frac / target.budget
                long_burn = long_frac / target.budget
                burning = (
                    short_burn >= rule.burn_threshold
                    and long_burn >= rule.burn_threshold
                )
                if not burning:
                    state.firing[index] = False
                    continue
                if state.firing[index]:
                    continue  # still the same episode; don't re-page
                state.firing[index] = True
                value = self._aggregate(target, short)
                alert = TelemetryAlert(
                    t_ms=now_ms,
                    name=target.name,
                    kind="burn_rate",
                    series=target.series,
                    source=source,
                    severity=rule.severity,
                    value=value if value is not None else 0.0,
                    threshold=target.threshold,
                    detail=(
                        ("aggregate", target.aggregate),
                        ("long_burn", f"{long_burn:.4f}"),
                        ("long_ms", f"{rule.long_ms:g}"),
                        ("short_burn", f"{short_burn:.4f}"),
                        ("short_ms", f"{rule.short_ms:g}"),
                    ),
                )
                self.alerts.append(alert)
                raised.append(alert)
        return raised

    @staticmethod
    def _aggregate(target: SloTarget, window: SlidingWindow) -> Optional[float]:
        if target.aggregate == "p50":
            return window.percentile(50.0)
        if target.aggregate == "p99":
            return window.percentile(99.0)
        if target.aggregate == "max":
            values = window.values()
            return max(values) if values else None
        return window.mean()


def default_slo_targets(
    install_ms: float = 40.0, occupancy_ratio: float = 0.9
) -> Tuple[SloTarget, ...]:
    """The stock objectives :func:`default_collector` watches.

    Three targets: page on sustained p99 install-latency burn, page on
    a sustained fault-deferral burst (every deferral sample counts 1.0,
    so any run of deferred requests burns the whole budget), and ticket
    on occupancy headroom.  A fault-free, healthy run raises none of
    them; the seeded disconnect/chaos scenarios deterministically trip
    the deferral target.
    """
    return (
        SloTarget(
            name="install-latency-p99",
            series="executor.install_ms",
            threshold=install_ms,
            budget=0.05,
            aggregate="p99",
        ),
        SloTarget(
            name="fault-deferral-burn",
            series="scheduler.fault_deferrals",
            threshold=0.0,
            budget=0.05,
            aggregate="mean",
        ),
        SloTarget(
            name="occupancy-headroom",
            series="switch.occupancy_ratio",
            threshold=occupancy_ratio,
            budget=0.10,
            aggregate="max",
            per_source=True,
        ),
    )


def default_collector() -> TelemetryCollector:
    """The collector ``--telemetry`` attaches: a 5 ms cadence and an
    :class:`SloPolicy` over :func:`default_slo_targets`."""
    collector = TelemetryCollector(interval_ms=5.0)
    collector.add_policy(SloPolicy(default_slo_targets()))
    return collector


def write_streams(collector: TelemetryCollector, prefix: str) -> Tuple[str, str]:
    """Write ``PREFIX.telemetry.jsonl`` (the samples) and
    ``PREFIX.alerts.jsonl`` (the alerts); returns the two paths."""
    telemetry_path = f"{prefix}.telemetry.jsonl"
    alerts_path = f"{prefix}.alerts.jsonl"
    write_jsonl(collector.samples, telemetry_path)
    write_jsonl(collector.alerts, alerts_path)
    return telemetry_path, alerts_path


# -- alert import -------------------------------------------------------------------
def read_alerts_jsonl(source: PathOrFile) -> List[TelemetryAlert]:
    """Load an alert JSONL stream back into alerts; a malformed line
    raises :class:`ValueError` naming ``FILE:LINE``."""
    return read_records(source, TelemetryAlert.from_dict)
