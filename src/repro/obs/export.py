"""Trace and metrics exporters.

Three output formats, all byte-deterministic for a fixed event stream
(keys sorted, compact separators, no wall-clock anywhere):

* **JSONL** -- one record per line; the archival format ``tango-report``
  reads back (:func:`write_jsonl` for every stream; :func:`read_jsonl`
  for traces, and :func:`read_records` under the telemetry and alert
  readers).
* **Chrome trace_event JSON** -- loads directly in ``chrome://tracing``
  or Perfetto; spans become complete (``"ph": "X"``) events, instant
  events ``"ph": "i"``, and each category gets its own named track
  (:func:`to_chrome_trace` / :func:`write_chrome_trace`).
* **Prometheus text** -- counters, gauges, and histograms from a
  :class:`~repro.obs.metrics.MetricsRegistry`
  (:func:`prometheus_text`).

:func:`summarize_events` condenses an event stream into the dict that
``tango-report trace`` renders.
"""

from __future__ import annotations

import json
from typing import IO, Any, Callable, Dict, Iterable, List, Sequence, TypeVar, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceEvent

PathOrFile = Union[str, "IO[str]"]
T = TypeVar("T")

_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}


def _dump(payload: Any) -> str:
    return json.dumps(payload, **_JSON_KWARGS)


# -- JSONL ---------------------------------------------------------------------
def jsonl_lines(records: Iterable[Any]) -> List[str]:
    """Byte-deterministic JSONL lines, one per record's ``to_dict()``."""
    return [_dump(record.to_dict()) for record in records]


def write_jsonl(records: Iterable[Any], target: PathOrFile) -> int:
    """Write one JSON object per line (each record's ``to_dict()``) --
    trace events, telemetry samples or alerts; returns the count."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_jsonl(records, handle)
    count = 0
    for record in records:
        target.write(_dump(record.to_dict()) + "\n")
        count += 1
    return count


def read_records(
    source: PathOrFile, from_dict: Callable[[Dict[str, Any]], T]
) -> List[T]:
    """Parse each nonblank line with ``from_dict``.

    A line that is not a JSON object, or that ``from_dict`` rejects,
    raises :class:`ValueError` naming it as ``FILE:LINE``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_records(handle, from_dict)
    name = getattr(source, "name", "<stream>")
    records = []
    for number, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            records.append(from_dict(payload))
        except KeyError as error:
            raise ValueError(f"{name}:{number}: missing field {error}") from None
        except (AttributeError, TypeError, ValueError) as error:
            raise ValueError(f"{name}:{number}: {error}") from None
    return records


def read_jsonl(source: PathOrFile) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` objects."""
    return read_records(source, TraceEvent.from_dict)


# -- Chrome trace_event --------------------------------------------------------
def to_chrome_trace(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """The ``chrome://tracing`` / Perfetto JSON object for ``events``.

    Timestamps convert from simulated milliseconds to the format's
    microseconds.  Every category gets its own track (``tid``) with a
    ``thread_name`` metadata record, so interleaved simulated timelines
    (probing vs. scheduling) render side by side.
    """
    categories = sorted({event.category for event in events})
    tids = {category: index for index, category in enumerate(categories)}
    trace_events: List[Dict[str, Any]] = []
    for category in categories:
        trace_events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tids[category],
                "name": "thread_name",
                "args": {"name": category or "trace"},
            }
        )
    for event in events:
        payload: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category or "trace",
            "pid": 0,
            "tid": tids[event.category],
            "ts": event.start_ms * 1000.0,
            "args": dict(event.attrs),
        }
        if event.is_span:
            payload["ph"] = "X"
            payload["dur"] = event.duration_ms * 1000.0
        else:
            payload["ph"] = "i"
            payload["s"] = "t"
        trace_events.append(payload)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TraceEvent], target: PathOrFile) -> int:
    """Write the Chrome trace JSON; returns the event count."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_chrome_trace(events, handle)
    target.write(_dump(to_chrome_trace(events)) + "\n")
    return len(events)


# -- Prometheus text -----------------------------------------------------------
def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_escape(value: str) -> str:
    # Exposition format: inside label values, backslash, double-quote,
    # and line feed must be escaped (in that order -- backslash first,
    # or the other escapes get double-escaped).
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{key}="{_prom_escape(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """A Prometheus exposition-format dump of the registry."""
    lines: List[str] = []
    typed: set = set()

    def _type_line(name: str, kind: str) -> None:
        # One TYPE line per metric family, however many label sets it has.
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.counters():
        name = _prom_name(counter.name)
        _type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(counter.labels)} {counter.value:g}")
    for gauge in registry.gauges():
        name = _prom_name(gauge.name)
        _type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(gauge.labels)} {gauge.value:g}")
    for histogram in registry.histograms():
        name = _prom_name(histogram.name)
        _type_line(name, "histogram")
        cumulative = 0
        for index, bound in enumerate(histogram.buckets):
            cumulative += histogram.counts[index]
            le_label = 'le="%g"' % bound
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(histogram.labels, le_label)} {cumulative}"
            )
        inf_label = 'le="+Inf"'
        lines.append(
            f"{name}_bucket"
            f"{_prom_labels(histogram.labels, inf_label)} {histogram.count}"
        )
        lines.append(f"{name}_sum{_prom_labels(histogram.labels)} {histogram.sum:g}")
        lines.append(f"{name}_count{_prom_labels(histogram.labels)} {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- summary -------------------------------------------------------------------
def summarize_events(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Condense a trace into per-(category, name) span/event statistics.

    The ``patterns`` entry counts the ``pattern`` attribute across all
    spans carrying one -- i.e. how often the ordering oracle chose each
    rewrite pattern in a scheduler trace.
    """
    spans: Dict[str, Dict[str, Any]] = {}
    instants: Dict[str, int] = {}
    patterns: Dict[str, int] = {}
    for event in events:
        key = f"{event.category}/{event.name}" if event.category else event.name
        if event.is_span:
            stats = spans.setdefault(
                key, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            stats["count"] += 1
            stats["total_ms"] += event.duration_ms
            stats["max_ms"] = max(stats["max_ms"], event.duration_ms)
        else:
            instants[key] = instants.get(key, 0) + 1
        pattern = event.attrs.get("pattern")
        if pattern is not None:
            patterns[str(pattern)] = patterns.get(str(pattern), 0) + 1
    return {
        "events": len(events),
        "spans": {k: spans[k] for k in sorted(spans)},
        "instants": {k: instants[k] for k in sorted(instants)},
        "patterns": {k: patterns[k] for k in sorted(patterns)},
    }
