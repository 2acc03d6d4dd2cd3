"""The ``tango-report`` tool: every run artifact, rendered as markdown.

One subcommand per artifact, each printing the markdown section the
benchmark report uses for that payload::

    pytest benchmarks/ --benchmark-only --benchmark-json=run.json
    tango-report bench run.json > report.md        # whole benchmark report
    tango-report trace run.jsonl                   # span/pattern rollup
    tango-report chrome run.jsonl -o run.chrome.json
    tango-report telemetry run.telemetry.jsonl     # per-series stats
    tango-report timeseries run.telemetry.jsonl executor.install_ms
    tango-report alerts run.alerts.jsonl

``telemetry``, ``timeseries`` and ``alerts`` take ``--json`` for the
machine-readable payload.  An unreadable input prints one
``error: FILE:LINE: ...`` line and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import (
    read_alerts_jsonl,
    read_jsonl,
    read_telemetry_jsonl,
    summarize_events,
    summarize_telemetry,
    timeseries,
    write_chrome_trace,
)


def _format_value(value: Any, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, inner in value.items():
            if isinstance(inner, (dict, list)):
                lines.append(f"{pad}- **{key}**:")
                lines.extend(_format_value(inner, indent + 1))
            else:
                lines.append(f"{pad}- **{key}**: {inner}")
        return lines
    if isinstance(value, list):
        return [f"{pad}- {item}" for item in value]
    return [f"{pad}- {value}"]


def render_diagnostics(diagnostics: List[Any], heading: str = "### Diagnostics") -> List[str]:
    """Markdown lines for a list of static-analysis diagnostics.

    Accepts :class:`~repro.analysis.Diagnostic` objects or their
    ``to_dict()`` payloads (the form benchmarks store in
    ``extra_info["diagnostics"]``).
    """
    lines = [heading, ""]
    for item in diagnostics:
        payload = item.to_dict() if hasattr(item, "to_dict") else dict(item)
        location = f" `{payload['location']}`" if payload.get("location") else ""
        hint = f" — {payload['hint']}" if payload.get("hint") else ""
        lines.append(
            f"- **{payload.get('code', '?')}** "
            f"({payload.get('severity', '?')}){location}: "
            f"{payload.get('message', '')}{hint}"
        )
    lines.append("")
    return lines


def render_telemetry(summary: Dict[str, Any], heading: str = "### Telemetry") -> List[str]:
    """Markdown lines for a trace summary.

    Accepts the payload produced by
    :func:`repro.obs.export.summarize_events` (the form benchmarks store
    in ``extra_info["telemetry"]``).
    """
    lines = [heading, ""]
    lines.append(f"- events: {summary.get('events', 0)}")
    spans = summary.get("spans") or {}
    for key in sorted(spans):
        stats = spans[key]
        lines.append(
            f"- span `{key}`: x{stats.get('count', 0)}, "
            f"total {stats.get('total_ms', 0.0):.2f} ms, "
            f"max {stats.get('max_ms', 0.0):.2f} ms"
        )
    instants = summary.get("instants") or {}
    for key in sorted(instants):
        lines.append(f"- event `{key}`: x{instants[key]}")
    patterns = summary.get("patterns") or {}
    if patterns:
        chosen = ", ".join(f"{name} x{count}" for name, count in sorted(patterns.items()))
        lines.append(f"- pattern choices: {chosen}")
    lines.append("")
    return lines


def render_flow_telemetry(
    summary: Dict[str, Any], heading: str = "### Flow telemetry"
) -> List[str]:
    """Markdown lines for a continuous-telemetry summary.

    Accepts the payload produced by
    :func:`repro.obs.telemetry.summarize_telemetry` (the form
    benchmarks and the CLI store in ``extra_info["flow_telemetry"]``),
    optionally carrying an ``alerts`` list of
    :meth:`~repro.obs.slo.TelemetryAlert.to_dict` payloads.
    """
    lines = [heading, ""]
    lines.append(
        f"- samples: {summary.get('samples', 0)} over "
        f"{summary.get('span_ms', 0.0):.2f} ms of virtual time"
    )
    series = summary.get("series") or {}
    for key in sorted(series):
        stats = series[key]
        lines.append(
            f"- series `{key}`: x{stats.get('count', 0)} "
            f"({stats.get('sources', 0)} sources), "
            f"min {stats.get('min', 0.0):.3f}, "
            f"mean {stats.get('mean', 0.0):.3f}, "
            f"max {stats.get('max', 0.0):.3f}, "
            f"last {stats.get('last', 0.0):.3f}"
        )
    alerts = summary.get("alerts") or ()
    if alerts:
        lines.extend(_alert_lines(alerts))
    lines.append("")
    return lines


def _alert_lines(alerts: Sequence[Dict[str, Any]]) -> List[str]:
    """A count line, then one nested line per alert payload."""
    lines = [f"- alerts: {len(alerts)}"]
    for payload in alerts:
        source = f"[{payload['source']}]" if payload.get("source") else ""
        lines.append(
            f"  - **{payload.get('name', '?')}** "
            f"({payload.get('kind', '?')}, {payload.get('severity', '?')}) "
            f"at t={payload.get('t_ms', 0.0):.2f} ms on "
            f"`{payload.get('series', '?')}`{source}: "
            f"value {payload.get('value', 0.0):.3f} vs "
            f"threshold {payload.get('threshold', 0.0):.3f}"
        )
    return lines


def render_serve(
    summary: Dict[str, Any], heading: str = "### Sustained serving"
) -> List[str]:
    """Markdown lines for a serving-run summary.

    Accepts the payload produced by
    :meth:`repro.serve.loop.ServeResult.to_dict` (the form
    ``tango-serve --report`` and the ``serve_churn`` bench store in
    ``extra_info["serve"]``).
    """
    lines = [heading, ""]
    lines.append(
        f"- arrivals: {summary.get('arrivals', 0)} over "
        f"{summary.get('duration_ms', 0.0):.1f} ms of virtual time "
        f"({summary.get('requests_per_sec', 0.0):.1f} req/s sustained)"
    )
    p50 = summary.get("install_p50_ms")
    p99 = summary.get("install_p99_ms")
    if p50 is not None or p99 is not None:
        lines.append(f"- install latency: p50 {p50} ms, p99 {p99} ms")
    cache = summary.get("cache") or {}
    if cache:
        lines.append(
            f"- cache: {cache.get('hits', 0)}/{cache.get('lookups', 0)} hits "
            f"({100.0 * cache.get('hit_rate', 0.0):.1f}%), "
            f"{cache.get('wildcard_hits', 0)} via wildcards, "
            f"{cache.get('punts', 0)} punts"
        )
        lines.append(
            f"- churn: {cache.get('installs', 0)} installs, "
            f"{cache.get('evictions', 0)} evictions, "
            f"{cache.get('expirations', 0)} expirations, "
            f"{cache.get('aggregations', 0)} aggregations "
            f"({cache.get('aggregated_rules', 0)} rules folded)"
        )
    occupancy = summary.get("occupancy") or {}
    layers = occupancy.get("layers") or ()
    if layers:
        rendered = ", ".join(
            f"`{layer.get('name', '?')}` {layer.get('entries', 0)}"
            + (
                f" ({100.0 * layer['ratio']:.0f}%)"
                if layer.get("ratio") is not None
                else ""
            )
            for layer in layers
        )
        lines.append(
            f"- final occupancy: {occupancy.get('total', 0)} rules — {rendered}"
        )
    lines.append("")
    return lines


def render_report(data: Dict[str, Any]) -> str:
    """Markdown report from a pytest-benchmark JSON payload."""
    lines = ["# Tango reproduction — benchmark report", ""]
    machine = data.get("machine_info", {})
    if machine:
        lines.append(
            f"_Host: {machine.get('node', '?')} / "
            f"Python {machine.get('python_version', '?')}_"
        )
        lines.append("")

    benches = sorted(data.get("benchmarks", []), key=lambda b: b.get("name", ""))
    for bench in benches:
        name = bench.get("name", "?")
        stats = bench.get("stats", {})
        lines.append(f"## {name}")
        lines.append("")
        mean = stats.get("mean")
        if mean is not None:
            lines.append(f"Harness wall time: {mean:.2f} s")
            lines.append("")
        extra = dict(bench.get("extra_info") or {})
        diagnostics = extra.pop("diagnostics", None)
        telemetry = extra.pop("telemetry", None)
        flow_telemetry = extra.pop("flow_telemetry", None)
        serve = extra.pop("serve", None)
        if extra:
            lines.append("Reported results:")
            for key, value in extra.items():
                if isinstance(value, (dict, list)):
                    lines.append(f"- **{key}**:")
                    lines.extend(_format_value(value, indent=1))
                else:
                    lines.append(f"- **{key}**: {value}")
        elif (
            diagnostics is None
            and telemetry is None
            and flow_telemetry is None
            and serve is None
        ):
            lines.append("(no extra_info recorded)")
        if diagnostics:
            lines.append("")
            lines.extend(render_diagnostics(diagnostics))
        if serve:
            lines.append("")
            lines.extend(render_serve(serve))
        if telemetry:
            lines.append("")
            lines.extend(render_telemetry(telemetry))
        if flow_telemetry:
            lines.append("")
            lines.extend(render_flow_telemetry(flow_telemetry))
        lines.append("")
    return "\n".join(lines)


def _print(lines: List[str], out) -> int:
    print("\n".join(lines), file=out)
    return 0


def _bench(args, out) -> int:
    with open(args.path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{args.path}:{error.lineno}: {error.msg}") from None
    if not isinstance(data, dict):
        raise ValueError(
            f"{args.path}:1: expected a JSON object, got {type(data).__name__}"
        )
    try:
        report = render_report(data)
    except (AttributeError, TypeError) as error:
        raise ValueError(f"{args.path}: not a pytest-benchmark report: {error}") from None
    print(report, file=out)
    return 0


def _trace(args, out) -> int:
    return _print(render_telemetry(summarize_events(read_jsonl(args.path))), out)


def _chrome(args, out) -> int:
    events = read_jsonl(args.path)
    output = args.output
    if output is None:
        trace = Path(args.path)
        output = str(trace.with_name(trace.name.removesuffix(".jsonl") + ".chrome.json"))
    count = write_chrome_trace(events, output)
    print(f"chrome trace written: {output} ({count} events)", file=out)
    return 0


def _telemetry(args, out) -> int:
    summary = summarize_telemetry(read_telemetry_jsonl(args.path))
    if args.json:
        print(json.dumps(summary, sort_keys=True), file=out)
        return 0
    return _print(render_flow_telemetry(summary), out)


def _timeseries(args, out) -> int:
    samples = read_telemetry_jsonl(args.path)
    points = timeseries(samples, args.series, source=args.source)
    if args.json:
        print(json.dumps(points), file=out)
        return 0
    if not points:
        names = sorted({sample.series for sample in samples})
        print(f"no samples for series {args.series!r}", file=out)
        print(f"available series: {', '.join(names)}", file=out)
        return 1
    for t_ms, value in points:
        print(f"{t_ms:12.3f} {value:.6g}", file=out)
    return 0


def _alerts(args, out) -> int:
    payloads = [alert.to_dict() for alert in read_alerts_jsonl(args.path)]
    if args.json:
        print(json.dumps(payloads, sort_keys=True), file=out)
        return 0
    return _print(["### Alerts", "", *_alert_lines(payloads), ""], out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tango-report",
        description="Render Tango run artifacts (benchmark JSON, traces, "
        "telemetry and alert streams) as markdown.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, path_help, json_flag=False):
        command_parser = sub.add_parser(name, help=help)
        command_parser.add_argument("path", help=path_help)
        if json_flag:
            command_parser.add_argument(
                "--json", action="store_true", help="machine-readable JSON output"
            )
        command_parser.set_defaults(run=run)
        return command_parser

    trace_file = "JSONL trace file (from --trace)"
    stream_file = "telemetry JSONL file (from --telemetry)"
    command(
        "bench",
        _bench,
        "markdown report from a pytest-benchmark run",
        "pytest --benchmark-json output",
    )
    command("trace", _trace, "span/event statistics for a trace", trace_file)
    chrome = command(
        "chrome",
        _chrome,
        "convert a trace to Chrome trace_event JSON (chrome://tracing, Perfetto)",
        trace_file,
    )
    chrome.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <trace>.chrome.json)",
    )
    command(
        "telemetry",
        _telemetry,
        "per-series statistics for a telemetry stream",
        stream_file,
        json_flag=True,
    )
    series = command(
        "timeseries",
        _timeseries,
        "chronological (t_ms, value) points for one series",
        stream_file,
        json_flag=True,
    )
    series.add_argument("series", help="series name, e.g. executor.install_ms")
    series.add_argument(
        "--source", default=None, help="restrict to one source (switch/component)"
    )
    command(
        "alerts",
        _alerts,
        "list SLO burn-rate alerts",
        "alerts JSONL file (from --telemetry)",
        json_flag=True,
    )
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, out)
    except OSError as error:
        print(f"error: {error.filename}: {error.strerror}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"error: {args.path}: not UTF-8 text", file=sys.stderr)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
