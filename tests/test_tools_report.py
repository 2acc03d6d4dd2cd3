"""Tests for the ``tango-report`` renderers, ``bench`` and the shared
error handler."""

import io
import json

import pytest

from repro.tools.report import main, render_report


@pytest.fixture
def payload():
    return {
        "machine_info": {"node": "testhost", "python_version": "3.11"},
        "benchmarks": [
            {
                "name": "bench_fig10_testbed",
                "stats": {"mean": 1.234},
                "extra_info": {
                    "seconds": {"LF": {"Dionysus": 3.6, "Tango": 1.26}},
                    "gain": 0.65,
                },
            },
            {
                "name": "bench_table2_classbench",
                "stats": {"mean": 0.5},
                "extra_info": {"rows": [["Classbench1", 829, 64, 829]]},
            },
        ],
    }


def test_render_contains_bench_sections(payload):
    report = render_report(payload)
    assert "# Tango reproduction" in report
    assert "## bench_fig10_testbed" in report
    assert "## bench_table2_classbench" in report
    assert "testhost" in report


def test_render_includes_extra_info(payload):
    report = render_report(payload)
    assert "gain" in report
    assert "0.65" in report
    assert "Dionysus" in report


def test_render_handles_missing_extra_info():
    report = render_report({"benchmarks": [{"name": "x", "stats": {}}]})
    assert "(no extra_info recorded)" in report


def test_main_reads_file(tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    assert main(["bench", str(path)], out=out) == 0
    assert "bench_fig10_testbed" in out.getvalue()


def test_main_reports_unreadable_file(tmp_path):
    assert main(["bench", str(tmp_path / "missing.json")], out=io.StringIO()) == 1


def test_main_reports_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["bench", str(path)], out=io.StringIO()) == 1


def test_render_diagnostics_section():
    from repro.analysis import DiagnosticReport, Severity

    report = DiagnosticReport()
    report.add("TNG020", Severity.ERROR, "batch over capacity", location="s1",
               hint="shrink the batch")
    payload = {
        "benchmarks": [
            {
                "name": "bench_capacity_guard",
                "stats": {"mean": 0.5},
                "extra_info": {"diagnostics": report.to_dicts()},
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Diagnostics" in rendered
    assert "**TNG020** (error) `s1`: batch over capacity" in rendered
    assert "shrink the batch" in rendered


def test_render_diagnostics_accepts_diagnostic_objects():
    from repro.analysis import DiagnosticReport, Severity
    from repro.tools.report import render_diagnostics

    report = DiagnosticReport()
    report.add("TNG010", Severity.ERROR, "cycle")
    lines = render_diagnostics(list(report))
    assert any("TNG010" in line for line in lines)


def test_render_flow_telemetry_section():
    from repro.obs.slo import SloPolicy, SloTarget
    from repro.obs.telemetry import TelemetryCollector, summarize_telemetry

    collector = TelemetryCollector(interval_ms=10.0)
    collector.add_policy(
        SloPolicy(
            [SloTarget(name="lat", series="executor.install_ms", threshold=1.0)],
            min_samples=2,
        )
    )
    for t in range(0, 100, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 50.0)
    collector.finish(150.0)
    summary = summarize_telemetry(collector.samples)
    summary["alerts"] = [alert.to_dict() for alert in collector.alerts]
    payload = {
        "benchmarks": [
            {
                "name": "bench_flows",
                "stats": {"mean": 0.5},
                "extra_info": {"flow_telemetry": summary},
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Flow telemetry" in rendered
    assert "series `executor.install_ms`" in rendered
    assert "**lat** (burn_rate, page)" in rendered


def test_render_serve_section():
    from repro.tools.report import render_serve

    summary = {
        "arrivals": 5000,
        "duration_ms": 2500.0,
        "requests_per_sec": 2000.0,
        "install_p50_ms": 0.8,
        "install_p99_ms": 2.4,
        "cache": {
            "lookups": 5000,
            "hits": 3000,
            "hit_rate": 0.6,
            "wildcard_hits": 120,
            "punts": 400,
            "installs": 900,
            "evictions": 250,
            "expirations": 30,
            "aggregations": 12,
            "aggregated_rules": 70,
        },
        "occupancy": {
            "total": 96,
            "layers": [{"name": "tcam", "entries": 96, "ratio": 1.0}],
        },
    }
    lines = render_serve(summary)
    text = "\n".join(lines)
    assert lines[0] == "### Sustained serving"
    assert "5000 arrivals" not in text  # arrivals folded into the rate line
    assert "2000.0 req/s sustained" in text
    assert "p50 0.8 ms, p99 2.4 ms" in text
    assert "3000/5000 hits (60.0%)" in text
    assert "250 evictions" in text
    assert "12 aggregations (70 rules folded)" in text
    assert "96 rules" in text and "`tcam` 96 (100%)" in text


def test_render_report_includes_serve_extra_info():
    payload = {
        "benchmarks": [
            {
                "name": "bench_serve_churn",
                "stats": {"mean": 0.4},
                "extra_info": {
                    "serve": {
                        "arrivals": 100,
                        "duration_ms": 50.0,
                        "requests_per_sec": 2000.0,
                        "cache": {"lookups": 100, "hits": 40, "hit_rate": 0.4},
                    }
                },
            }
        ]
    }
    rendered = render_report(payload)
    assert "### Sustained serving" in rendered
    assert "2000.0 req/s sustained" in rendered


TRACE_LINE = '{"cat":"scheduler","id":1,"name":"batch","ts_ms":0.0}'
SAMPLE_LINE = '{"series":"executor.install_ms","source":"s1","t_ms":5.0,"value":1.5}'
ALERT_LINE = (
    '{"kind":"burn_rate","name":"lat","series":"executor.install_ms",'
    '"severity":"page","t_ms":10.0,"threshold":1.0,"value":2.0}'
)


@pytest.mark.parametrize(
    "argv, text, where",
    [
        (["bench"], "[1, 2]\n", "1: expected a JSON object, got list"),
        (["bench"], '{\n  "benchmarks": [\n}\n', "3: Expecting value"),
        (["bench"], '{"benchmarks": [1]}\n', " not a pytest-benchmark report"),
        (["trace"], b"\x89PNG\r\n\x1a\n\xd0", " not UTF-8 text"),
        (["trace"], ALERT_LINE + "\n", "1: missing field 'id'"),
        (["chrome"], TRACE_LINE + "\n\n[]\n", "3: expected a JSON object, got list"),
        (["telemetry"], TRACE_LINE + "\n", "1: missing field 't_ms'"),
        (["timeseries", "SERIES"], SAMPLE_LINE + "\n{oops\n", "2: Expecting property name"),
        (["alerts"], SAMPLE_LINE + "\n", "1: missing field 'name'"),
        (["alerts"], ALERT_LINE.replace('"value":2.0', '"value":"high"') + "\n", "1: could not"),
    ],
    ids=[
        "bench-array",
        "bench-json",
        "bench-shape",
        "trace-binary",
        "trace-kind",
        "chrome-array",
        "telemetry-kind",
        "timeseries-json",
        "alerts-kind",
        "alerts-value",
    ],
)
def test_unreadable_input_prints_one_error_line(tmp_path, capsys, argv, text, where):
    path = tmp_path / "input.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    command = [argv[0], str(path)] + argv[1:]
    assert main(command, out=io.StringIO()) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}:{where}"), line
