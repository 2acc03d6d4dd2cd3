"""Tests for the ``tango-serve`` CLI."""

import io
import json

import pytest

from repro.serve.cli import main

_FAST = [
    "--arrivals",
    "1200",
    "--tenants",
    "8",
    "--destinations",
    "64",
    "--churn-interval",
    "150",
    "--capacity",
    "48",
    "--admission-threshold",
    "2",
    "--idle-timeout",
    "400",
]


def test_text_output_summarises_the_run():
    out = io.StringIO()
    assert main(_FAST + ["--seed", "5"], out=out) == 0
    text = out.getvalue()
    assert "1200 arrivals" in text
    assert "requests/sec" in text
    assert "install latency" in text
    assert "final occupancy" in text


def test_json_output_is_parseable_and_complete():
    out = io.StringIO()
    assert main(_FAST + ["--json"], out=out) == 0
    payload = json.loads(out.getvalue())
    serve = payload["serve"]
    assert serve["arrivals"] == 1200
    assert serve["cache"]["hits"] > 0
    assert serve["cache"]["punts"] > 0
    assert serve["occupancy"]["total"] <= 48
    assert serve["install_p99_ms"] is not None


def test_verify_determinism_passes():
    out = io.StringIO()
    assert main(_FAST + ["--verify-determinism"], out=out) == 0
    assert "determinism ok" in out.getvalue()


def test_sanitize_reports_zero_findings():
    out = io.StringIO()
    assert main(_FAST + ["--sanitize"], out=out) == 0
    assert "0 finding(s)" in out.getvalue()


def test_infer_runs_with_the_inferred_policy():
    out = io.StringIO()
    args = ["--profile", "switch1", "--arrivals", "800", "--tenants", "8",
            "--destinations", "64", "--churn-interval", "150", "--infer", "--json"]
    assert main(args, out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["serve"]["arrivals"] == 800


def test_telemetry_files_are_written(tmp_path):
    prefix = tmp_path / "serve"
    out = io.StringIO()
    assert main(_FAST + ["--telemetry", str(prefix)], out=out) == 0
    telemetry = tmp_path / "serve.telemetry.jsonl"
    alerts = tmp_path / "serve.alerts.jsonl"
    assert telemetry.exists() and alerts.exists()
    lines = telemetry.read_text().strip().splitlines()
    assert lines
    sample = json.loads(lines[0])
    assert "t_ms" in sample
    assert str(telemetry) in out.getvalue()


def test_report_file_is_written(tmp_path):
    report = tmp_path / "serve.md"
    out = io.StringIO()
    assert main(_FAST + ["--report", str(report)], out=out) == 0
    text = report.read_text()
    assert text.startswith("# Tango serving report")
    assert "## Sustained serving" in text


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tenants", "0", "need at least one tenant"),
        ("--destinations", "0", "destinations_per_tenant must be in [1, 4096]"),
        ("--admission-threshold", "0", "admission_threshold must be at least 1"),
        ("--idle-timeout", "-1", "idle_timeout_ms must be positive"),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, flag, value, message):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exit_info:
        main(_FAST + [flag, value], out=out)
    assert exit_info.value.code == 2
    assert out.getvalue() == ""  # rejected before any run
    error_lines = [
        line for line in capsys.readouterr().err.splitlines() if "error:" in line
    ]
    assert error_lines == [f"tango-serve: error: {message}"]
