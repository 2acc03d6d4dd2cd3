"""Tests for the ``tango-report telemetry``, ``timeseries`` and ``alerts``
subcommands."""

import hashlib
import io
import json

import pytest

from repro.obs.export import write_jsonl
from repro.obs.slo import SloPolicy, SloTarget
from repro.obs.telemetry import TelemetryCollector
from repro.tools.report import main

#: A ``drift`` alert as written by the drift feed that earlier versions
#: attached alongside the SLO policy; such files must still read.
DRIFT_LINE = (
    '{"detail":{"after":"0.00130378","before":"0","metric":"churn"},'
    '"kind":"drift","name":"drift-churn","series":"switch.occupancy_ratio",'
    '"severity":"ticket","source":"s3","t_ms":80.0,"threshold":0.5,'
    '"value":1.111111111111111}'
)


def _write_stream(tmp_path):
    collector = TelemetryCollector(interval_ms=10.0)
    for t in range(0, 60, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 2.0)
        collector.observe_probe("s2", "mod", float(t), 0.5)
    collector.finish(60.0)
    path = str(tmp_path / "run.telemetry.jsonl")
    write_jsonl(collector.samples, path)
    return path


def _write_alerts(tmp_path):
    policy = SloPolicy(
        [SloTarget(name="lat", series="executor.install_ms", threshold=1.0, budget=0.05)],
        min_samples=2,
    )
    collector = TelemetryCollector(interval_ms=10.0)
    collector.add_policy(policy)
    for t in range(0, 100, 5):
        collector.observe_install("s1", "add", float(t), float(t) + 50.0)
    collector.finish(150.0)
    path = str(tmp_path / "run.alerts.jsonl")
    write_jsonl(collector.alerts, path)
    return path, len(collector.alerts)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_summary_human_readable(tmp_path):
    code, text = _run(["telemetry", _write_stream(tmp_path)])
    assert code == 0
    assert text.startswith("### Flow telemetry\n")
    assert "- samples: " in text
    assert "series `executor.install_ms`: x12 (1 sources), min 2.000, mean 2.000" in text
    assert "series `probe.rtt_ms`" in text


def test_summary_json(tmp_path):
    code, text = _run(["telemetry", _write_stream(tmp_path), "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["samples"] > 0
    assert "executor.install_ms" in payload["series"]


#: sha256 of what ``tango-telemetry`` printed for each command on this
#: file's fixtures before it was folded into ``tango-report``; the
#: ``alerts`` pin is its ``--kind burn_rate --json`` output on the
#: fixture plus :data:`DRIFT_LINE`.
LEGACY_OUTPUTS = [
    (
        ("telemetry", "STREAM", "--json"),
        "f33456e96cae107ccab114d7c4f746d24d659917a818b596c16e9cc7e7a68819",
    ),
    (
        ("timeseries", "STREAM", "executor.install_ms"),
        "9a3ce6b349b5af82488e604dc41634f20d1f26861cd1fd21dcfc4671e64f9580",
    ),
    (
        ("timeseries", "STREAM", "executor.install_ms", "--json"),
        "ab0b083414b35c8265762d66124103fc8217a2cccfa974b1dae42d9f7d743d7c",
    ),
    (
        ("timeseries", "STREAM", "probe.rtt_ms", "--source", "s2", "--json"),
        "c36c08627c29c8ed7bd67ead494a97315cf348d134d42a1a0629192fc56d5b27",
    ),
    (
        ("alerts", "ALERTS", "--json"),
        "a83b8b73d915065ffeddc62a9f4b1d22ab18989939bbc70f78acdf528a09e161",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    LEGACY_OUTPUTS,
    ids=[" ".join(argv[:1] + argv[2:]) for argv, _ in LEGACY_OUTPUTS],
)
def test_output_matches_the_folded_tool_byte_for_byte(tmp_path, argv, digest):
    paths = {"STREAM": _write_stream(tmp_path), "ALERTS": _write_alerts(tmp_path)[0]}
    code, text = _run([paths.get(word, word) for word in argv])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_timeseries_points_and_source_filter(tmp_path):
    path = _write_stream(tmp_path)
    code, text = _run(["timeseries", path, "executor.install_ms", "--json"])
    assert code == 0
    points = json.loads(text)
    assert points and all(len(point) == 2 for point in points)
    assert points == sorted(points)
    code, text = _run(["timeseries", path, "probe.rtt_ms", "--source", "nope", "--json"])
    assert code == 0
    assert json.loads(text) == []


def test_timeseries_unknown_series_lists_available(tmp_path):
    code, text = _run(["timeseries", _write_stream(tmp_path), "nope.series"])
    assert code == 1
    assert "no samples for series 'nope.series'" in text
    assert "available series:" in text


def test_alerts_listing_and_kind_filter(tmp_path):
    """Every alert is listed; ``--kind`` is gone, since the SLO policy's
    ``burn_rate`` is the only kind written, and older files holding
    ``drift`` alerts still list in full."""
    path, count = _write_alerts(tmp_path)
    assert count >= 1
    code, text = _run(["alerts", path])
    assert code == 0
    assert text.startswith(f"### Alerts\n\n- alerts: {count}\n")
    assert text.count("  - **lat** (burn_rate, ") == count
    with pytest.raises(SystemExit):
        main(["alerts", path, "--kind", "burn_rate"], out=io.StringIO())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(DRIFT_LINE + "\n")
    code, text = _run(["alerts", path, "--json"])
    assert code == 0
    assert [alert["kind"] for alert in json.loads(text)] == ["burn_rate"] * count + ["drift"]


def test_missing_file_returns_error(tmp_path):
    assert _run(["telemetry", str(tmp_path / "missing.jsonl")])[0] == 1
    assert _run(["alerts", str(tmp_path / "missing.jsonl")])[0] == 1
