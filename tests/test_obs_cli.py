"""Tests for the ``tango-report trace`` and ``chrome`` subcommands."""

import io
import json

import pytest

from repro.obs.export import write_jsonl
from repro.obs.trace import Tracer
from repro.tools.report import main


@pytest.fixture
def trace_file(tmp_path):
    tracer = Tracer(now_ms=lambda: 0.0)
    clock = iter([0.0, 2.0, 2.0, 5.0]).__next__
    with tracer.span("batch", category="scheduler", clock=clock, pattern="DEL MOD"):
        pass
    with tracer.span("batch", category="scheduler", clock=clock, pattern="DEL MOD"):
        pass
    tracer.event("arm", category="cli", arm="tango")
    path = str(tmp_path / "run.jsonl")
    write_jsonl(tracer.events, path)
    return path


def test_summary_subcommand(trace_file):
    out = io.StringIO()
    assert main(["trace", trace_file], out=out) == 0
    assert out.getvalue().splitlines() == [
        "### Telemetry",
        "",
        "- events: 3",
        "- span `scheduler/batch`: x2, total 5.00 ms, max 3.00 ms",
        "- event `cli/arm`: x1",
        "- pattern choices: DEL MOD x2",
        "",
    ]


def test_chrome_subcommand_default_output(trace_file, tmp_path):
    out = io.StringIO()
    assert main(["chrome", trace_file], out=out) == 0
    produced = tmp_path / "run.chrome.json"
    assert produced.exists()
    doc = json.loads(produced.read_text())
    assert any(r.get("ph") == "X" for r in doc["traceEvents"])
    assert str(produced) in out.getvalue()


def test_chrome_subcommand_explicit_output(trace_file, tmp_path):
    target = str(tmp_path / "explicit.json")
    assert main(["chrome", trace_file, "-o", target], out=io.StringIO()) == 0
    assert json.loads(open(target).read())["displayTimeUnit"] == "ms"


def test_missing_trace_file_errors(tmp_path):
    assert main(["trace", str(tmp_path / "nope.jsonl")], out=io.StringIO()) == 1


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit):
        main([], out=io.StringIO())
