"""Tests for the tango-probe CLI."""

import io

import pytest

from repro.tools.cli import main


def test_profiles_subcommand_lists_vendors():
    out = io.StringIO()
    assert main(["profiles"], out=out) == 0
    text = out.getvalue()
    for name in ("ovs", "switch1", "switch2", "switch3"):
        assert name in text


def test_probe_switch3_reports_size():
    out = io.StringIO()
    assert main(["probe", "--profile", "switch3", "--max-rules", "1024"], out=out) == 0
    text = out.getvalue()
    assert "switch profile : switch3" in text
    assert "size 767" in text
    assert "latency curves" in text
    assert "rule placement : traffic-independent" in text


def test_probe_ovs_detects_microflow_caching():
    out = io.StringIO()
    assert main(["probe", "--profile", "ovs", "--max-rules", "128"], out=out) == 0
    text = out.getvalue()
    assert "traffic-driven (microflow caching)" in text
    assert "unbounded" in text


def test_probe_unknown_profile_rejected():
    with pytest.raises(SystemExit):
        main(["probe", "--profile", "nope"], out=io.StringIO())


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([], out=io.StringIO())


def test_schedule_subcommand_lf():
    out = io.StringIO()
    assert (
        main(["schedule", "--scenario", "lf", "--flows", "40"], out=out) == 0
    )
    text = out.getvalue()
    assert "dionysus" in text
    assert "tango" in text
    assert "baseline" in text


def test_schedule_subcommand_te():
    out = io.StringIO()
    assert (
        main(
            ["schedule", "--scenario", "te2", "--flows", "20", "--requests", "60"],
            out=out,
        )
        == 0
    )
    assert "vs Dionysus" in out.getvalue()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--flows", "0"], "--flows must be positive, got 0"),
        (["--flows", "-1"], "--flows must be positive, got -1"),
        (["--scenario", "te1", "--requests", "0"], "--requests must be positive, got 0"),
        (["--scenario", "te2", "--requests", "-2"], "--requests must be positive, got -2"),
    ],
)
def test_schedule_rejects_non_positive_counts(args, message):
    """With no requests the first arm's makespan is 0, and the "vs
    Dionysus" percentage would divide by it: the counts are refused
    before any arm runs."""
    out = io.StringIO()
    assert main(["schedule", *args], out=out) == 2
    assert out.getvalue().strip() == message


def test_schedule_subcommand_strict_verifies_before_scheduling():
    out = io.StringIO()
    assert (
        main(
            ["schedule", "--scenario", "lf", "--flows", "10", "--strict"],
            out=out,
        )
        == 0
    )
    text = out.getvalue()
    assert "static verification ok" in text
    assert "baseline" in text


def test_probe_trace_writes_all_three_artifacts(tmp_path):
    base = str(tmp_path / "probe-run")
    out = io.StringIO()
    assert (
        main(
            [
                "probe",
                "--profile",
                "switch2",
                "--max-rules",
                "512",
                "--trace",
                base,
            ],
            out=out,
        )
        == 0
    )
    assert "trace:" in out.getvalue()
    import json

    lines = open(base + ".jsonl").read().splitlines()
    assert lines and all(json.loads(line)["name"] for line in lines)
    chrome = json.load(open(base + ".chrome.json"))
    assert chrome["traceEvents"]
    assert "# TYPE" in open(base + ".prom").read()


def test_schedule_trace_batch_spans_carry_patterns(tmp_path):
    base = str(tmp_path / "sched-run")
    out = io.StringIO()
    assert (
        main(
            ["schedule", "--scenario", "lf", "--flows", "20", "--trace", base],
            out=out,
        )
        == 0
    )
    import json

    events = [json.loads(line) for line in open(base + ".jsonl")]
    batches = [e for e in events if e["name"] == "scheduler.batch"]
    assert batches
    tango_batches = [e for e in batches if "pattern" in e["attrs"]]
    assert tango_batches  # every Tango batch names the oracle's choice
    assert all(e["attrs"]["batch_size"] > 0 for e in batches)
    dionysus = [e for e in batches if e["attrs"].get("policy") == "critical_path"]
    assert dionysus
    prom = open(base + ".prom").read()
    assert "scheduler_batches" in prom
    assert "executor_requests_issued" in prom


def test_schedule_trace_is_deterministic(tmp_path):
    outputs = []
    for name in ("a", "b"):
        base = str(tmp_path / name)
        assert (
            main(
                ["schedule", "--scenario", "lf", "--flows", "20", "--trace", base],
                out=io.StringIO(),
            )
            == 0
        )
        outputs.append(open(base + ".jsonl").read())
    assert outputs[0] == outputs[1]


# -- fleet inference ----------------------------------------------------------
def _fleet_args(*extra):
    return [
        "infer", "--profile", "switch3", "--fleet", "4",
        "--fleet-profiles", "switch3,switch1", "--max-rules", "1024",
    ] + list(extra)


def test_infer_alias_runs_the_probe_path():
    out = io.StringIO()
    assert main(["infer", "--profile", "switch3", "--max-rules", "1024"], out=out) == 0
    assert "switch profile : switch3" in out.getvalue()


def test_fleet_report_shows_makespan_cache_and_members():
    out = io.StringIO()
    assert main(_fleet_args("--max-in-flight", "2"), out=out) == 0
    text = out.getvalue()
    assert "fleet inference: 4 switches (2 profiles), max in flight 2" in text
    assert "virtual makespan" in text
    assert "sequential sum" in text
    # With 2 slots, switch3#2 joins switch3's in-flight probe; switch1#2
    # is admitted after switch1 completed, so it hits the stored cache.
    assert "full probe runs  : 2" in text
    assert "cache hits 1, coalesced 1" in text
    assert "switch3#2" in text and "coalesced:switch3" in text
    assert "switch1#2" in text and "cache:switch1" in text


def test_fleet_json_summary():
    import json

    out = io.StringIO()
    assert main(_fleet_args("--json"), out=out) == 0
    summary = json.loads(out.getvalue())
    assert summary["members"] == 4
    assert summary["full_probe_runs"] == 2
    assert summary["coalesced_joins"] == 2
    assert summary["makespan_ms"] < summary["sequential_sum_ms"]
    assert [m["name"] for m in summary["per_member"]] == [
        "switch3", "switch1", "switch3#2", "switch1#2",
    ]


def test_fleet_no_cache_probes_every_member():
    import json

    out = io.StringIO()
    assert main(_fleet_args("--json", "--no-fleet-cache"), out=out) == 0
    summary = json.loads(out.getvalue())
    assert summary["full_probe_runs"] == 4
    assert summary["cache_hits"] == summary["coalesced_joins"] == 0


def test_fleet_trace_writes_artifacts_with_fleet_events(tmp_path):
    import json

    base = str(tmp_path / "fleet-run")
    out = io.StringIO()
    assert main(_fleet_args("--trace", base), out=out) == 0
    assert "trace:" in out.getvalue()
    events = [json.loads(line) for line in open(base + ".jsonl")]
    names = {e["name"] for e in events}
    assert {"fleet.infer", "fleet.member_start", "fleet.member_finish"} <= names
    assert "fleet_full_probes" in open(base + ".prom").read()


def test_fleet_rejects_bad_sizes_and_profiles():
    out = io.StringIO()
    assert main(
        ["infer", "--profile", "switch3", "--fleet", "0"], out=out
    ) == 2
    assert "--fleet must be positive" in out.getvalue()
    out = io.StringIO()
    assert main(
        [
            "infer", "--profile", "switch3", "--fleet", "2",
            "--fleet-profiles", "switch3,nope",
        ],
        out=out,
    ) == 2
    assert "unknown fleet profile(s): nope" in out.getvalue()
    out = io.StringIO()
    assert main(
        ["infer", "--profile", "switch3", "--fleet", "2", "--max-in-flight", "0"],
        out=out,
    ) == 2
    assert out.getvalue().strip() == "--max-in-flight must be positive, got 0"


def test_fault_scenario_without_fleet_is_a_usage_error():
    out = io.StringIO()
    argv = ["infer", "--profile", "switch2", "--fault-scenario", "chaos"]
    assert main(argv, out=out) == 2
    assert out.getvalue().strip() == "--fault-scenario needs a fleet: add --fleet N"


# -- faults subcommand --------------------------------------------------------
def test_faults_subcommand_chaos_end_to_end():
    out = io.StringIO()
    assert (
        main(
            [
                "faults",
                "--scenario",
                "chaos",
                "--seed",
                "3",
                "--flows",
                "20",
                "--verify-determinism",
            ],
            out=out,
        )
        == 0
    )
    text = out.getvalue()
    assert "fault scenario 'chaos'" in text
    assert "layer sizes" in text
    assert "fault retries" in text
    assert "determinism ok" in text


def test_faults_subcommand_none_scenario_verifies_noop():
    out = io.StringIO()
    assert (
        main(
            ["faults", "--scenario", "none", "--flows", "10", "--verify-noop"],
            out=out,
        )
        == 0
    )
    text = out.getvalue()
    assert "noop check ok" in text
    assert "fault retries    : 0" in text


def test_faults_subcommand_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["faults", "--scenario", "nope"], out=io.StringIO())


def test_faults_telemetry_writes_streams_and_fires_burn_alert(tmp_path):
    from repro.obs.slo import read_alerts_jsonl
    from repro.obs.telemetry import read_telemetry_jsonl

    prefix = str(tmp_path / "tele")
    out = io.StringIO()
    assert (
        main(
            [
                "faults",
                "--scenario",
                "disconnect",
                "--seed",
                "7",
                "--flows",
                "40",
                "--verify-determinism",
                "--telemetry",
                prefix,
            ],
            out=out,
        )
        == 0
    )
    text = out.getvalue()
    assert "telemetry:" in text
    assert "identical size estimates and schedules and telemetry streams" in text
    samples = read_telemetry_jsonl(prefix + ".telemetry.jsonl")
    assert samples
    assert "scheduler.fault_deferrals" in {s.series for s in samples}
    alerts = read_alerts_jsonl(prefix + ".alerts.jsonl")
    burn = [a for a in alerts if a.kind == "burn_rate"]
    assert burn, "the seeded disconnect scenario must trip a burn-rate alert"
    # Alert timestamps are cadence ticks: exact multiples of 5 ms.
    assert all(a.t_ms % 5.0 == 0.0 for a in alerts)


def test_faults_telemetry_streams_are_deterministic(tmp_path):
    def run(prefix):
        out = io.StringIO()
        assert (
            main(
                [
                    "faults",
                    "--scenario",
                    "chaos",
                    "--seed",
                    "0",
                    "--flows",
                    "30",
                    "--telemetry",
                    str(tmp_path / prefix),
                ],
                out=out,
            )
            == 0
        )
        with open(str(tmp_path / prefix) + ".telemetry.jsonl") as handle:
            stream = handle.read()
        with open(str(tmp_path / prefix) + ".alerts.jsonl") as handle:
            alerts = handle.read()
        return stream, alerts

    assert run("first") == run("second")
