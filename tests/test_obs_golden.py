"""Golden pins for every instrumentation artifact the CI's traced runs write.

Each case runs one console command as a subprocess in a scratch
directory and compares the sha256 of every file it writes (trace JSONL,
Chrome trace, Prometheus text, telemetry and alerts JSONL) and, for
``--json`` runs, of its stdout.  Reworking how components reach the
tracer, the metrics registry or the telemetry collector must leave
every digest unchanged; only a deliberate change to what is recorded
may re-pin them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = ("-m", "repro.tools.cli")
SERVE = ("-m", "repro.serve.cli")

#: (case id, argv after the interpreter, {artifact: sha256}); ``stdout``
#: names the command's standard output.
CASES = [
    (
        "schedule-lf",
        PROBE + ("schedule", "--scenario", "lf", "--flows", "40", "--trace", "P"),
        {
            "P.jsonl": "6ee3327f426c100a43b6d0660075ab03c94a2191d53fb7d823178a9a4838ccc9",
            "P.chrome.json": "16f622e8e882f671f950aebf4ca4de9817d071e9c63ad7adec99820ae6d382be",
            "P.prom": "fda607bdaa504b001feac6f521bf1c8c37c60fb91ae6a998f28f69f2a6cacedf",
        },
    ),
    (
        "faults-disconnect",
        PROBE
        + (
            "faults", "--scenario", "disconnect", "--seed", "7", "--flows", "40",
            "--trace", "P", "--telemetry", "P",
        ),
        {
            "P.jsonl": "89af618bec5987b01b4f61c37a8d68487b4ae52ae7fe83592aaa740dd3a50a39",
            "P.chrome.json": "644e5680512dc4f225264e6f7b59989c31d9bcabefcd86c26aea7f5269c30801",
            "P.prom": "befdcab908d13c362fdb6380d78ccf71804068eba34c8d9d7467a8298c4da374",
            "P.telemetry.jsonl": "149797a8e374bd8d33f676bf726bd0af65ccb49b5684c7186ea2f42886cee7d4",
            "P.alerts.jsonl": "75d8eac914abde809b19042454260923d6fc639e8b3f7bd7d6a4515ea4334630",
        },
    ),
    (
        "infer-fleet",
        PROBE
        + (
            "infer", "--profile", "switch3", "--fleet", "6",
            "--fleet-profiles", "switch3,switch1", "--max-in-flight", "4",
            "--max-rules", "1024", "--trace", "P",
        ),
        {
            "P.jsonl": "1e99a117b5e55c1865ac1d9b4f098806f588d55d50804fd5b62fa4f997c48a4d",
            "P.chrome.json": "03cbd352577a1be3f11b88289e12b3dd59f2b00fd5dca4383c7a607ff1af7532",
            "P.prom": "a0eec1589459348283b07deb3b15b63e5c3177b1c595b17bfa7163c7273aef7b",
        },
    ),
    (
        "infer-chaos",
        PROBE
        + (
            "infer", "--profile", "switch1", "--fleet", "4",
            "--fleet-profiles", "switch1,switch2", "--max-rules", "256",
            "--fault-scenario", "chaos", "--json",
        ),
        {"stdout": "1b6bd1d6cef8eb11fe132f858d9c7c6ce1a63a646da689c7f1867dfac9b74019"},
    ),
    (
        "serve-churn",
        SERVE
        + (
            "--arrivals", "20000", "--seed", "7", "--tenants", "16",
            "--destinations", "64", "--churn-interval", "200", "--capacity", "96",
            "--admission-threshold", "2", "--idle-timeout", "400",
            "--telemetry", "P", "--json",
        ),
        {
            "stdout": "50dc31c88ae8217ed2f581fd12de30012cc56e98ac74e884f7446c57e72b614c",
            "P.telemetry.jsonl": "3efc4d78e1fddacaf4cbf5bff7aaad63a4987fbb41fb46bf926e54c3ac8d88e4",
            "P.alerts.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
]

def _run(argv, cwd: Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        (sys.executable,) + tuple(argv),
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_artifact_digests_are_pinned(tmp_path, argv, expected):
    stdout = _run(argv, tmp_path)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(name for name in expected if name != "stdout")
    actual = {
        name: _sha256(stdout if name == "stdout" else (tmp_path / name).read_bytes())
        for name in expected
    }
    assert actual == expected
