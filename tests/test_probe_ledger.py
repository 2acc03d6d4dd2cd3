"""The per-stage probe ledger: what each inference stage cost.

`SwitchInferenceEngine.infer_steps` appends (stage, probe ops, virtual
ms) to `engine.ledger` as each stage finishes.  The fleet drivers read a
stage's elapsed time from it, and the single-switch `--json` report
prints it beside the model.
"""

import io
import json

import pytest

from repro.core.fleet import FleetMember, MemberDriver
from repro.core.inference import SwitchInferenceEngine
from repro.switches.profiles import VENDOR_PROFILES
from repro.tools.cli import main as cli_main

SMALL = dict(size_probe_max_rules=5000, latency_batch_sizes=(20, 60))


def test_ledger_has_one_entry_per_stage_summing_to_the_run():
    engine = SwitchInferenceEngine(VENDOR_PROFILES["switch1"], seed=3, **SMALL)
    model = engine.infer()
    assert model.policy_probe is not None
    assert [cost.stage for cost in engine.ledger] == [
        "size",
        "behavior",
        "policy",
        "latency_curves",
    ]
    assert all(cost.probe_ops > 0 and cost.virtual_ms > 0 for cost in engine.ledger)
    assert sum(cost.probe_ops for cost in engine.ledger) == engine.probe_ops()
    assert sum(cost.virtual_ms for cost in engine.ledger) == pytest.approx(
        engine.virtual_cost_ms()
    )


def test_latency_stage_installs_three_rules_per_batch_rule():
    """ADD-ascending, ADD-descending and one shared MODIFY/DELETE preinstall
    per batch size; a table that never fills runs every batch."""
    engine = SwitchInferenceEngine(VENDOR_PROFILES["ovs"], seed=3, **SMALL)
    engine.infer()
    (curves,) = [cost for cost in engine.ledger if cost.stage == "latency_curves"]
    assert curves.probe_ops == 3 * sum(SMALL["latency_batch_sizes"])


def test_member_driver_elapsed_is_the_ledger_entry():
    profile = VENDOR_PROFILES["switch3"]
    engine = SwitchInferenceEngine(profile, seed=1, **SMALL)
    driver = MemberDriver(FleetMember("switch3", profile, seed=1), engine, True)
    elapsed = []
    while True:
        stage, ms, done = driver.advance(0.0)
        if done:
            assert (stage, ms) == (None, 0.0)
            break
        assert stage == engine.ledger[-1].stage
        elapsed.append(ms)
    assert elapsed == [cost.virtual_ms for cost in engine.ledger]
    assert driver.model is not None


def test_single_switch_json_prints_the_ledger_beside_the_model():
    out = io.StringIO()
    argv = ["probe", "--profile", "switch3", "--max-rules", "1024", "--json"]
    assert cli_main(argv, out=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["name"] == "switch3"
    ledger = payload.pop("probe_ledger")
    assert [row["stage"] for row in ledger] == ["size", "behavior", "latency_curves"]
    assert all(set(row) == {"stage", "probe_ops", "virtual_ms"} for row in ledger)
    # The rest of the payload is the model summary, unchanged.
    engine = SwitchInferenceEngine(
        VENDOR_PROFILES["switch3"],
        size_probe_max_rules=1024,
        latency_batch_sizes=(100, 400, 900),
    )
    assert payload == engine.infer(include_policy=False).to_dict()
