"""Static TCAM admission checks (repro.analysis.capacity)."""

from repro.analysis import (
    analyze_dag,
    batch_slot_demand,
    check_capacity,
    check_dag_capacity,
)
from repro.core.requests import RequestDag
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.tables.tcam import TcamGeometry, TcamMode

L3 = Match(ip_dst=IpPrefix(0x0A000000, 8))
L2 = Match(eth_dst=0x1234)
L2_L3 = Match(eth_dst=0x1234, ip_dst=IpPrefix(0x0A000000, 8))


def _adds(n, match=None):
    return [
        FlowMod(
            FlowModCommand.ADD,
            match if match is not None else Match(ip_dst=IpPrefix(i << 8, 24)),
            priority=i + 1,
        )
        for i in range(n)
    ]


def test_batch_slot_demand_counts_deletes_and_ignores_modifies():
    geometry = TcamGeometry(slot_units=100)
    batch = _adds(3) + [
        FlowMod(FlowModCommand.DELETE, L3, priority=50),
        FlowMod(FlowModCommand.MODIFY, L3, priority=50),
    ]
    net, unstorable = batch_slot_demand(batch, geometry)
    assert net == 2.0  # 3 adds - 1 delete
    assert unstorable == []


def test_fitting_batch_is_clean():
    geometry = TcamGeometry(slot_units=100)
    report = check_capacity(_adds(10), geometry)
    assert len(report) == 0


def test_over_capacity_batch_is_tng020_error():
    geometry = TcamGeometry(slot_units=4)
    report = check_capacity(_adds(5), geometry, location="s1")
    assert [d.code for d in report] == ["TNG020"]
    assert report.has_errors
    assert report.diagnostics[0].location == "s1"


def test_existing_occupancy_counts_toward_capacity():
    geometry = TcamGeometry(slot_units=10)
    assert len(check_capacity(_adds(5), geometry, occupied_units=4.0)) == 0
    report = check_capacity(_adds(5), geometry, occupied_units=6.0)
    assert [d.code for d in report] == ["TNG020"]


def test_double_wide_mode_halves_capacity():
    geometry = TcamGeometry(slot_units=8, mode=TcamMode.DOUBLE_WIDE)
    assert len(check_capacity(_adds(4), geometry, high_water=1.0)) == 0
    report = check_capacity(_adds(5), geometry)
    assert [d.code for d in report] == ["TNG020"]


def test_adaptive_mode_charges_wide_entries_more():
    geometry = TcamGeometry(slot_units=4, mode=TcamMode.ADAPTIVE, wide_cost=2.0)
    wide_adds = [
        FlowMod(FlowModCommand.ADD, L2_L3, priority=i + 1) for i in range(2)
    ]
    assert len(check_capacity(wide_adds, geometry, high_water=1.0)) == 0
    report = check_capacity(wide_adds + _adds(1, match=L3), geometry)
    assert [d.code for d in report] == ["TNG020"]


def test_single_wide_rejects_l2_l3_entry_as_tng021():
    geometry = TcamGeometry(slot_units=100, mode=TcamMode.SINGLE_WIDE)
    batch = [FlowMod(FlowModCommand.ADD, L2_L3, priority=1)]
    report = check_capacity(batch, geometry)
    assert [d.code for d in report] == ["TNG021"]
    assert report.has_errors


def test_high_water_warning_is_tng022():
    geometry = TcamGeometry(slot_units=100)
    report = check_capacity(_adds(95), geometry, high_water=0.9)
    assert [d.code for d in report] == ["TNG022"]
    assert not report.has_errors


def test_check_dag_capacity_checks_each_switch_batch():
    dag = RequestDag()
    for index in range(6):
        dag.new_request(
            "s1" if index < 5 else "s2",
            FlowModCommand.ADD,
            Match(ip_dst=IpPrefix(index << 8, 24)),
            priority=index + 1,
        )
    geometries = {"s1": TcamGeometry(slot_units=4), "s2": TcamGeometry(slot_units=4)}
    report = check_dag_capacity(dag, geometries)
    assert [d.code for d in report] == ["TNG020"]
    assert report.diagnostics[0].location == "s1"


def test_check_dag_capacity_skips_unknown_switches():
    dag = RequestDag()
    dag.new_request(
        "mystery", FlowModCommand.ADD, Match(ip_dst=IpPrefix(0, 24)), priority=1
    )
    assert len(check_dag_capacity(dag, geometries={})) == 0


def test_analyze_dag_integrates_capacity_admission():
    dag = RequestDag()
    for index in range(5):
        dag.new_request(
            "s1",
            FlowModCommand.ADD,
            Match(ip_dst=IpPrefix(index << 8, 24)),
            priority=index + 1,
        )
    report = analyze_dag(dag, geometries={"s1": TcamGeometry(slot_units=4)})
    assert [d.code for d in report] == ["TNG020"]
