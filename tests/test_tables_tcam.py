"""Tests for TCAM geometry (Table 1) and the shift-cost model (Fig 3b/3c)."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.openflow.match import IpPrefix, Match, MatchKind
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.latency import ConstantLatency
from repro.switches.base import ControlCostModel, SimulatedSwitch
from repro.tables.policies import FIFO
from repro.tables.stack import TableLayer
from repro.tables.tcam import PriorityShiftModel, TcamGeometry, TcamMode


# -- geometry / Table 1 -------------------------------------------------------
def test_single_wide_rejects_wide_entries():
    geometry = TcamGeometry(slot_units=100, mode=TcamMode.SINGLE_WIDE)
    with pytest.raises(ValueError):
        geometry.entry_cost(MatchKind.L2_L3)


def test_single_wide_full_capacity_for_narrow():
    geometry = TcamGeometry(slot_units=4096, mode=TcamMode.SINGLE_WIDE)
    assert geometry.capacity_for(MatchKind.L2) == 4096
    assert geometry.capacity_for(MatchKind.L3) == 4096


def test_double_wide_halves_capacity_for_everything():
    """Switch #2: 2560 entries no matter the entry type (Table 1)."""
    geometry = TcamGeometry(slot_units=5120, mode=TcamMode.DOUBLE_WIDE)
    for kind in MatchKind:
        assert geometry.capacity_for(kind) == 2560


def test_adaptive_mode_matches_switch3():
    """Switch #3: 767 narrow entries or 369 wide ones (Table 1)."""
    geometry = TcamGeometry(
        slot_units=767, mode=TcamMode.ADAPTIVE, wide_cost=767.0 / 369.0
    )
    assert geometry.capacity_for(MatchKind.L2) == 767
    assert geometry.capacity_for(MatchKind.L3) == 767
    assert geometry.capacity_for(MatchKind.L2_L3) == 369


def test_adaptive_mode_matches_switch1():
    """Switch #1: 4K L2/L3-only entries, 2K combined (Table 1)."""
    geometry = TcamGeometry(slot_units=4096, mode=TcamMode.ADAPTIVE, wide_cost=2.0)
    assert geometry.capacity_for(MatchKind.L3) == 4096
    assert geometry.capacity_for(MatchKind.L2_L3) == 2048


def test_geometry_validation():
    with pytest.raises(ValueError):
        TcamGeometry(slot_units=0)
    with pytest.raises(ValueError):
        TcamGeometry(slot_units=10, wide_cost=0.5)


# -- shift model --------------------------------------------------------------
def test_ascending_inserts_never_shift():
    model = PriorityShiftModel()
    shifts = [model.record_add(p) for p in range(1, 101)]
    assert shifts == [0] * 100


def test_same_priority_inserts_never_shift():
    model = PriorityShiftModel()
    shifts = [model.record_add(7) for _ in range(100)]
    assert shifts == [0] * 100


def test_descending_inserts_shift_everything():
    model = PriorityShiftModel()
    shifts = [model.record_add(p) for p in range(100, 0, -1)]
    assert shifts == list(range(100))


def test_shifts_for_add_is_pure():
    model = PriorityShiftModel()
    model.record_add(10)
    model.record_add(20)
    assert model.shifts_for_add(5) == 2
    assert model.shifts_for_add(15) == 1
    assert model.shifts_for_add(25) == 0
    assert len(model) == 2  # unchanged


def test_delete_unknown_priority_rejected():
    model = PriorityShiftModel()
    model.record_add(5)
    with pytest.raises(ValueError, match="priority 6 not present"):
        model.record_delete(6)
    with pytest.raises(ValueError, match="priority 7 not present"):
        PriorityShiftModel().record_delete(7)


def test_negative_priority_rejected():
    model = PriorityShiftModel()
    model.record_add(0)
    for call in (model.shifts_for_add, model.record_add):
        with pytest.raises(ValueError, match="must be non-negative"):
            call(-1)
    with pytest.raises(ValueError, match="priority -1 not present"):
        model.record_delete(-1)
    assert len(model) == 1


def test_delete_reduces_future_shifts():
    model = PriorityShiftModel()
    model.record_add(10)
    model.record_add(20)
    model.record_delete(20)
    assert model.shifts_for_add(5) == 1


def test_clear_resets():
    model = PriorityShiftModel()
    model.record_add(1)
    model.clear()
    assert len(model) == 0
    assert model.shifts_for_add(0) == 0


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
def test_shift_count_equals_strictly_greater_entries(priorities):
    """Invariant: an add shifts exactly the resident higher-priority entries."""
    model = PriorityShiftModel()
    seen = []
    for priority in priorities:
        expected = sum(1 for p in seen if p > priority)
        assert model.record_add(priority) == expected
        seen.append(priority)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=100))
def test_descending_total_shifts_dominate_ascending(priorities):
    ascending = sorted(priorities)
    descending = sorted(priorities, reverse=True)
    asc_model, desc_model = PriorityShiftModel(), PriorityShiftModel()
    asc_total = sum(asc_model.record_add(p) for p in ascending)
    desc_total = sum(desc_model.record_add(p) for p in descending)
    assert desc_total >= asc_total


# -- pinned shift counts ------------------------------------------------------
# Exact counts for fixed sequences (the ordered ones are pinned above), so
# any change of the shift model's implementation must reproduce them.


def _shift_trace(operations):
    model = PriorityShiftModel()
    shifts = []
    for op, priority in operations:
        if op == "add":
            shifts.append(model.record_add(priority))
        else:
            model.record_delete(priority)
    return model, shifts


def _seeded_operations(seed, count):
    rng = random.Random(seed)
    present, operations = [], []
    for _ in range(count):
        if present and rng.random() < 0.3:
            priority = present.pop(rng.randrange(len(present)))
            operations.append(("del", priority))
        else:
            priority = rng.randrange(0, 200)
            present.append(priority)
            operations.append(("add", priority))
    return operations


#: (adds, total shifts, residents, sha256 prefix of the per-add shift
#: counts, shifts_for_add probes) for ``_seeded_operations(16, 600)``.
PINNED_RANDOM = (423, 27018, 246, "98741c6f4d8d12ff", [244, 189, 118, 0, 0])


def test_pinned_shift_counts_for_random_adds_and_deletes():
    model, shifts = _shift_trace(_seeded_operations(16, 600))
    digest = hashlib.sha256(repr(shifts).encode()).hexdigest()[:16]
    assert (len(shifts), sum(shifts), len(model)) == PINNED_RANDOM[:3]
    assert digest == PINNED_RANDOM[3]
    assert [model.shifts_for_add(p) for p in (0, 50, 100, 199, 500)] == (
        PINNED_RANDOM[4]
    )


def test_pinned_shifts_on_a_switch_with_delete_and_reprioritising_modify():
    switch = SimulatedSwitch(
        name="sw",
        layers=[TableLayer("t", capacity=None)],
        policy=FIFO,
        layer_delays=[ConstantLatency(0.5)],
        control_path_delay=ConstantLatency(5.0),
        cost_model=ControlCostModel(
            add_base_ms=1.0,
            shift_ms=0.5,
            priority_group_ms=0.0,
            mod_ms=1.0,
            del_ms=1.0,
            jitter_std_frac=0.0,
        ),
    )

    def send(command, index, priority=0):
        match = Match(eth_type=0x0800, ip_dst=IpPrefix(index, 32))
        switch.apply_flow_mod(FlowMod(command, match, priority=priority))

    for index, priority in enumerate((50, 10, 30, 70, 30, 20)):
        send(FlowModCommand.ADD, index, priority)
    assert switch.stats.total_shifts == 0 + 1 + 1 + 0 + 2 + 4
    send(FlowModCommand.DELETE, 3)  # priority 70 leaves
    send(FlowModCommand.MODIFY, 1, priority=60)  # 10 -> 60, uncharged
    assert switch.stats.total_shifts == 8
    assert switch.shift_model.shifts_for_add(40) == 2  # 50 and 60
    send(FlowModCommand.ADD, 6, priority=25)
    assert switch.stats.total_shifts == 8 + 4  # 50, 30, 30, 60
    assert switch.clock.now_ms == 7 * 1.0 + 12 * 0.5 + 2 * 1.0
    assert len(switch.shift_model) == 6
