"""Tests for latency-curve probing and fitting."""

import dataclasses

import pytest

from repro.core.latency_curves import (
    LatencyCurve,
    LatencyCurveProber,
    PriorityPattern,
    derive_rewrite_patterns,
    fit_curve,
)
from repro.core.probing import ProbingEngine
from repro.core.scores import TangoScoreDatabase
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowModCommand
from repro.sim.rng import SeededRng
from repro.switches.profiles import OVS_PROFILE, SWITCH_2, SWITCH_3


def _factory(profile, scores=None, seed_box=[0]):
    def make():
        seed_box[0] += 1
        switch = profile.build(seed=seed_box[0])
        return ProbingEngine(
            ControlChannel(switch),
            scores=scores,
            rng=SeededRng(seed_box[0]).child("lat"),
        )

    return make


# -- fitting ---------------------------------------------------------------------
def test_fit_linear_curve():
    samples = [(100, 200.0), (200, 400.0), (400, 800.0)]
    curve = fit_curve(FlowModCommand.ADD, PriorityPattern.SAME, samples)
    assert curve.linear_ms == pytest.approx(2.0, rel=0.01)
    assert curve.quadratic_ms == pytest.approx(0.0, abs=1e-6)


def test_fit_quadratic_curve():
    samples = [(n, 0.5 * n + 0.01 * n * n) for n in (100, 200, 400, 800)]
    curve = fit_curve(FlowModCommand.ADD, PriorityPattern.DESCENDING, samples)
    assert curve.linear_ms == pytest.approx(0.5, rel=0.05)
    assert curve.quadratic_ms == pytest.approx(0.01, rel=0.05)


def test_fit_requires_samples():
    with pytest.raises(ValueError):
        fit_curve(FlowModCommand.ADD, PriorityPattern.SAME, [])


def test_total_and_per_op():
    curve = LatencyCurve(
        op=FlowModCommand.ADD,
        pattern=PriorityPattern.SAME,
        linear_ms=1.0,
        quadratic_ms=0.01,
    )
    assert curve.total_ms(10) == pytest.approx(11.0)
    # Marginal cost grows with fill level.
    assert curve.per_op_ms(100) > curve.per_op_ms(0)


# -- probing ---------------------------------------------------------------------
def test_prober_measures_all_operations():
    scores = TangoScoreDatabase()
    prober = LatencyCurveProber(
        _factory(SWITCH_2, scores), batch_sizes=(50, 100, 200), scores=scores
    )
    curves = prober.probe()
    assert set(curves) == {
        (FlowModCommand.ADD, PriorityPattern.ASCENDING),
        (FlowModCommand.ADD, PriorityPattern.DESCENDING),
        (FlowModCommand.MODIFY, PriorityPattern.SAME),
        (FlowModCommand.DELETE, PriorityPattern.SAME),
    }


def _counting_factory(profile):
    built = []

    def make():
        switch = profile.build(seed=len(built) + 1)
        built.append(switch)
        return ProbingEngine(ControlChannel(switch))

    return make, built


#: A flow_mod's channel time: ControlChannel's default 0.05 ms each way.
CHANNEL_MS = 2 * 0.05


def test_shared_mod_del_switch_matches_closed_forms():
    cost = dataclasses.replace(OVS_PROFILE.cost_model, jitter_std_frac=0.0)
    profile = dataclasses.replace(OVS_PROFILE, cost_model=cost)
    make, built = _counting_factory(profile)
    sizes = (10, 50, 200)
    curves = LatencyCurveProber(make, batch_sizes=sizes).probe()
    # Two ADD ladders, then one switch per size for MODIFY and DELETE.
    assert len(built) == 3 * len(sizes)
    modify = curves[(FlowModCommand.MODIFY, PriorityPattern.SAME)].samples
    delete = curves[(FlowModCommand.DELETE, PriorityPattern.SAME)].samples
    assert [n for n, _ in modify] == [n for n, _ in delete] == list(sizes)
    for (k, modify_ms), (_, delete_ms) in zip(modify, delete):
        # Every MODIFY runs at fill k.
        assert modify_ms == pytest.approx(
            k * (CHANNEL_MS + cost.mod_ms + cost.table_size_ms * k)
        )
        # A DELETE is charged at the fill left after its removal: k-1 .. 0.
        assert delete_ms == pytest.approx(
            sum(CHANNEL_MS + cost.del_ms + cost.table_size_ms * j for j in range(k))
        )


def test_ladder_stops_after_the_first_full_batch():
    make, built = _counting_factory(SWITCH_3)
    curves = LatencyCurveProber(make, batch_sizes=(100, 400, 900, 1600)).probe()
    # 1600 is never built: 900 already filled the 767-entry table.
    assert len(built) == 3 * 3
    for curve in curves.values():
        assert [n for n, _ in curve.samples] == [100, 400, 767]


def test_hardware_descending_has_quadratic_term():
    prober = LatencyCurveProber(_factory(SWITCH_2), batch_sizes=(50, 100, 200, 400))
    curves = prober.probe()
    descending = curves[(FlowModCommand.ADD, PriorityPattern.DESCENDING)]
    ascending = curves[(FlowModCommand.ADD, PriorityPattern.ASCENDING)]
    assert descending.quadratic_ms > 5 * max(ascending.quadratic_ms, 1e-9)
    assert descending.total_ms(400) > 3 * ascending.total_ms(400)


def test_ovs_curves_are_flat():
    prober = LatencyCurveProber(_factory(OVS_PROFILE), batch_sizes=(50, 100, 200))
    curves = prober.probe()
    descending = curves[(FlowModCommand.ADD, PriorityPattern.DESCENDING)]
    ascending = curves[(FlowModCommand.ADD, PriorityPattern.ASCENDING)]
    assert descending.total_ms(200) == pytest.approx(ascending.total_ms(200), rel=0.3)


def test_curves_stored_in_score_db():
    scores = TangoScoreDatabase()
    prober = LatencyCurveProber(
        _factory(SWITCH_2, scores), batch_sizes=(50, 100), scores=scores
    )
    prober.probe()
    stored = scores.get("switch2", "latency_curve", op="add", pattern="descending")
    assert stored is not None
    assert stored.op is FlowModCommand.ADD


def test_batch_sizes_required():
    with pytest.raises(ValueError):
        LatencyCurveProber(_factory(SWITCH_2), batch_sizes=())


# -- derived patterns -----------------------------------------------------------------
def test_derive_rewrite_patterns_weights_reflect_measurements():
    prober = LatencyCurveProber(_factory(SWITCH_2), batch_sizes=(50, 100, 200, 400))
    curves = prober.probe()
    ascending, descending = derive_rewrite_patterns(curves)
    counts = {FlowModCommand.ADD: 100}
    # Descending adds must score strictly worse on hardware.
    assert ascending.score_counts(counts) > descending.score_counts(counts)


def test_derived_patterns_order_adds_by_priority():
    prober = LatencyCurveProber(_factory(SWITCH_2), batch_sizes=(50, 100))
    ascending, descending = derive_rewrite_patterns(prober.probe())
    low = ascending.order_key(FlowModCommand.ADD, 1)
    high = ascending.order_key(FlowModCommand.ADD, 9)
    assert low < high
    assert descending.order_key(FlowModCommand.ADD, 9) < descending.order_key(
        FlowModCommand.ADD, 1
    )
