"""Tests for the deterministic serving workload stream."""

import bisect
import itertools

import pytest

from repro.serve.stream import (
    _BLOCK as BLOCK,
    TENANT_SHIFT,
    FlowArrival,
    FlowRequestStream,
    StreamConfig,
    flow_address,
    flow_match,
)
from repro.sim.rng import SeededRng
from repro.workloads.traffic import zipf_weights


def _config(**overrides):
    base = dict(
        arrivals=400,
        tenants=8,
        destinations_per_tenant=32,
        rate_per_ms=2.0,
        zipf_skew=1.1,
        tenant_skew=0.6,
        churn_interval_ms=0.0,
        seed=3,
    )
    base.update(overrides)
    return StreamConfig(**base)


def _reference_arrivals(config):
    """The stream drawn one scalar at a time: per arrival one exponential
    gap, then one uniform for the tenant rank and one for the destination
    rank (inverse CDF by ``bisect_left``), each on its own child stream;
    churn strides are drawn on a fourth stream as epochs are entered."""
    root = SeededRng(config.seed)
    arrival_rng = root.child("serve:interarrival")
    tenant_rng = root.child("serve:tenant")
    dest_rng = root.child("serve:dest")
    churn_rng = root.child("serve:churn")
    tenant_cdf = list(
        itertools.accumulate(zipf_weights(config.tenants, config.tenant_skew))
    )
    dest_cdf = list(
        itertools.accumulate(
            zipf_weights(config.destinations_per_tenant, config.zipf_skew)
        )
    )

    def rank(rng, cdf):
        u = rng.uniform(0.0, cdf[-1])
        return min(bisect.bisect_left(cdf, u), len(cdf) - 1)

    scale = 1.0 / config.rate_per_ms
    destinations = config.destinations_per_tenant
    epoch = 0
    stride = 0
    t_ms = 0.0
    arrivals = []
    for index in range(config.arrivals):
        t_ms += arrival_rng.exponential(scale)
        if config.churn_interval_ms > 0:
            current_epoch = int(t_ms // config.churn_interval_ms)
            while epoch < current_epoch:
                epoch += 1
                if destinations > 1:
                    stride = (
                        stride + churn_rng.randint(1, destinations - 1)
                    ) % destinations
        tenant = rank(tenant_rng, tenant_cdf)
        destination = (rank(dest_rng, dest_cdf) + stride) % destinations
        arrivals.append(
            FlowArrival(
                index=index,
                t_ms=t_ms,
                tenant=tenant,
                destination=destination,
                priority=1 + tenant % config.priority_levels,
                match=flow_match(tenant, destination),
            )
        )
    return arrivals


@pytest.mark.parametrize(
    "arrivals", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
)
@pytest.mark.parametrize(
    "shape",
    [
        dict(churn_interval_ms=0.0),
        dict(churn_interval_ms=40.0),
        dict(churn_interval_ms=5.0, destinations_per_tenant=1),
        dict(churn_interval_ms=40.0, destinations_per_tenant=4096),
        dict(churn_interval_ms=0.0, tenant_skew=0.0),
    ],
    ids=["still", "churn", "one-destination", "full-block", "uniform-tenants"],
)
def test_stream_equals_scalar_reference(arrivals, shape):
    """Every arrival equals the scalar-draw reference field by field,
    ``t_ms`` compared exactly, across block boundaries."""
    config = _config(arrivals=arrivals, **shape)
    got = list(FlowRequestStream(config))
    want = _reference_arrivals(config)
    assert len(got) == len(want) == arrivals
    for a, b in zip(got, want):
        assert (a.index, a.tenant, a.destination, a.priority) == (
            b.index,
            b.tenant,
            b.destination,
            b.priority,
        )
        assert a.t_ms.hex() == b.t_ms.hex()
        assert a.match == b.match


def test_stream_replays_byte_identically():
    stream = FlowRequestStream(_config(churn_interval_ms=40.0))
    first = list(stream)
    second = list(stream)  # __iter__ restarts from the seed
    assert first == second
    assert list(FlowRequestStream(_config(churn_interval_ms=40.0))) == first


def test_arrivals_are_ordered_and_indexed():
    arrivals = list(FlowRequestStream(_config()))
    assert len(arrivals) == 400
    assert [a.index for a in arrivals] == list(range(400))
    times = [a.t_ms for a in arrivals]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_priority_derived_from_tenant():
    config = _config(priority_levels=4)
    for arrival in FlowRequestStream(config):
        assert arrival.priority == 1 + arrival.tenant % 4


def test_match_encodes_tenant_and_destination():
    for arrival in FlowRequestStream(_config(arrivals=50)):
        assert arrival.match == flow_match(arrival.tenant, arrival.destination)
        address = arrival.match.ip_dst.value
        assert address >> TENANT_SHIFT == arrival.tenant
        assert address & ((1 << TENANT_SHIFT) - 1) == arrival.destination
        assert arrival.match.ip_dst.length == 32
        assert arrival.flow_key == (arrival.tenant, arrival.destination)


def test_flow_address_masks_to_ipv4():
    assert flow_address(3, 5) == (3 << TENANT_SHIFT) | 5
    assert flow_address(2**25, 0) <= 0xFFFFFFFF


def test_zipf_skew_concentrates_destinations():
    skewed = list(FlowRequestStream(_config(arrivals=2000, zipf_skew=1.4)))
    counts = {}
    for arrival in skewed:
        counts[arrival.destination] = counts.get(arrival.destination, 0) + 1
    top_share = max(counts.values()) / len(skewed)
    # The hottest destination dominates under heavy skew; a uniform mix
    # over 32 destinations would put ~3% on each.
    assert top_share > 0.15


def test_churn_rotates_the_working_set():
    still = list(FlowRequestStream(_config(arrivals=2000, churn_interval_ms=0.0)))
    churned = list(FlowRequestStream(_config(arrivals=2000, churn_interval_ms=25.0)))

    def hot_destination(arrivals, lo, hi):
        counts = {}
        for a in arrivals:
            if lo <= a.t_ms < hi:
                counts[a.destination] = counts.get(a.destination, 0) + 1
        return max(counts, key=lambda d: (counts[d], -d))

    horizon = churned[-1].t_ms
    early = hot_destination(churned, 0.0, 25.0)
    late = hot_destination(churned, horizon - 25.0, horizon + 1.0)
    assert early != late  # the stride rotated the rank->destination map
    # Without churn the hot destination never moves.
    assert hot_destination(still, 0.0, horizon) == hot_destination(
        still, horizon / 2, horizon + 1.0
    )


def test_stream_config_validation():
    with pytest.raises(ValueError):
        _config(arrivals=-1)
    with pytest.raises(ValueError):
        _config(tenants=0)
    with pytest.raises(ValueError):
        _config(destinations_per_tenant=0)
    with pytest.raises(ValueError):
        _config(destinations_per_tenant=(1 << TENANT_SHIFT) + 1)
    with pytest.raises(ValueError):
        _config(rate_per_ms=0.0)
    with pytest.raises(ValueError):
        _config(priority_levels=0)
    with pytest.raises(ValueError):
        _config(churn_interval_ms=-1.0)
