"""Tests for 1-D RTT clustering."""

from hypothesis import given, strategies as st

from repro.core.clustering import Cluster, assign_cluster, cluster_1d


def test_empty_input():
    assert cluster_1d([]) == []


def test_single_value():
    clusters = cluster_1d([1.0])
    assert len(clusters) == 1
    assert clusters[0].count == 1
    assert clusters[0].mean_ms == 1.0


def test_two_well_separated_bands():
    values = [0.5, 0.52, 0.48, 4.0, 4.1, 3.9]
    clusters = cluster_1d(values, min_gap_ms=0.5)
    assert len(clusters) == 2
    assert clusters[0].count == 3
    assert clusters[1].count == 3
    assert clusters[0].mean_ms < clusters[1].mean_ms


def test_three_bands_like_figure5():
    """Figure 5 shows fast path 1 / fast path 2 / slow path bands."""
    values = [0.05] * 10 + [0.4] * 10 + [1.2] * 10
    clusters = cluster_1d(values, min_gap_ms=0.2)
    assert len(clusters) == 3


def test_gap_below_threshold_merges():
    values = [1.0, 1.3, 1.6]
    assert len(cluster_1d(values, min_gap_ms=0.5)) == 1


def test_min_cluster_fraction_absorbs_outlier():
    values = [0.5] * 100 + [4.0]  # one stray sample
    clusters = cluster_1d(values, min_gap_ms=0.5, min_cluster_fraction=0.02)
    assert len(clusters) == 1
    assert clusters[0].count == 101


def test_leading_outlier_merges_forward():
    values = [0.01] + [2.0] * 100
    clusters = cluster_1d(values, min_gap_ms=0.5, min_cluster_fraction=0.02)
    assert len(clusters) == 1


def test_cluster_bounds():
    clusters = cluster_1d([1.0, 1.2, 5.0, 5.4], min_gap_ms=1.0)
    assert clusters[0].lo_ms == 1.0
    assert clusters[0].hi_ms == 1.2
    assert clusters[1].lo_ms == 5.0
    assert clusters[1].hi_ms == 5.4


def test_assign_cluster_inside_range():
    clusters = cluster_1d([1.0, 1.2, 5.0, 5.4], min_gap_ms=1.0)
    assert assign_cluster(clusters, 1.1) == 0
    assert assign_cluster(clusters, 5.2) == 1


def test_assign_cluster_with_margin():
    clusters = cluster_1d([1.0, 1.2, 5.0, 5.4], min_gap_ms=1.0)
    assert assign_cluster(clusters, 1.4, margin_ms=0.25) == 0
    assert assign_cluster(clusters, 3.0, margin_ms=0.25) is None


def test_cluster_contains():
    cluster = Cluster(mean_ms=1.0, lo_ms=0.9, hi_ms=1.1, count=5)
    assert cluster.contains(1.0)
    assert not cluster.contains(1.2)
    assert cluster.contains(1.2, margin_ms=0.15)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_clusters_partition_samples(values, gap):
    clusters = cluster_1d(values, min_gap_ms=gap)
    assert sum(c.count for c in clusters) == len(values)
    means = [c.mean_ms for c in clusters]
    assert means == sorted(means)
    for cluster in clusters:
        assert cluster.lo_ms - 1e-9 <= cluster.mean_ms <= cluster.hi_ms + 1e-9


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=100),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_adjacent_clusters_separated_by_gap(values, gap):
    clusters = cluster_1d(values, min_gap_ms=gap)
    for left, right in zip(clusters, clusters[1:]):
        assert right.lo_ms - left.hi_ms > gap
