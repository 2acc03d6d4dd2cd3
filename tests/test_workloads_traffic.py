"""Tests for traffic-matrix and flow-arrival helpers."""

import pytest

from repro.sim.rng import SeededRng
from repro.workloads.traffic import uniform_traffic_matrix

NODES = [f"n{i}" for i in range(6)]


def test_matrix_respects_sparsity():
    rng = SeededRng(1).child("t")
    matrix = uniform_traffic_matrix(NODES, total_demand=100.0, rng=rng, sparsity=0.5)
    assert len(matrix) == int(len(NODES) * (len(NODES) - 1) * 0.5)


def test_matrix_total_demand():
    rng = SeededRng(2).child("t")
    matrix = uniform_traffic_matrix(NODES, total_demand=100.0, rng=rng)
    assert sum(matrix.values()) == pytest.approx(100.0)


def test_matrix_no_self_pairs():
    rng = SeededRng(3).child("t")
    matrix = uniform_traffic_matrix(NODES, total_demand=10.0, rng=rng, sparsity=1.0)
    assert all(a != b for a, b in matrix)


def test_matrix_positive_demands():
    rng = SeededRng(4).child("t")
    matrix = uniform_traffic_matrix(NODES, total_demand=50.0, rng=rng)
    assert all(v > 0 for v in matrix.values())


def test_matrix_deterministic_per_stream():
    a = uniform_traffic_matrix(NODES, 10.0, SeededRng(5).child("t"))
    b = uniform_traffic_matrix(NODES, 10.0, SeededRng(5).child("t"))
    assert a == b


def test_matrix_minimum_one_pair():
    rng = SeededRng(6).child("t")
    matrix = uniform_traffic_matrix(NODES, 10.0, rng, sparsity=0.0001)
    assert len(matrix) == 1


def test_zipf_weights_follow_inverse_power_law():
    from repro.workloads.traffic import zipf_weights

    weights = zipf_weights(4, skew=1.0)
    assert weights[0] == pytest.approx(1.0)
    assert weights[1] == pytest.approx(0.5)
    assert weights[3] == pytest.approx(0.25)
    assert zipf_weights(5, skew=0.0) == [1.0] * 5  # skew 0 is uniform


def test_zipf_weights_validated():
    from repro.workloads.traffic import zipf_weights

    with pytest.raises(ValueError):
        zipf_weights(0, skew=1.0)
    with pytest.raises(ValueError):
        zipf_weights(4, skew=-0.1)


def test_zipf_sampler_is_deterministic_and_bounded():
    from repro.workloads.traffic import ZipfSampler

    a = ZipfSampler(16, skew=1.2, rng=SeededRng(9).child("z"))
    b = ZipfSampler(16, skew=1.2, rng=SeededRng(9).child("z"))
    draws = a.draw(500)
    # Block boundaries do not matter: 500 at once equals 1 + 199 + 300.
    assert draws == b.draw(1) + b.draw(199) + b.draw(300)
    assert all(0 <= d < 16 for d in draws)
    assert a.draw(0) == []


def test_zipf_sampler_rank_zero_most_frequent():
    from repro.workloads.traffic import ZipfSampler

    sampler = ZipfSampler(8, skew=1.5, rng=SeededRng(10).child("z"))
    counts = [0] * 8
    for rank in sampler.draw(4000):
        counts[rank] += 1
    assert counts[0] == max(counts)
    assert counts[0] > counts[7]
