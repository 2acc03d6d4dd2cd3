"""Tests for latency models."""

import pytest

from repro.sim.latency import (
    ConstantLatency,
    GaussianLatency,
    ShiftedExponentialLatency,
)
from repro.sim.rng import SeededRng


@pytest.fixture
def rng():
    return SeededRng(123)


def test_constant_returns_value(rng):
    model = ConstantLatency(2.5)
    assert model.sample(rng) == 2.5
    assert model.mean_ms == 2.5


def test_constant_negative_rejected():
    with pytest.raises(ValueError):
        ConstantLatency(-0.1)


def test_gaussian_mean_is_close(rng):
    model = GaussianLatency(mean=5.0, std=0.5)
    samples = [model.sample(rng) for _ in range(2000)]
    assert abs(sum(samples) / len(samples) - 5.0) < 0.1


def test_gaussian_floor_applies(rng):
    model = GaussianLatency(mean=1.0, std=10.0)
    assert all(model.sample(rng) >= 0.1 for _ in range(500))


def test_gaussian_custom_floor(rng):
    model = GaussianLatency(mean=1.0, std=10.0, floor=0.7)
    assert all(model.sample(rng) >= 0.7 for _ in range(500))


def test_gaussian_negative_params_rejected():
    with pytest.raises(ValueError):
        GaussianLatency(mean=-1.0, std=0.1)
    with pytest.raises(ValueError):
        GaussianLatency(mean=1.0, std=-0.1)


def test_shifted_exponential_bounds(rng):
    model = ShiftedExponentialLatency(minimum=3.0, tail_scale=1.0)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(s >= 3.0 for s in samples)
    assert model.mean_ms == 4.0


def test_shifted_exponential_mean(rng):
    model = ShiftedExponentialLatency(minimum=2.0, tail_scale=0.5)
    samples = [model.sample(rng) for _ in range(5000)]
    assert abs(sum(samples) / len(samples) - 2.5) < 0.05


def test_shifted_exponential_negative_rejected():
    with pytest.raises(ValueError):
        ShiftedExponentialLatency(minimum=-1.0, tail_scale=1.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("value", [NAN, INF])
def test_constant_non_finite_rejected(value):
    with pytest.raises(ValueError):
        ConstantLatency(value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mean=NAN, std=0.1),
        dict(mean=1.0, std=NAN),
        dict(mean=INF, std=0.1),
        dict(mean=1.0, std=0.1, floor=NAN),
    ],
)
def test_gaussian_non_finite_rejected(kwargs):
    with pytest.raises(ValueError):
        GaussianLatency(**kwargs)


@pytest.mark.parametrize("minimum, tail", [(NAN, 0.1), (1.0, NAN), (INF, 0.1), (1.0, INF)])
def test_shifted_exponential_non_finite_rejected(minimum, tail):
    with pytest.raises(ValueError):
        ShiftedExponentialLatency(minimum, tail)
