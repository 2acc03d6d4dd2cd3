"""Tests for seeded randomness."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import SeededRng, derive_seed


def test_same_seed_same_stream():
    a = SeededRng(42)
    b = SeededRng(42)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_seeds_differ():
    assert SeededRng(1).uniform() != SeededRng(2).uniform()


def test_child_streams_are_independent_of_sibling_creation():
    root = SeededRng(7)
    child_a1 = root.child("a")
    # Creating another child must not perturb "a"'s stream.
    root.child("b")
    child_a2 = SeededRng(7).child("a")
    assert child_a1.uniform() == child_a2.uniform()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_randint_bounds():
    rng = SeededRng(3)
    values = {rng.randint(0, 5) for _ in range(200)}
    assert values <= {0, 1, 2, 3, 4}
    assert len(values) == 5


def test_choice_empty_rejected():
    with pytest.raises(ValueError):
        SeededRng(0).choice([])


def test_choice_single():
    assert SeededRng(0).choice(["only"]) == "only"


def test_sample_distinct():
    rng = SeededRng(5)
    sample = rng.sample(list(range(100)), 10)
    assert len(set(sample)) == 10


def test_sample_too_many_rejected():
    with pytest.raises(ValueError):
        SeededRng(0).sample([1, 2], 3)


def test_shuffle_is_permutation():
    rng = SeededRng(9)
    data = list(range(50))
    shuffled = list(data)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == data


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_derive_seed_in_63_bit_range(seed, label):
    value = derive_seed(seed, label)
    assert 0 <= value < 2**63


def test_exponential_positive():
    rng = SeededRng(1)
    assert all(rng.exponential(2.0) > 0 for _ in range(100))


# -- block-drawn normals against a raw numpy generator ---------------------

_DRAWS = st.lists(
    st.one_of(
        st.tuples(
            st.just("normal"),
            st.integers(1, 700),
            st.floats(-5.0, 5.0),
            st.sampled_from([0.0, 0.02, 1.0, 3.5]),
        ),
        st.tuples(st.just("uniform"), st.floats(-2.0, 0.0), st.floats(0.5, 3.0)),
        st.tuples(st.just("exponential"), st.floats(0.1, 4.0)),
        st.tuples(st.just("randint"), st.integers(-5, 5), st.integers(6, 100)),
        st.tuples(st.just("choice"), st.integers(1, 30)),
        st.tuples(st.just("shuffle"), st.integers(0, 20)),
        st.tuples(st.just("sample"), st.integers(1, 30), st.integers(0, 1)),
        st.tuples(st.just("generator"), st.integers(1, 5)),
    ),
    max_size=25,
)


def _draw(rng, raw, operation):
    """One draw from the wrapper and from the raw generator."""
    name = operation[0]
    if name == "normal":
        _, count, mean, std = operation
        return (
            [rng.normal(mean, std) for _ in range(count)],
            [float(raw.normal(mean, std)) for _ in range(count)],
        )
    if name == "uniform":
        return rng.uniform(*operation[1:]), float(raw.uniform(*operation[1:]))
    if name == "exponential":
        return rng.exponential(operation[1]), float(raw.exponential(operation[1]))
    if name == "randint":
        return rng.randint(*operation[1:]), int(raw.integers(*operation[1:]))
    if name == "choice":
        seq = list(range(operation[1]))
        return rng.choice(seq), seq[int(raw.integers(0, len(seq)))]
    if name == "shuffle":
        mine, theirs = list(range(operation[1])), list(range(operation[1]))
        rng.shuffle(mine)
        raw.shuffle(theirs)
        return mine, theirs
    if name == "sample":
        seq = list(range(operation[1]))
        k = operation[1] // 2 + operation[2]
        return rng.sample(seq, k), [seq[int(i)] for i in raw.choice(len(seq), k, replace=False)]
    return (
        rng.generator.standard_normal(operation[1]).tolist(),
        raw.standard_normal(operation[1]).tolist(),
    )


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), operations=_DRAWS)
def test_every_draw_mix_equals_raw_numpy(seed, operations):
    rng = SeededRng(seed)
    raw = np.random.default_rng(seed)
    for operation in operations:
        mine, theirs = _draw(rng, raw, operation)
        assert mine == theirs, operation
    # And both generators are left at the same point.
    assert rng.uniform() == float(raw.uniform())


def test_long_normal_runs_cross_every_block_size():
    rng = SeededRng(11)
    raw = np.random.default_rng(11)
    for std in (0.02, 0.0, 1.0):
        mine = [rng.normal(1.0, std) for _ in range(2500)]
        assert mine == [float(raw.normal(1.0, std)) for _ in range(2500)]
    assert rng.exponential(2.0) == float(raw.exponential(2.0))


def test_handed_out_generator_may_draw_between_normals():
    """Its holder draws whenever it likes, so no normal may be outstanding."""
    rng = SeededRng(4)
    raw = np.random.default_rng(4)
    held = rng.generator
    for _ in range(40):
        assert rng.normal(2.0, 0.5) == float(raw.normal(2.0, 0.5))
        assert held.random() == raw.random()


def test_mid_block_pickle_resumes_the_stream():
    rng = SeededRng(8)
    raw = np.random.default_rng(8)
    assert [rng.normal() for _ in range(5)] == [float(raw.normal()) for _ in range(5)]
    copy = pickle.loads(pickle.dumps(rng))
    assert [copy.normal() for _ in range(50)] == [float(raw.normal()) for _ in range(50)]


@pytest.mark.parametrize("std", [-1.0, -1e-300, -0.0])
def test_negative_std_raises_and_draws_nothing(std):
    rng = SeededRng(2)
    raw = np.random.default_rng(2)
    rng.normal()
    raw.normal()
    with pytest.raises(ValueError):
        rng.normal(0.0, std)
    with pytest.raises(ValueError):
        raw.normal(0.0, std)
    assert rng.normal() == float(raw.normal())


def test_sync_frees_the_block_and_keeps_the_stream():
    rng = SeededRng(6)
    raw = np.random.default_rng(6)
    assert [rng.normal(0.0, 2.0) for _ in range(7)] == [
        float(raw.normal(0.0, 2.0)) for _ in range(7)
    ]
    rng.sync()
    assert len(rng._normals) == 0
    assert rng.randint(0, 1000) == int(raw.integers(0, 1000))
    assert rng.normal() == float(raw.normal())
