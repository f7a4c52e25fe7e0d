"""Deterministic random stream: reproducibility, derivation, distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldbundle import rng as rng_module
from coldbundle.rng import Rng, johnk_beta


def test_same_seed_same_stream():
    a = Rng(42).uniform(100)
    b = Rng(42).uniform(100)
    np.testing.assert_array_equal(a, b)


def test_counter_advances():
    r = Rng(42)
    a = r.uniform(50)
    b = r.uniform(50)
    assert not np.array_equal(a, b)


def test_derive_independent_of_parent_state():
    r1 = Rng(7)
    r1.uniform(10)
    r2 = Rng(7)
    np.testing.assert_array_equal(r1.derive("x").uniform(5), r2.derive("x").uniform(5))


def test_derive_distinct_labels():
    r = Rng(7)
    assert r.derive("a").seed != r.derive("b").seed


def test_uniform_range():
    u = Rng(1).uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_moments():
    z = Rng(3).normal(200000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_integers_range_and_coverage():
    v = Rng(5).integers(5000, 2, 9)
    assert v.min() >= 2 and v.max() < 9
    assert set(np.unique(v).tolist()) == set(range(2, 9))


def test_integers_empty_range_raises():
    with pytest.raises(ValueError):
        Rng(0).integers(1, 3, 3)


def test_permutation_is_permutation():
    p = Rng(11).permutation(257)
    assert sorted(p.tolist()) == list(range(257))


def test_choice_distinct():
    c = Rng(13).choice(50, 10)
    assert len(set(c.tolist())) == 10
    with pytest.raises(ValueError):
        Rng(13).choice(3, 4)


def test_uniform_init_bound():
    w = Rng(17).uniform_init((64, 64), 64)
    assert np.all(np.abs(w) <= 1.0 / 8.0)


@given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_beta_in_unit_interval(seed, a):
    x = johnk_beta(Rng(seed), 16, a)
    assert np.all((x >= 0.0) & (x <= 1.0))


def test_beta_mean_symmetric():
    values = johnk_beta(Rng(23), 4000, 0.9)
    assert abs(np.mean(values) - 0.5) < 0.03


@pytest.mark.parametrize("block", [1, 3, 7, 4096])
def test_replay_reads_the_scalar_stream(monkeypatch, block):
    """raw hands out the scalar calls' draws, across block boundaries and
    runs of draws longer than a block, and the counter ends just past the
    last draw handed out."""
    monkeypatch.setattr(rng_module, "REPLAY_BLOCK", block)
    ref = Rng(31)
    ref.raw(5)
    r = Rng(31)
    r.raw(5)
    with r.replay() as draws:
        for n in (1, 2, 9, 1, 0, 4, 20, 1):
            assert [draws.raw() for _ in range(n)] == ref.raw(n).tolist()
            assert draws.raw() == int(ref.raw(1)[0])
    assert r._counter == ref._counter
    np.testing.assert_array_equal(r.raw(6), ref.raw(6))


def test_replay_sets_counter_on_exception_and_without_draws():
    r = Rng(2)
    with r.replay():
        pass
    assert r._counter == 0
    with pytest.raises(KeyError), r.replay() as draws:
        [draws.raw() for _ in range(3)]
        raise KeyError("stop")
    assert r._counter == 3


def test_python_pow_equals_numpy_scalar_pow():
    """Johnk's x = u ** (1/a) in Python floats and numpy float64 scalars
    agree bitwise, subnormal results included.  (numpy's array power may
    round differently; `johnk_beta` takes its values from scalar pow.)"""
    u = Rng(41).uniform(200_000)
    for a in (0.9, 0.02, 0.002):
        want = np.array([v ** (1.0 / a) for v in u])
        got = np.array([v ** (1.0 / a) for v in u.tolist()])
        assert got.tobytes() == want.tobytes()
    assert np.count_nonzero((want > 0) & (want < np.finfo(float).tiny)) > 0


def test_math_pow_equals_numpy_scalar_pow():
    """`math.pow` calls the same C pow as Python's ** and numpy's float64
    scalars, so Johnk's x = u ** (1/a) agrees bitwise, subnormals included."""
    u = Rng(41).uniform(200_000)
    for a in (0.9, 0.5, 0.02, 0.002):
        want = np.array([v ** (1.0 / a) for v in u])
        got = np.array([math.pow(v, 1.0 / a) for v in u.tolist()])
        assert got.tobytes() == want.tobytes()
