"""Seeded sampling model: named substreams, subsets, and bodies."""
import numpy as np
import pytest

from bmbodies.bodies import check_index_set
from bmbodies.randmodel import (
    ModelParams,
    round_half_up,
    sample_body,
    sample_subsets,
    substream,
)


def test_substream_is_deterministic_and_name_sensitive():
    a = substream(42, "alpha/0").normal(size=8)
    b = substream(42, "alpha/0").normal(size=8)
    c = substream(42, "alpha/1").normal(size=8)
    d = substream(43, "alpha/0").normal(size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2
    assert round_half_up(2.6) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(3.0) == 3


def test_model_params_derives_subset_size():
    p = ModelParams(n=20, delta=0.25, n_subsets=5)
    assert p.m == 5
    p2 = ModelParams(n=10, delta=0.25, n_subsets=2)
    assert p2.m == round_half_up(2.5) == 3
    with pytest.raises(ValueError):
        ModelParams(n=0, delta=0.25, n_subsets=1)
    with pytest.raises(ValueError):
        ModelParams(n=10, delta=0.0, n_subsets=1)
    with pytest.raises(ValueError):
        ModelParams(n=10, delta=1.5, n_subsets=1)


def test_sample_subset_shape_and_range():
    rng = substream(7, "subsets")
    for n, m in ((10, 3), (50, 25), (6, 1)):
        (idx,) = sample_subsets(n, m, 1, rng)
        assert idx.shape == (m,)
        assert len(np.unique(idx)) == m
        assert idx.min() >= 0 and idx.max() < n
        assert np.all(np.diff(idx) > 0)
    many = sample_subsets(12, 4, 9, rng)
    assert many.shape == (9, 4)
    for row in many:
        assert len(np.unique(row)) == 4


def test_check_index_set_validates():
    assert check_index_set([0, 2, 5], 6).tolist() == [0, 2, 5]
    with pytest.raises(ValueError):
        check_index_set([0, 0, 1], 6)
    with pytest.raises(ValueError):
        check_index_set([0, 6], 6)
    with pytest.raises(ValueError):
        check_index_set([-1, 2], 6)


def test_sample_body_matches_params_and_covers_flag():
    rng = substream(5, "body")
    params = ModelParams(n=12, delta=0.5, n_subsets=4)
    bs = sample_body(params, rng)
    assert bs.body.dim == 12
    assert bs.subsets.shape == (4, params.m)
    union = set(bs.subsets.ravel().tolist())
    assert bs.covers_all == (union == set(range(12)))
    # enough subsets of half the coordinates always cover
    wide = sample_body(ModelParams(n=8, delta=0.5, n_subsets=40), substream(5, "body2"))
    assert wide.covers_all


def test_sample_body_is_reproducible():
    params = ModelParams(n=16, delta=0.25, n_subsets=6)
    a = sample_body(params, substream(9, "rep"))
    b = sample_body(params, substream(9, "rep"))
    np.testing.assert_array_equal(a.subsets, b.subsets)
