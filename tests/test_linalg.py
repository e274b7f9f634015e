"""Dense linear algebra invariants and the flat-interval scan."""
import math

import numpy as np
import pytest

from bmbodies.linalg import (
    PigeonholeError,
    SpectralInterval,
    check_matrix,
    hs_norm,
    spectral_interval,
    spectral_norm,
    svd,
)

from _oracles import charpoly_singular_values


def test_svd_reconstructs_and_orders():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        a = rng.normal(size=(n, n))
        dec = svd(a)
        assert np.all(np.diff(dec.s) <= 0)
        assert np.all(dec.s >= 0)
        np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-12)
        np.testing.assert_allclose(dec.u.T @ dec.u, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(dec.v.T @ dec.v, np.eye(n), atol=1e-12)


def test_singular_values_match_characteristic_polynomial():
    # cross-check against root finding on det(t I - A^T A)
    rng = np.random.default_rng(11)
    for n in (2, 4, 7):
        a = rng.normal(size=(n, n))
        ref = charpoly_singular_values(a)
        got = svd(a).s
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


def test_norms_against_direct_formulas():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    assert math.isclose(hs_norm(a), math.sqrt(float((a * a).sum())), rel_tol=1e-13)
    assert math.isclose(spectral_norm(a), float(svd(a).s[0]), rel_tol=1e-12)
    # rank-one case is exact: |u v^T|_op = |u| |v|
    u, v = rng.normal(size=6), rng.normal(size=6)
    assert math.isclose(
        spectral_norm(np.outer(u, v)),
        float(np.linalg.norm(u) * np.linalg.norm(v)),
        rel_tol=1e-12,
    )


def test_check_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        check_matrix(np.ones(3))
    with pytest.raises(ValueError):
        check_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        check_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    assert check_matrix(np.ones((2, 3)), square=False).shape == (2, 3)


def test_interval_dataclass_validates():
    with pytest.raises(ValueError):
        SpectralInterval(i1=3, i2=3, r=0, ratio=1.0)
    with pytest.raises(ValueError):
        SpectralInterval(i1=1, i2=3, r=1, ratio=1.0)
    with pytest.raises(ValueError):
        SpectralInterval(i1=1, i2=2, r=1, ratio=2.5)
    SpectralInterval(i1=2, i2=4, r=2, ratio=1.5)


def test_interval_scan_finds_flat_block():
    s = np.array([8.0, 7.5, 7.0, 6.5, 2.0, 1.5, 1.0, 1.0])
    iv = spectral_interval(s, norm_v=float(s[0]))
    assert 1 <= iv.i1 < iv.i2 <= len(s) // 2
    assert s[iv.i1 - 1] / s[iv.i2 - 1] <= 2.0
    assert iv.r == iv.i2 - iv.i1


def test_interval_block_length_formula():
    n = 64
    s = np.linspace(30.0, 1.0, n)
    for c0 in (0.5, 0.25):
        iv = spectral_interval(s, norm_v=float(s[0]), c0=c0)
        want = max(1, int(math.floor(c0 * n / max(1.0, math.log2(s[0])))))
        assert iv.r == min(want, n // 2 - 1)


def test_interval_rejects_bad_spectra():
    with pytest.raises(ValueError):
        spectral_interval(np.array([3.0, 2.0, 1.0]), norm_v=3.0)  # n too small
    with pytest.raises(ValueError):
        spectral_interval(np.array([1.0, 2.0, 3.0, 4.0]), norm_v=4.0)  # increasing
    with pytest.raises(ValueError):
        spectral_interval(np.array([4.0, 0.9, 0.5, 0.4]), norm_v=4.0)  # s[n/2] < 1
    s = np.array([4.0, 3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        spectral_interval(s, norm_v=0.5)
    with pytest.raises(ValueError):
        spectral_interval(s, norm_v=4.0, c0=0.9)


def test_pigeonhole_error_on_steep_spectrum():
    # every consecutive pair drops by more than 2, and norm_v is large
    # enough to force unit block length, so no admissible block exists
    n = 8
    s = np.array([4.0 ** (n - i) for i in range(n)])
    with pytest.raises(PigeonholeError):
        spectral_interval(s, norm_v=float(s[0]))

