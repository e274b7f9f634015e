"""Certified gauge brackets against closed forms and a membership oracle."""
import math
import sys

import numpy as np
import pytest

import bmbodies
from bmbodies.bodies import Ball, HullBody, SignedPoints, ball_body, subset_body
from bmbodies.gauge import GaugeToleranceError, gauge
from bmbodies.randmodel import ModelParams, sample_subsets, substream

from _oracles import OracleGauge


def test_ball_gauges_are_exact():
    rng = np.random.default_rng(12)
    x = rng.normal(size=6)
    for p, norm in ((1.0, np.abs(x).sum()), (2.0, np.linalg.norm(x)), (math.inf, np.abs(x).max())):
        r = gauge(ball_body(6, p, 1.5), x)
        truth = float(norm) / 1.5
        assert r.lo * (1 - 1e-12) <= truth <= r.hi * (1 + 1e-12)
        assert r.hi - r.lo <= 1e-9 * truth


def test_package_attribute_gauge_is_the_module():
    import bmbodies.gauge as G

    assert G is sys.modules["bmbodies.gauge"] is bmbodies.gauge
    assert G.gauge is gauge


def test_gauge_of_zero_is_zero():
    r = gauge(ball_body(4, 2.0, 1.0), np.zeros(4))
    assert r.lo == r.hi == 0.0


def test_bracket_and_scaling():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(3, 5))
    body = HullBody(5, (SignedPoints(pts), Ball(2.0, 0.6)))
    x = rng.normal(size=5)
    r = gauge(body, x, tol=1e-8)
    assert 0.0 < r.lo <= r.hi
    assert r.hi - r.lo <= 1e-8 * max(1.0, r.lo) * 10
    r2 = gauge(body, 3.0 * x, tol=1e-8)
    mid, mid2 = 0.5 * (r.lo + r.hi), 0.5 * (r2.lo + r2.hi)
    assert math.isclose(mid2, 3.0 * mid, rel_tol=1e-6)


def test_gauge_is_subadditive():
    rng = np.random.default_rng(15)
    body = HullBody(4, (SignedPoints(rng.normal(size=(4, 4))), Ball(1.0, 0.8)))
    x, y = rng.normal(size=4), rng.normal(size=4)
    gx = gauge(body, x, tol=1e-9)
    gy = gauge(body, y, tol=1e-9)
    gxy = gauge(body, x + y, tol=1e-9)
    assert gxy.lo <= gx.hi + gy.hi + 1e-6


def test_dual_witness_certifies_lower_bound():
    # the returned direction y proves lo <= <x, y> / h(y)
    from bmbodies.bodies import support_function

    rng = np.random.default_rng(21)
    body = subset_body(
        ModelParams(n=9, delta=0.4, n_subsets=3),
        sample_subsets(9, 4, 3, substream(8, "dw")),
    )
    x = rng.normal(size=9)
    r = gauge(body, x, tol=1e-9)
    y = np.asarray(r.dual_witness, dtype=float)
    h = support_function(body, y)
    assert h > 0
    assert float(x @ y) / h >= r.lo * (1 - 1e-9)


def test_pieces_reassemble_the_point():
    rng = np.random.default_rng(30)
    body = HullBody(4, (SignedPoints(rng.normal(size=(2, 4))), Ball(2.0, 0.5)))
    x = rng.normal(size=4)
    r = gauge(body, x, tol=1e-9)
    total = np.zeros(4)
    for _, piece, _ in r.pieces:
        total += np.asarray(piece, dtype=float)
    np.testing.assert_allclose(total, x, atol=1e-7)


def test_tolerance_error_reports_partial_bracket():
    rng = np.random.default_rng(0)
    body = HullBody(4, (SignedPoints(rng.normal(size=(3, 4))), Ball(2.0, 0.4)))
    x = rng.normal(size=4)
    with pytest.raises(GaugeToleranceError):
        gauge(body, x, tol=1e-12, max_rounds=0)


def test_gauge_matches_membership_oracle_on_random_hulls():
    # smaller version of the acceptance sweep, mixed component types
    rng = np.random.default_rng(77)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        comps = [
            SignedPoints(
                rng.normal(size=(k, n)) * rng.uniform(0.3, 2.0),
                unconditional=bool(trial % 2),
            )
        ]
        if trial % 2 or k < n:
            comps.append(Ball([1.0, 2.0, math.inf][trial % 3], float(rng.uniform(0.2, 1.5))))
        body = HullBody(n, tuple(comps))
        x = rng.normal(size=n) * rng.uniform(0.2, 4.0)
        r = gauge(body, x, tol=1e-9)
        oracle = OracleGauge(body, rng=np.random.default_rng(500 + trial))
        est = oracle.value(x)
        scale = max(est, r.hi, 1e-12)
        assert r.lo - est <= 1e-4 * scale
        assert est - r.hi <= 1e-4 * scale
        assert oracle.queries <= 10**4
