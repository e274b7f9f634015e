"""Certified gauge brackets against closed forms and a membership oracle."""
import hashlib
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bmbodies
from bmbodies.bodies import (
    Ball,
    Caps,
    HullBody,
    SignedPoints,
    ball_body,
    cap_body,
    circumradius_upper,
    inradius_lower,
    subset_body,
    support_many,
)
from bmbodies.distance import _image_inradius
from bmbodies.gauge import GaugeError, component_value, gauge
from bmbodies.randmodel import ModelParams, sample_body, sample_subsets, substream

from _oracles import (
    OracleGauge,
    cap_image_inradius,
    cap_radii_bounds,
    cap_support_many,
    cap_value,
)


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


def test_box_component_value_matches_the_generator_loop():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.6)
    pts[:, 0] = 1.0
    comp = SignedPoints(pts, unconditional=True)
    for _ in range(20):
        z = rng.normal(size=5) * (rng.random(5) < 0.7)
        ref = math.inf
        for g in pts:
            if np.any((g == 0.0) & (z != 0.0)):
                continue
            ratio = [abs(zi) / abs(gi) for zi, gi in zip(z, g) if gi != 0.0]
            ref = min(ref, max(ratio))
        assert component_value(comp, z, 5) == ref


def test_gauge_of_zero_is_zero():
    r = gauge(ball_body(4, 2.0, 1.0), np.zeros(4))
    assert r.lo == r.hi == 0.0


def test_segment_hull_brackets_are_finite_and_closed():
    # a hull of n + 1 segments has no component that holds most points, so
    # hi starts infinite and only the cone program can close the bracket
    for seed in range(5):
        rng = np.random.default_rng(seed)
        body = HullBody(3, (SignedPoints(rng.normal(size=(4, 3))),))
        for x in rng.normal(size=(10, 3)):
            r = gauge(body, x)
            assert math.isfinite(r.hi)
            assert r.hi - r.lo <= 1e-6 * r.hi


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


def test_tolerance_error_reports_partial_bracket(monkeypatch):
    rng = np.random.default_rng(0)
    body = HullBody(4, (SignedPoints(rng.normal(size=(3, 4))), Ball(2.0, 0.4)))
    x = rng.normal(size=4)
    monkeypatch.setattr(bmbodies.gauge, "_MAX_ROUNDS", 0)
    with pytest.raises(GaugeError, match="status tolerance") as info:
        gauge(body, x, tol=1e-12)
    assert info.value.status == "tolerance"
    assert 0.0 < info.value.lo <= info.value.hi < math.inf


def test_gauge_error_survives_a_pickle_round_trip():
    # a pool worker's failure reaches the parent pickled
    back = pickle.loads(pickle.dumps(GaugeError("gap open", "tolerance", 0.1, 0.2)))
    assert isinstance(back, GaugeError) and str(back) == "gap open"
    assert (back.status, back.lo, back.hi) == ("tolerance", 0.1, 0.2)


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


def _recheck(body, x, r):
    """Both certificates of r, rechecked from closed forms alone."""
    for j, vec, val in r.pieces:
        assert component_value(body.components[j], vec, body.dim) <= val * (1 + 1e-9)
    resid = x - sum((vec for _, vec, _ in r.pieces), np.zeros(body.dim))
    cover = sum(val for _, _, val in r.pieces)
    assert cover + np.linalg.norm(resid) / inradius_lower(body) <= r.hi * (1 + 1e-9)
    assert support_many(body, r.dual_witness[None, :])[0] <= 1 + 1e-9
    assert float(x @ r.dual_witness) >= r.lo - 1e-9 * max(1.0, r.hi)


def test_decomposition_and_witness_recheck_without_the_solver():
    rng = np.random.default_rng(41)
    params = ModelParams(n=16, delta=0.25, n_subsets=40)
    subsets = sample_subsets(16, params.m, 40, substream(41, "recheck/subsets"))
    bodies = [
        subset_body(params, subsets),
        cap_body(params, subsets),
        ball_body(12, 1.0, 1.3),
        ball_body(12, math.inf, 0.7),
        HullBody(6, (SignedPoints(rng.normal(size=(4, 6))), Ball(2.0, 0.5))),
    ]
    lp_runs = 0
    for body in bodies:
        for _ in range(4):
            x = rng.normal(size=body.dim) * rng.uniform(0.2, 3.0)
            r = gauge(body, x, tol=1e-8)
            _recheck(body, x, r)
            lp_runs += r.rounds > 0
    assert lp_runs >= 12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), full=st.booleans(),
       box=st.booleans(), l1=st.booleans())
def test_cap_families_match_the_per_cap_formulas(seed, n, full, box, l1):
    # restricted Ball(2)s of random sizes and radii, among the other kinds
    # of component; the body joins them into one Caps at the first one's
    # place, and every layer must read it as the caps one at a time would
    rng = np.random.default_rng(seed)
    caps = [Ball(2.0, float(rng.uniform(0.3, 2.0)),
                 support=np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False)))
            for _ in range(int(rng.integers(1, 7)))]
    others = [Ball(2.0, float(rng.uniform(0.3, 2.0)))] if full else []
    if box:
        others.append(SignedPoints(rng.uniform(0.2, 1.5, size=(2, n)), unconditional=True))
    if l1:
        others.append(Ball(1.0, float(rng.uniform(0.3, 2.0))))
    comps = list(caps)
    for c in others:
        comps.insert(int(rng.integers(0, len(comps) + 1)), c)
    assume(full or box or l1 or any(c.support.size == n for c in caps))
    body = HullBody(n, comps)
    (family,) = [c for c in body.components if isinstance(c, Caps)]
    assert len(body.components) == len(others) + 1
    first = next(i for i, c in enumerate(comps) if isinstance(c, Ball) and c.support is not None)
    assert body.components[first] is family
    assert family.radii.tolist() == [c.radius for c in caps]
    for row, c in zip(family.mask, caps):
        assert np.flatnonzero(row).tolist() == c.support.tolist()

    ys = rng.normal(size=(8, n)) * (rng.random((8, n)) < 0.7)
    assert np.array_equal(support_many(body, ys), cap_support_many(body, ys))
    assert (inradius_lower(body), circumradius_upper(body)) == cap_radii_bounds(body)
    for c in caps:
        # a point on part of a cap's support, one on all of it, a dense one
        z = np.zeros(n)
        z[c.support] = rng.normal(size=c.support.size) * (rng.random(c.support.size) < 0.6)
        for pt in (z, np.where(z == 0.0, 0.0, 1.0) * rng.normal(size=n), rng.normal(size=n)):
            assert component_value(family, pt, n) == cap_value(body, pt)
            image = np.outer(pt, rng.normal(size=3))
            assert _image_inradius(body, image) == cap_image_inradius(body, image)
    for x in (z, rng.normal(size=n)):
        r = gauge(body, x)
        _recheck(body, x, r)
        for j, vec, val in r.pieces:
            if body.components[j] is family:
                # a cap piece is the column of its cone, summed over every
                # coordinate, so its value may sit an ulp from the cap's
                assert cap_value(body, vec) <= val * (1 + 4e-16)


def test_solver_failure_raises_typed_error_with_status(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # every Newton factorization fails, diagonal shifts included
    monkeypatch.setattr(np.linalg, "cholesky", singular)
    params = ModelParams(n=12, delta=0.25, n_subsets=24)
    body = subset_body(params, sample_subsets(12, params.m, 24, substream(5, "stall")))
    x = np.random.default_rng(5).normal(size=12)
    with pytest.raises(GaugeError, match="status factorization-failed") as info:
        gauge(body, x)
    assert info.value.status == "factorization-failed"
    assert 0.0 < info.value.lo <= info.value.hi < math.inf


def test_cap_point_that_stalled_the_solver_closes():
    params = ModelParams(n=80, delta=0.25, n_subsets=320)
    body = cap_body(params, sample_body(params, substream(2, "capfail/body")).subsets)
    x = substream(2, "capfail/pts").standard_normal(80)
    r = gauge(body, x, tol=1e-6)
    assert r.hi - r.lo <= 1e-6 * r.hi
    _recheck(body, x, r)


def test_subset_body_at_n160_closes():
    params = ModelParams(n=160, delta=0.25, n_subsets=640)
    body = subset_body(params, sample_subsets(160, params.m, 640, substream(3, "n160/body")))
    x = substream(3, "n160/pts").standard_normal(160)
    r = gauge(body, x, tol=1e-6)
    assert 0.0 < r.lo <= r.hi <= r.lo * (1 + 1e-6)


def test_inf_ball_dual_row_carries_the_radius():
    # the dual row of a radius-r inf-ball is r * sum_S |y_i| <= 1; with the
    # radius left out, the dual solve lands outside the dual body and the
    # bracket cannot close
    body = HullBody(6, (Ball(math.inf, 3.0, support=[0, 1, 2]), Ball(2.0, 1.0)))
    x = np.array([1.0, 0.8, 0.6, 0.1, 0.05, 0.02])
    r = gauge(body, x, tol=1e-6)
    assert 0 < r.rounds <= bmbodies.gauge._MAX_ROUNDS
    assert r.hi - r.lo <= 1e-6 * r.hi
    _recheck(body, x, r)


def test_solver_closes_every_body_kind_at_a_tight_tolerance():
    rng = np.random.default_rng(17)
    params = ModelParams(n=16, delta=0.25, n_subsets=40)
    subsets = sample_subsets(16, params.m, 40, substream(17, "kinds/subsets"))
    bodies = {
        "segments": HullBody(5, (SignedPoints(rng.normal(size=(7, 5))),)),
        "segments + ball(2)": HullBody(
            6, (SignedPoints(rng.normal(size=(3, 6))), Ball(2.0, 0.7))
        ),
        "supported ball(inf) + ball(2)": HullBody(
            7, (Ball(math.inf, 1.5, support=[1, 3, 4]), Ball(2.0, 0.9))
        ),
        "ball(1)": HullBody(
            6, (Ball(1.0, 1.2), SignedPoints(rng.normal(size=(2, 6)), unconditional=True))
        ),
        "cap n=16": cap_body(params, subsets),
    }
    for name, body in bodies.items():
        solved = 0
        for _ in range(4):
            x = rng.normal(size=body.dim) * rng.uniform(0.2, 3.0)
            x[:4] *= 3.0  # lean on the inf-ball's support so the closed forms do not close
            r = gauge(body, x, tol=1e-9)
            assert r.hi - r.lo <= 1e-9 * r.hi, name
            _recheck(body, x, r)
            solved += r.rounds > 0
        assert solved >= 3, name


@pytest.mark.parametrize("kind, invocations, points", [("cap", 8, 2), ("subset", 1, 3)])
def test_bench_gauges_close_in_few_iterations_on_a_polished_point(kind, invocations, points):
    # machine-independent: the interior-point iterations of the points the
    # gauge-<kind> bench workload gauges at seed 701, which averaged 13.0
    # (cap) and 12.7 (subset) before the least-squares start and the
    # active-set correction of polish.  Each invocation's CLI seed is
    # hashed as in bench/workloads.py, and its two n = 80 bodies and their
    # points come from the gauge command's streams.
    params = ModelParams(n=80, delta=0.25, n_subsets=320)
    rounds, widths = [], []
    for i in range(invocations):
        digest = hashlib.sha256(f"gauge-{kind}/701/{i}".encode()).digest()
        seed = int.from_bytes(digest[:8], "big")
        for idx in range(2):
            draw = sample_body(params, substream(seed, f"gauge/0/body/{idx}"))
            body = cap_body(params, draw.subsets) if kind == "cap" else draw.body
            rng = substream(seed, f"gauge/0/points/{idx}")
            for _ in range(points):
                r = gauge(body, rng.standard_normal(80))
                rounds.append(r.rounds)
                widths.append((r.hi - r.lo) / r.hi)
    assert len(rounds) == 2 * invocations * points
    assert np.mean(rounds) <= 8.0
    assert max(widths) <= 1e-11
