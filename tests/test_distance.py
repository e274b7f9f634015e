"""Operator norms, distance upper bounds, event checks, separation runs."""
import itertools
import math

import numpy as np
import pytest

from bmbodies.bodies import (
    Ball,
    HullBody,
    SignedPoints,
    ball_body,
    cap_body,
    subset_body,
)
from bmbodies import distance
from bmbodies.distance import (
    BmOptions,
    CertificationError,
    OpNormResult,
    SeparationOptions,
    _dual_probes,
    _guided_points,
    bm_upper,
    cap_projection_norms,
    check_one_body,
    check_one_vector,
    event_alpha,
    op_norm,
    run_separation,
    separation_scale,
)
from bmbodies.gauge import gauge
from bmbodies.linalg import PigeonholeError
from bmbodies.randmodel import (
    ModelParams,
    sample_body,
    sample_subsets,
    sample_test_vector,
    substream,
)


def _brute_extremes(body):
    """All extreme points of a polytopal hull body."""
    pts = []
    for c in body.components:
        if isinstance(c, SignedPoints):
            if c.unconditional:
                for g in np.abs(np.asarray(c.points, dtype=float)):
                    for signs in itertools.product((1.0, -1.0), repeat=body.dim):
                        pts.append(np.asarray(signs) * g)
            else:
                for g in np.asarray(c.points, dtype=float):
                    pts.extend((g, -g))
        elif c.p == 1.0:
            for j in range(body.dim):
                e = np.zeros(body.dim)
                e[j] = c.radius
                pts.extend((e, -e))
        elif c.p == math.inf:
            for signs in itertools.product((1.0, -1.0), repeat=body.dim):
                pts.append(c.radius * np.asarray(signs))
        else:
            raise AssertionError("euclidean components have no finite extreme set")
    return pts


def test_op_norm_closed_form_columns():
    # l1 -> l1 norm is the largest column l1 norm
    rng = np.random.default_rng(1)
    t = rng.normal(size=(4, 4))
    K = HullBody(4, (Ball(1.0, 1.0),))
    r = op_norm(t, K, K)
    brute = max(float(np.abs(t[:, j]).sum()) for j in range(4))
    assert r.lo == r.hi == brute
    assert r.mode == "exhaustive"
    # the witness is a vertex achieving the norm
    assert math.isclose(float(np.abs(t @ r.witness).sum()), brute, rel_tol=1e-12)


def test_op_norm_matches_brute_force_on_mixed_polytopes():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        t = rng.normal(size=(n, n))
        src = HullBody(
            n,
            (
                SignedPoints(rng.normal(size=(2, n)), unconditional=bool(trial % 2)),
                Ball(math.inf if trial % 3 else 1.0, float(rng.uniform(0.3, 1.2))),
            ),
        )
        dst = HullBody(n, (Ball(1.0 if trial % 2 else math.inf, 1.3),))
        r = op_norm(t, src, dst)
        norm = (
            (lambda v: float(np.abs(v).sum()) / 1.3)
            if trial % 2
            else (lambda v: float(np.abs(v).max()) / 1.3)
        )
        brute = max(norm(t @ p) for p in _brute_extremes(src))
        assert r.lo == brute
        assert r.hi == brute


def test_op_norm_scales_linearly():
    rng = np.random.default_rng(9)
    t = rng.normal(size=(3, 3))
    K = ball_body(3, math.inf, 1.0)
    K2 = HullBody(3, (Ball(1.0, 1.0),))
    a = op_norm(t, K, K2)
    b = op_norm(2.5 * t, K, K2)
    assert math.isclose(b.hi, 2.5 * a.hi, rel_tol=1e-12)


def test_op_norm_bracket_contract():
    # mixed euclidean pieces may carry rounding dust but never a real
    # inversion, and the dataclass enforces exactly that contract
    rng = np.random.default_rng(13)
    K = ball_body(5, 1.0, 1.0)
    r = op_norm(rng.normal(size=(5, 5)), K, K)
    assert r.lo <= r.hi * (1 + 1e-9) + 1e-12
    with pytest.raises(ValueError):
        OpNormResult(lo=-0.5, hi=1.0, witness=None, mode="exhaustive", notes=[])
    with pytest.raises(ValueError):
        OpNormResult(lo=2.0, hi=1.0, witness=None, mode="exhaustive", notes=[])


def test_op_norm_falls_back_to_guided_signs_above_the_cutoff():
    rng = np.random.default_rng(3)
    n = 17
    g = rng.uniform(0.2, 1.0, size=n) * np.where(rng.random(n) < 0.4, -1.0, 1.0)
    wide = HullBody(n, (SignedPoints(g[None, :], unconditional=True),))
    dst = ball_body(n, 1.0, 1.5)
    t = rng.normal(size=(n, n))
    r = op_norm(t, wide, dst)
    # the l1-ball gauge is |Tv|_1 / 1.5, maximized over all 2^17 vertices
    verts = np.array(list(itertools.product((1.0, -1.0), repeat=n))) * g
    brute = float(np.abs(verts @ t.T).sum(axis=1).max()) / 1.5
    assert 0.0 < r.lo <= brute * (1 + 1e-12)
    assert np.array_equal(np.abs(r.witness), np.abs(g))
    assert math.isclose(r.lo, float(np.abs(t @ r.witness).sum()) / 1.5, rel_tol=1e-9)
    # the l1 ball is solid, so the box's upper bound is the gauge of |T||g|
    dominated = float((np.abs(t) @ np.abs(g)).sum()) / 1.5
    assert brute <= r.hi <= dominated * (1 + 1e-12)
    assert r.mode == "guided"
    assert any("component 0, generator 0" in note and "domination" in note for note in r.notes)


def test_op_norm_guided_box_on_a_conditional_target_has_no_upper_bound():
    rng = np.random.default_rng(3)
    n = 17
    wide = HullBody(n, (SignedPoints(rng.uniform(0.2, 1.0, size=(1, n)), unconditional=True),))
    # segments are not sign-invariant, so no domination bound applies
    dst = HullBody(n, (SignedPoints(rng.normal(size=(n + 2, n))),))
    r = op_norm(rng.normal(size=(n, n)), wide, dst)
    assert r.lo > 0.0
    assert r.hi == math.inf
    assert r.mode == "guided"
    assert any(
        "component 0, generator 0" in note and "unavailable" in note for note in r.notes
    )


def test_bm_upper_without_a_certified_candidate_raises_a_typed_error():
    rng = np.random.default_rng(4)
    n = 17
    wide = HullBody(n, (SignedPoints(rng.uniform(0.2, 1.0, size=(1, n)), unconditional=True),))
    dst = HullBody(n, (SignedPoints(rng.normal(size=(n + 2, n))),))
    with pytest.raises(CertificationError, match="component 0, generator 0"):
        bm_upper(wide, dst, BmOptions(n_diag=1, certify_top=1))


def _vertex_reference(t, src, dst):
    """Bracket from a full gauge of T p at every extreme point p of the
    polytopal source, with no pruning and no memo."""
    lo = hi = 0.0
    for p in np.unique(np.array(_brute_extremes(src)), axis=0):
        g = gauge(dst, t @ p, tol=1e-6)
        lo, hi = max(lo, g.lo), max(hi, g.hi)
    return lo, hi


def _count_gauge_calls(monkeypatch):
    calls = []
    real = distance.gauge

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(distance, "gauge", counting)
    return calls


def test_op_norm_on_monomial_maps_gauges_each_box_once(monkeypatch):
    stream = substream(31, "test/monomial")
    params = ModelParams(n=8, delta=0.5, n_subsets=16)
    a, b = sample_body(params, stream), sample_body(params, stream)
    assert a.covers_all
    src = HullBody(8, a.body.components[:1])  # the box family alone
    n_gens = src.components[0].points.shape[0]
    rng = np.random.default_rng(0)
    calls = _count_gauge_calls(monkeypatch)
    for _ in range(3):
        t = np.zeros((8, 8))
        signs = rng.choice([-1.0, 1.0], size=8)
        t[np.arange(8), rng.permutation(8)] = signs * np.exp(rng.uniform(-0.5, 0.5, 8))
        calls.clear()
        r = op_norm(t, src, b.body)
        assert len(calls) <= n_gens
        lo, hi = _vertex_reference(t, src, b.body)
        assert math.isclose(r.lo, lo, rel_tol=1e-9)
        assert math.isclose(r.hi, hi, rel_tol=1e-9)
        assert r.mode == "exhaustive"


def test_op_norm_pruning_by_domination_matches_all_vertices():
    stream = substream(32, "test/prune")
    params = ModelParams(n=8, delta=0.5, n_subsets=6)
    body = sample_body(params, stream).body
    dst = sample_body(params, stream).body
    src = HullBody(8, body.components[:2])  # boxes and the l1 ball
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.normal(size=(8, 8))
        r = op_norm(t, src, dst)
        lo, hi = _vertex_reference(t, src, dst)
        assert math.isclose(r.lo, lo, rel_tol=1e-9)
        assert math.isclose(r.hi, hi, rel_tol=1e-9)


def test_op_norm_repeat_call_is_served_by_the_gauge_memo(monkeypatch):
    bodies = _model_bodies(2, substream(33, "test/memo"))
    t = np.random.default_rng(2).normal(size=(8, 8))
    calls = _count_gauge_calls(monkeypatch)
    first = op_norm(t, bodies[0], bodies[1])
    assert calls
    calls.clear()
    second = op_norm(t, bodies[0], bodies[1])
    assert calls == []
    assert (second.lo, second.hi, second.mode) == (first.lo, first.hi, first.mode)
    assert np.array_equal(second.witness, first.witness)


def test_op_norm_gauges_one_point_per_sign_pair(monkeypatch):
    # hull bodies are symmetric, so gauge(-x) = gauge(x): after x, the memo
    # serves -x on the same body and tol
    bodies = _model_bodies(2, substream(34, "test/pairs"))
    t = np.random.default_rng(3).normal(size=(8, 8))
    real = distance.gauge

    def recorder(seen):
        def recording(body, x, tol=1e-6, **kwargs):
            seen.append((id(body), tol, np.array(x)))
            return real(body, x, tol=tol, **kwargs)

        return recording

    def negations(seen):
        return sum(
            any(b == b0 and tol == t0 and np.array_equal(-x, x0) for b0, t0, x0 in seen[:i])
            for i, (b, tol, x) in enumerate(seen)
        )

    seen = []
    monkeypatch.setattr(distance, "gauge", recorder(seen))
    res = op_norm(t, bodies[0], bodies[1])
    assert seen and negations(seen) == 0

    # the same op_norm with every point gauged afresh asks for negations
    # and gives the same bracket and witness value
    def fresh_gauge(k2, x, tol):
        g = distance.gauge(k2, x, tol=tol)
        return g.lo, g.hi

    plain = []
    fresh_bodies = _model_bodies(2, substream(34, "test/pairs"))
    monkeypatch.setattr(distance, "gauge", recorder(plain))
    monkeypatch.setattr(distance, "_gauge", fresh_gauge)
    ref = op_norm(t, fresh_bodies[0], fresh_bodies[1])
    assert negations(plain) > 0
    assert (res.lo, res.hi) == (ref.lo, ref.hi)
    assert real(bodies[1], t @ res.witness).lo == real(bodies[1], t @ ref.witness).lo


def test_guided_points_attain_the_best_probe_score_over_all_vertices():
    rng = np.random.default_rng(5)
    n = 10
    g = rng.normal(size=n)
    assert np.any(g < 0.0)
    t = rng.normal(size=(n, n))
    probes = _dual_probes(ball_body(n, 1.0, 1.0))
    verts = np.array(list(itertools.product((1.0, -1.0), repeat=n))) * g
    best_all = float(np.abs((verts @ t.T) @ probes.T).max())
    guided = _guided_points(t, g, probes)
    assert np.array_equal(np.abs(guided), np.tile(np.abs(g), (len(probes), 1)))
    # the i-th guided vertex attains the i-th probe's maximum
    per_probe = np.abs((verts @ t.T) @ probes.T).max(axis=0)
    own = np.abs(np.einsum("ij,ij->i", guided @ t.T, probes))
    assert np.allclose(own, per_probe, rtol=1e-12, atol=0.0)
    assert math.isclose(float(own.max()), best_all, rel_tol=1e-12)


def test_bm_upper_identity_and_structure():
    K = ball_body(4, 1.0, 1.0)
    est = bm_upper(K, K)
    assert est.upper <= 1.0 + 1e-9
    assert est.best_map.shape == (4, 4)
    assert math.isclose(est.norm_fwd * est.norm_inv, est.upper, rel_tol=1e-9)
    names = [c["name"] for c in est.candidates]
    assert "identity" in names
    assert any("certified" in c for c in est.candidates)


def test_bm_upper_cube_and_cross_agree_in_dimension_two():
    # the planar cross-polytope is a rotated square
    est = bm_upper(ball_body(2, 1.0, 1.0), ball_body(2, math.inf, 1.0))
    assert est.upper <= 1.0 + 1e-6


def test_bm_upper_is_scale_invariant():
    K = ball_body(3, 1.0, 1.0)
    K2 = ball_body(3, math.inf, 1.0)
    a = bm_upper(K, K2)
    b = bm_upper(K, ball_body(3, math.inf, 7.0))
    assert math.isclose(a.upper, b.upper, rel_tol=1e-6)


def test_event_scalings():
    assert math.isclose(event_alpha(2.0, 0.25, 8.0), 2.0 / (0.5 * math.log(8.0)), rel_tol=1e-12)
    assert math.isclose(
        separation_scale(1.5, 0.25), 1.5 / (0.25 * math.log(4.0) ** 2), rel_tol=1e-12
    )


def test_check_one_vector_judges_certified_gauge():
    params = ModelParams(n=8, delta=0.5, n_subsets=3)
    subs = sample_subsets(8, params.m, 3, substream(11, "s"))
    cap = cap_body(params, subs)
    tv = sample_test_vector(8, params.m, substream(11, "tv"))
    v = 3.0 * np.eye(8) + 0.1 * substream(11, "v").normal(size=(8, 8))
    rep = check_one_vector(v, cap, tv, alpha=5.0)
    assert rep.kind == "one-vector"
    assert rep.outcome == (rep.gauge_hi <= 5.0)
    assert rep.metadata["subset"] == tv.subset.tolist()
    # the normalization makes the outcome scale-free in the map
    rep_scaled = check_one_vector(100.0 * v, cap, tv, alpha=5.0)
    assert math.isclose(rep_scaled.gauge_hi, rep.gauge_hi, rel_tol=1e-9)
    tight = check_one_vector(v, cap, tv, alpha=rep.gauge_lo * 0.5)
    assert not tight.outcome


def test_check_one_vector_diagnostics_hit_pigeonhole_on_steep_spectrum():
    params = ModelParams(n=8, delta=0.5, n_subsets=3)
    subs = sample_subsets(8, params.m, 3, substream(12, "s"))
    cap = cap_body(params, subs)
    tv = sample_test_vector(8, params.m, substream(12, "tv"))
    v = np.diag([4.0 ** (8 - i) for i in range(8)])
    with pytest.raises(PigeonholeError):
        check_one_vector(v, cap, tv, alpha=5.0, diagnostics=True)


def test_cap_projection_norms_bounded_by_block_norm():
    rng = substream(13, "v")
    v = 2.0 * np.eye(8) + 0.2 * rng.normal(size=(8, 8))
    subs = sample_subsets(8, 4, 3, substream(13, "s"))
    y = rng.normal(size=8)
    norms = cap_projection_norms(v, subs, y)
    assert len(norms) == 3
    assert all(v >= 0 for v in norms)
    # projections of Qy can never exceed |Qy|
    from bmbodies.linalg import build_projectors, spectral_interval, spectral_norm, svd

    dec = svd(v)
    q, _ = build_projectors(dec, spectral_interval(dec.s, spectral_norm(v)))
    qy = float(np.linalg.norm(q @ y))
    assert all(x <= qy * (1 + 1e-9) for x in norms)


def test_check_one_body_reports_coverage():
    params = ModelParams(n=6, delta=0.5, n_subsets=2)
    # force a family that misses coordinate 5
    subs = np.array([[0, 1, 2], [1, 2, 3]])
    K = subset_body(params, subs)
    v = 2.0 * np.eye(6)
    rep = check_one_body(v, K, K, alpha=10.0)
    assert rep.kind == "one-body"
    assert rep.metadata["coverage"] is False
    covered = subset_body(params, np.array([[0, 1, 2], [3, 4, 5]]))
    rep2 = check_one_body(v, covered, covered, alpha=10.0)
    assert rep2.metadata["coverage"] is True
    assert rep2.outcome == (rep2.gauge_hi <= 10.0)
    assert rep2.metadata["op_hi"] >= rep2.metadata["op_lo"] * (1 - 1e-9)


_LIGHT = SeparationOptions(
    bm=BmOptions(n_diag=2, signed_perm_limit=2, refine=False, certify_top=1)
)


def _model_bodies(count, stream):
    params = ModelParams(n=8, delta=0.5, n_subsets=3)
    return [sample_body(params, stream).body for _ in range(count)]


def test_run_separation_report_shape():
    rep = run_separation(_model_bodies(3, substream(11, "sep")), opts=_LIGHT)
    m = rep.matrix
    assert m.shape == (3, 3)
    np.testing.assert_allclose(np.diag(m), 1.0)
    np.testing.assert_allclose(m, m.T)
    assert rep.hist_counts.sum() == 3  # three off-diagonal pairs
    assert len(rep.hist_edges) == len(rep.hist_counts) + 1
    assert rep.missing_pairs == []
    assert list(rep.estimates) == [(0, 1), (0, 2), (1, 2)]
    for (i, j), est in rep.estimates.items():
        assert m[i, j] == est.upper == est.norm_fwd * est.norm_inv
    assert rep.n_below_threshold == int((m[np.triu_indices(3, 1)] < rep.threshold).sum())


def test_run_separation_budget_marks_missing_pairs():
    rep = run_separation(
        _model_bodies(3, substream(11, "sep")),
        opts=SeparationOptions(max_pairs=1, bm=_LIGHT.bm),
    )
    assert rep.missing_pairs == [(0, 2), (1, 2)]
    assert list(rep.estimates) == [(0, 1)]
    assert int(np.sum(np.isnan(rep.matrix))) == 4
    assert rep.hist_counts.sum() == 1


def test_run_separation_is_reproducible():
    a = run_separation(_model_bodies(3, substream(14, "sep")), opts=_LIGHT)
    b = run_separation(_model_bodies(3, substream(14, "sep")), opts=_LIGHT)
    np.testing.assert_array_equal(a.matrix, b.matrix)
