"""Operator norms, distance upper bounds, event checks, separation runs."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmbodies.bodies import (
    Ball,
    HullBody,
    SignedPoints,
    ball_body,
    cap_body,
    subset_body,
    support_many,
)
from bmbodies import distance
from bmbodies.distance import (
    BmOptions,
    CertificationError,
    OpNormResult,
    SeparationOptions,
    _ball2_points,
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
        bm_upper(wide, dst, BmOptions(n_diag=1))


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
        return g.lo, g.hi, g.dual_witness

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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    target=st.sampled_from(["subset", "cap"]),
    spread=st.sampled_from([0.0, 0.05, 0.3]),
)
def test_ball2_points_attain_the_best_probe_score_over_the_sphere(seed, n, target, spread):
    # for a dual probe y, u_y = T_S^T y / |T_S^T y| maximizes <y, T_S u> over
    # the unit sphere, so r * |T_S^T y| is the best score a point of the
    # piece r * B_2^S can get from y, and op_norm's lo must reach it
    params = ModelParams(n=n, delta=0.5, n_subsets=2 * n)
    draws = [sample_body(params, substream(seed, f"test/ball2/{i}")) for i in range(2)]
    k = cap_body(params, draws[0].subsets)
    k2 = cap_body(params, draws[1].subsets) if target == "cap" else draws[1].body
    t = np.eye(n) + spread * np.random.default_rng(seed).normal(size=(n, n))
    probes = _dual_probes(k2)
    best = 0.0
    for c in k.components:
        if not (isinstance(c, Ball) and c.p == 2.0):
            continue
        sup = np.arange(n) if c.support is None else c.support
        pts = _ball2_points(t, sup, c.radius, k2)
        off = np.ones(n, dtype=bool)
        off[sup] = False
        assert not np.any(pts[:, off])
        assert np.allclose(np.linalg.norm(pts, axis=1), c.radius, rtol=1e-12, atol=0.0)
        best = max(best, c.radius * float(np.linalg.norm(probes @ t[:, sup], axis=1).max()))
    assert op_norm(t, k, k2).lo >= (1.0 - 1e-6) * best


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


def _model_pair(kind, n, seed):
    """Two model bodies of the given kind, as the dist command builds them."""
    params = ModelParams(n=n, delta=0.5, n_subsets=2 * n)
    out = []
    for i in range(2):
        draw = sample_body(params, substream(seed, f"test/pair/{i}"))
        out.append(cap_body(params, draw.subsets) if kind == "cap" else draw.body)
    return out


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    kind=st.sampled_from(["subset", "cap"]),
)
def test_abort_bar_bound_is_below_the_gauge(seed, n, kind):
    # bm_upper bars a candidate T with a gauge-free lower bound on
    # |T^-1 : K2 -> K|: h_K2(T^-T y) over the dual probes y of K, which have
    # h_K(y) = 1, times 1 - 1e-12
    k, k2 = _model_pair(kind, n, seed)
    t = np.eye(n) + 0.5 * np.random.default_rng(seed).normal(size=(n, n))
    inv = np.linalg.inv(t)
    bound = float(support_many(k2, _dual_probes(k) @ inv).max())
    assert bound * (1.0 - 1e-12) <= op_norm(inv, k2, k).hi


# the CLI seed the dist benchmark derives from its seed 701
_BENCH_DIST_SEED = 10120829680025015861


def _dist_pair(kind, n, seed, n_subsets=None):
    """The two bodies the dist command builds at n, delta = 0.5 and
    n_subsets subsets (2n by default)."""
    params = ModelParams(n=n, delta=0.5, n_subsets=n_subsets or 2 * n)
    out = []
    for i in range(2):
        draw = sample_body(params, substream(seed, f"dist/0/body/{i}"))
        out.append(cap_body(params, draw.subsets) if kind == "cap" else draw.body)
    return out


def test_op_norm_closes_the_identity_bracket_on_the_bench_seed_cap_pair():
    # a sign probe's closed-form point gauges at sqrt 2 = hi, although a
    # Gaussian probe's point scores higher and gauges lower
    res = op_norm(np.eye(4), *_dist_pair("cap", 4, _BENCH_DIST_SEED))
    assert res.lo >= res.hi * (1.0 - 1e-9)


@pytest.mark.parametrize(
    "kind,n,seed", [("subset", 8, _BENCH_DIST_SEED), ("cap", 8, _BENCH_DIST_SEED), ("subset", 4, 701)]
)
def test_bm_upper_abort_bar_changes_no_result(monkeypatch, kind, n, seed):
    calls = _count_gauge_calls(monkeypatch)
    barred = bm_upper(*_dist_pair(kind, n, seed))
    n_barred = len(calls)
    calls.clear()
    # without its bar every candidate is fully certified
    real = distance.op_norm
    monkeypatch.setattr(distance, "op_norm", lambda t, k, k2, bar=math.inf: real(t, k, k2))
    full = bm_upper(*_dist_pair(kind, n, seed))
    # a stopped candidate could have beaten the best by at most 1 - 1e-9
    assert full.upper <= barred.upper <= full.upper / (1.0 - 1e-9)
    assert len(barred.candidates) == len(full.candidates)
    aborted = []
    for got, ref in zip(barred.candidates, full.candidates):
        if "lower" in got:
            aborted.append(got["name"])
            assert got["name"] == ref["name"] and set(got) == {"name", "lower"}
            assert barred.upper * (1.0 - 1e-9) <= got["lower"] * (1.0 + 1e-12)
            assert got["lower"] <= ref["certified"] * (1.0 + 1e-12)
        else:
            assert got == ref
    if n == 8:
        # every other map loses to the identity at the bench seed; on the
        # cap pair the Hadamard map ties it and stops
        assert aborted == [*(f"diag{i}" for i in range(8)), "hadamard"]
        assert n_barred < len(calls)
    else:
        assert not aborted or n_barred < len(calls)


def test_bm_upper_stops_a_hadamard_map_that_ties_the_identity(monkeypatch):
    # the identity and the Hadamard map both certify 2.0000000000000004
    # here, and a tie certified in full costs thousands of gauges
    params = ModelParams(n=16, delta=0.5, n_subsets=32)
    bodies = [sample_body(params, substream(5, f"dist/0/body/{i}")).body for i in range(2)]
    calls = _count_gauge_calls(monkeypatch)
    est = bm_upper(*bodies)
    assert len(calls) <= 300
    assert est.upper == 2.0000000000000004
    assert est.candidates[-1]["name"] == "hadamard" and "lower" in est.candidates[-1]


@pytest.mark.parametrize(
    "kind,n,seed,n_subsets",
    [("subset", 8, _BENCH_DIST_SEED, None), ("cap", 8, _BENCH_DIST_SEED, None),
     ("subset", 4, 3, None), ("subset", 4, 3, 4), ("cap", 6, 41, None), ("subset", 2, 5, None)],
)
def test_bm_upper_certifies_every_candidate_identity_first(kind, n, seed, n_subsets):
    est = bm_upper(*_dist_pair(kind, n, seed, n_subsets))
    assert est.candidates[0]["name"] == "identity" and "certified" in est.candidates[0]
    assert est.upper <= est.candidates[0]["certified"]
    # every candidate gets exactly one outcome, in generation order
    names = ["identity", *(f"diag{i}" for i in range(8))]
    if n <= 4:
        names += [f"perm{i}" for i in range(math.factorial(n))]
    if distance._hadamard(n) is not None:
        names.append("hadamard")
    assert [c["name"] for c in est.candidates] == names
    assert all(len(c) == 2 and ("certified" in c) != ("lower" in c) for c in est.candidates)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    kind=st.sampled_from(["subset", "cap"]),
    base=st.sampled_from(["identity", "hadamard"]),
    spread=st.sampled_from([0.0, 0.05, 0.3]),
    frac=st.one_of(st.just(1.0), st.floats(0.5, 1.5)),
)
def test_op_norm_under_a_bar_stops_only_past_it(seed, n, kind, base, spread, frac):
    had = distance._hadamard(n)
    t = had if base == "hadamard" and had is not None else np.eye(n)
    t = t + spread * np.random.default_rng(seed).normal(size=(n, n))
    ref = op_norm(t, *_model_pair(kind, n, seed))
    # frac = 1 puts the bar exactly at the norm's lo: a tie stops
    bar = frac * ref.lo
    try:
        res = op_norm(t, *_model_pair(kind, n, seed), bar=bar)
    except distance._BarReached as stop:
        assert bar * (1.0 - 1e-9) <= stop.lo <= ref.lo
    else:
        assert ref.lo < bar * (1.0 - 1e-9)
        assert (res.lo, res.hi, res.mode, res.notes) == (ref.lo, ref.hi, ref.mode, ref.notes)
        assert res.witness.tobytes() == ref.witness.tobytes()


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


_LIGHT = SeparationOptions(bm=BmOptions(n_diag=2))


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


def test_run_separation_lists_an_uncertified_pair_and_keeps_the_others(monkeypatch):
    bodies = _model_bodies(3, substream(11, "sep"))
    bm_upper = distance.bm_upper

    def fails_on_one_pair(body_a, body_b, opts):
        if body_a is bodies[0] and body_b is bodies[2]:
            raise CertificationError("no candidate map produced a certified bound")
        return bm_upper(body_a, body_b, opts)

    monkeypatch.setattr(distance, "bm_upper", fails_on_one_pair)
    rep = run_separation(bodies, opts=_LIGHT)
    assert rep.failed_pairs == [(0, 2, "no candidate map produced a certified bound")]
    assert list(rep.estimates) == [(0, 1), (1, 2)]
    assert rep.missing_pairs == []
    assert np.isnan(rep.matrix[0, 2]) and np.isnan(rep.matrix[2, 0])
    assert rep.hist_counts.sum() == 2


def test_run_separation_is_reproducible():
    a = run_separation(_model_bodies(3, substream(14, "sep")), opts=_LIGHT)
    b = run_separation(_model_bodies(3, substream(14, "sep")), opts=_LIGHT)
    np.testing.assert_array_equal(a.matrix, b.matrix)
