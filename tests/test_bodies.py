"""Hull bodies: supports, constructors, radii, and serialization."""
import json
import math
import pickle

import numpy as np
import pytest

from bmbodies import bodies
from bmbodies.bodies import (
    Ball,
    Caps,
    HullBody,
    SignedPoints,
    ball_body,
    body_to_dict,
    body_to_text,
    cap_body,
    circumradius_upper,
    inradius_lower,
    subset_body,
    support_function,
    support_many,
)
from bmbodies.randmodel import ModelParams, sample_subsets, substream


def test_ball_support_closed_forms():
    rng = np.random.default_rng(2)
    n = 6
    y = rng.normal(size=n)
    r = 1.7
    assert math.isclose(
        support_function(HullBody(n, (Ball(1.0, r),)), y), r * np.abs(y).max(), rel_tol=1e-12
    )
    assert math.isclose(
        support_function(HullBody(n, (Ball(2.0, r),)), y),
        r * float(np.linalg.norm(y)),
        rel_tol=1e-12,
    )
    assert math.isclose(
        support_function(HullBody(n, (Ball(math.inf, r),)), y),
        r * float(np.abs(y).sum()),
        rel_tol=1e-12,
    )


def test_supported_ball_restricts_coordinates():
    y = np.array([3.0, -4.0, 12.0])
    b = HullBody(3, (Ball(2.0, 2.0, support=np.array([0, 1])), Ball(2.0, 0.5)))
    # the support only sees the first two coordinates: 2*|(3,-4)| = 10
    assert math.isclose(support_function(b, y), 10.0, rel_tol=1e-12)


def test_signed_points_support_both_modes():
    pts = np.array([[1.0, -2.0, 0.5], [0.0, 1.0, -1.0]])
    y = np.array([0.3, 0.7, -0.2])
    cond = HullBody(3, (SignedPoints(pts), Ball(2.0, 1e-6)))
    want = max(abs(float(p @ y)) for p in pts)
    assert math.isclose(support_function(cond, y), want, rel_tol=1e-12)
    uncond = HullBody(3, (SignedPoints(pts, unconditional=True), Ball(2.0, 1e-6)))
    want_u = max(float(np.abs(p) @ np.abs(y)) for p in pts)
    assert math.isclose(support_function(uncond, y), want_u, rel_tol=1e-12)


def test_support_many_matches_single_calls():
    rng = np.random.default_rng(8)
    body = subset_body(
        ModelParams(n=10, delta=0.3, n_subsets=4),
        sample_subsets(10, 3, 4, substream(3, "sm")),
    )
    ys = rng.normal(size=(25, 10))
    vals = support_many(body, ys)
    assert vals.shape == (25,)
    for y, v in zip(ys, vals):
        assert math.isclose(v, support_function(body, y), rel_tol=1e-12)


def test_component_validation():
    with pytest.raises(ValueError):
        Ball(3.0, 1.0)
    with pytest.raises(ValueError):
        Ball(2.0, 0.0)
    with pytest.raises(ValueError):
        Ball(2.0, math.inf)
    with pytest.raises(ValueError):
        SignedPoints(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SignedPoints(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Ball(2.0, 1.0, support=np.array([], dtype=int))


def test_hull_body_requires_full_dimension():
    # two segments in R^3 span a plane at best
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        HullBody(3, (SignedPoints(pts),))
    ok = HullBody(3, (SignedPoints(pts), Ball(2.0, 0.1)))
    assert ok.dim == 3


def test_a_body_whose_inradius_bound_underflows_is_refused():
    # every coordinate is covered, but the mean box's first side 5e-324 / 3
    # rounds to 0: the inradius bound every certificate divides by is zero
    pts = [[5e-324, 1.0], [0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="not full-dimensional"):
        HullBody(2, [SignedPoints(pts, unconditional=True)])


def test_ball_body_radii():
    n, r = 5, 2.0
    b1 = ball_body(n, 1.0, r)
    assert math.isclose(inradius_lower(b1), r / math.sqrt(n), rel_tol=1e-12)
    assert math.isclose(circumradius_upper(b1), r, rel_tol=1e-12)
    b2 = ball_body(n, 2.0, r)
    assert math.isclose(inradius_lower(b2), r, rel_tol=1e-12)
    assert math.isclose(circumradius_upper(b2), r, rel_tol=1e-12)
    binf = ball_body(n, math.inf, r)
    assert math.isclose(inradius_lower(binf), r, rel_tol=1e-12)
    assert math.isclose(circumradius_upper(binf), r * math.sqrt(n), rel_tol=1e-12)


def test_subset_body_composition_and_radii():
    params = ModelParams(n=8, delta=0.5, n_subsets=3)
    subs = sample_subsets(8, params.m, 3, substream(1, "sb"))
    body = subset_body(params, subs)
    kinds = [type(c).__name__ for c in body.components]
    assert kinds == ["SignedPoints", "Ball", "Ball"]
    # the convex hull is pinched between delta*sqrt(n)*B2 and sqrt(m)*B2
    assert math.isclose(inradius_lower(body), params.delta * math.sqrt(8), rel_tol=1e-12)
    # with 2 <= m < n the full ball delta*sqrt(n)*B2 is the widest inscribed
    # piece of both model bodies, exactly: op_norm's certified upper bounds
    # divide by this radius
    for n, delta in ((3, 0.5), (6, 0.25), (8, 0.5), (12, 0.25), (20, 0.1), (40, 0.8)):
        p = ModelParams(n=n, delta=delta, n_subsets=2 * n)
        assert 2 <= p.m < n
        subs = sample_subsets(n, p.m, p.n_subsets, substream(n, "sb/inradius"))
        for build in (subset_body, cap_body):
            assert inradius_lower(build(p, subs)) == delta * math.sqrt(n)
    assert math.isclose(circumradius_upper(body), math.sqrt(params.m), rel_tol=1e-12)
    y = substream(1, "dir").normal(size=8)
    h = support_function(body, y)
    assert params.delta * math.sqrt(8) * np.linalg.norm(y) <= h * (1 + 1e-12)
    assert h <= math.sqrt(params.m) * np.linalg.norm(y) * (1 + 1e-12)


def test_cap_body_supports_union_of_coordinate_balls():
    params = ModelParams(n=8, delta=0.5, n_subsets=3)
    subs = sample_subsets(8, params.m, 3, substream(2, "cb"))
    cap = cap_body(params, subs)
    y = substream(2, "dir").normal(size=8)
    want = params.delta * math.sqrt(8) * float(np.linalg.norm(y))
    for row in subs:
        want = max(want, math.sqrt(params.m) * float(np.linalg.norm(y[row])))
    assert math.isclose(support_function(cap, y), want, rel_tol=1e-12)


def test_a_cap_body_checks_its_subset_family_once(monkeypatch):
    params = ModelParams(n=80, delta=0.25, n_subsets=320)
    subs = sample_subsets(80, params.m, 320, substream(6, "cap/once"))
    real, calls = bodies._subset_family, []
    monkeypatch.setattr(bodies, "_subset_family", lambda *a: calls.append(a) or real(*a))
    body = cap_body(params, subs)
    assert len(calls) == 1
    caps, ball = body.components
    assert isinstance(caps, Caps) and isinstance(ball, Ball)
    assert caps.mask.shape == (320, 80) and np.array_equal(caps.mask.sum(axis=1), [20] * 320)
    assert repr(body) == "HullBody(dim=80, caps[320](r<=4.47214), B2(r=2.23607,full))"


@pytest.mark.parametrize("build", [subset_body, cap_body])
@pytest.mark.parametrize(
    "bad_row, message",
    [
        ([3, 5, 8], r"indices must lie in \[0, 8\), got range \[3, 8\]"),
        ([-1, 2, 5], r"indices must lie in \[0, 8\), got range \[-1, 5\]"),
        ([1, 6, 4], "indices must be strictly increasing"),
        ([2, 2, 7], "indices must be strictly increasing"),
    ],
)
def test_model_builders_refuse_a_bad_subset_row(build, bad_row, message):
    # the bad row sits after good ones, so the whole family is checked
    params = ModelParams(n=8, delta=0.375, n_subsets=4)
    good = sample_subsets(8, params.m, 3, substream(3, "bad-row"))
    subs = np.vstack([good, [bad_row]])
    with pytest.raises(ValueError, match=message):
        build(params, subs)
    # the first bad row is the one reported
    with pytest.raises(ValueError, match=message):
        build(params, np.vstack([good, [bad_row], [[0, 9, 9]]]))


def test_dict_round_trip_preserves_supports():
    params = ModelParams(n=7, delta=0.4, n_subsets=3)
    subs = sample_subsets(7, params.m, 3, substream(4, "rt"))
    for body in (
        subset_body(params, subs),
        cap_body(params, subs),
        ball_body(7, math.inf, 0.75),
    ):
        doc = body_to_dict(body)
        json.dumps(doc)  # must already be plain data
        inradius_lower(body)  # fills the cache, which pickling must not carry
        ys = substream(4, "dirs").normal(size=(20, 7))
        back = pickle.loads(pickle.dumps(body))
        assert back._cache == {}
        np.testing.assert_allclose(support_many(back, ys), support_many(body, ys), rtol=0, atol=0)


def test_body_text_is_the_json_of_its_dict():
    params = ModelParams(n=7, delta=0.4, n_subsets=3)
    subs = sample_subsets(7, params.m, 3, substream(5, "text"))
    for body in (subset_body(params, subs), cap_body(params, subs), ball_body(7, math.inf, 0.75)):
        text = body_to_text(body)
        assert "\n" not in text
        assert json.loads(text) == body_to_dict(body)
