"""Symmetric-body nets: step families, profiles, cells, certificates."""
import math

import numpy as np
import pytest

from bmbodies.randmodel import substream
from bmbodies.symnet import (
    body_from_tag,
    build_net,
    certify_pair,
    enumerate_steps,
    level_count,
    log_profile,
    lorentz_body,
    lp_body,
    net_from_text,
    net_to_text,
    profile_cell,
    quantize_to_grid,
    step_norm,
    tau_for_separation,
    top_k_body,
)


def test_level_count_is_least_admissible():
    # least positive L with n * tau^-L < 1 - 1/tau
    for n, tau in ((12, 2.0), (5, 1.5), (64, 2.0), (3, 3.0)):
        L = level_count(n, tau)
        assert n * tau ** (-L) < 1 - 1 / tau
        assert L == 1 or not n * tau ** (-(L - 1)) < 1 - 1 / tau
    assert level_count(12, 2.0) == 5


def test_level_count_exact_on_boundaries():
    # n * tau^-L == 1 - 1/tau must NOT count as admissible: with tau=2
    # and n = 2^(L-1) the candidate L hits equality exactly
    assert level_count(8, 2.0) == 5  # 8/16 == 1/2 exactly, so L=4 is refused
    assert level_count(7, 2.0) == 4


def test_step_family_count_and_cap():
    fam = enumerate_steps(3, 2)
    assert np.asarray(fam.maps).shape == (6, 2)  # C(3+2-1, 2)
    fam2 = enumerate_steps(4, 3)
    assert np.asarray(fam2.maps).shape == (20, 3)
    with pytest.raises(ValueError):
        enumerate_steps(40, 12, cap=10**6)


def test_quantize_to_grid_floor_semantics():
    x = np.array([1.0, 0.6, 0.5, 0.3, 0.125, 0.124, 0.0])
    got = quantize_to_grid(x, 2.0, 3)
    np.testing.assert_allclose(got, [1.0, 0.5, 0.5, 0.25, 0.125, 0.0, 0.0])
    kept = got[got > 0]
    src = x[got > 0]
    assert np.all(kept <= src) and np.all(src < 2.0 * kept)


def test_tau_for_separation_is_a_twelfth_root():
    assert math.isclose(tau_for_separation(4096.0), 2.0, rel_tol=1e-12)
    assert tau_for_separation(2.0) > 1.0


def test_body_tags_round_trip():
    for body in (lp_body(6, 1.25), lp_body(6, math.inf), top_k_body(6, 3), lorentz_body(6, np.geomspace(1, 0.1, 6))):
        back = body_from_tag(6, body.tag())
        assert back.kind == body.kind
        assert back.dim == body.dim
        x = substream(1, "tag").normal(size=6)
        assert math.isclose(back.norm(x), body.norm(x), rel_tol=1e-12)
    with pytest.raises(ValueError):
        body_from_tag(6, "mystery z=1")


def test_norms_of_known_bodies():
    x = np.array([3.0, -4.0, 0.0, 1.0])
    assert math.isclose(lp_body(4, 1.0).norm(x), 8.0, rel_tol=1e-12)
    assert math.isclose(lp_body(4, 2.0).norm(x), math.sqrt(26.0), rel_tol=1e-12)
    assert math.isclose(lp_body(4, math.inf).norm(x), 4.0, rel_tol=1e-12)
    assert math.isclose(top_k_body(4, 2).norm(x), 7.0, rel_tol=1e-12)
    assert math.isclose(
        lorentz_body(4, (1.0, 0.5, 0.25, 0.125)).norm(x), 4.0 + 1.5 + 0.25 + 0.0, rel_tol=1e-12
    )


def test_profiles_and_cells_are_deterministic():
    fam = enumerate_steps(4, 3)
    tau = 2.0
    body = lp_body(4, 1.5)
    p1 = log_profile(body, fam, tau)
    p2 = log_profile(body, fam, tau)
    np.testing.assert_array_equal(p1, p2)
    assert p1.shape == (np.asarray(fam.maps).shape[0],)
    assert profile_cell(p1, tau) == profile_cell(p2, tau)
    # every step norm is positive and the profile is its log
    s0 = step_norm(body, fam.maps[0], tau)
    assert s0 > 0
    assert math.isclose(p1[0], math.log(s0), rel_tol=1e-12)


def test_profile_cell_floor_edges():
    tau = 2.0
    pitch = math.log(tau)
    anchor = -math.log(tau**2)
    prof = np.array([anchor, anchor + pitch, anchor + 1.5 * pitch])
    assert profile_cell(prof, tau) == (0, 1, 1)


def test_profile_cell_matches_the_generator_loop():
    rng = np.random.default_rng(8)
    for tau in (1.5, 2.0, 3.7):
        lt = math.log(tau)
        # half the entries sit exactly on cell edges, where floor decides
        edges = (rng.integers(-40, 40, size=500) - 2) * lt
        prof = np.where(rng.random(500) < 0.5, edges, rng.normal(scale=20.0, size=500))
        ref = tuple(int(i) for i in np.floor((prof + 2.0 * lt) / lt))
        cell = profile_cell(prof, tau)
        assert cell == ref
        assert all(type(i) is int for i in cell)


def test_profile_cell_refuses_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            profile_cell(np.array([0.0, bad, 1.0]), 2.0)


def test_build_net_groups_equal_profiles():
    tau = 2.0
    bodies = [lp_body(3, 1.0), lp_body(3, 2.0), lp_body(3, math.inf), lp_body(3, 1.0)]
    net = build_net(bodies, tau)
    assert net.n == 3 and net.tau == tau
    assert net.levels == level_count(3, tau)
    # members partition the body list
    all_members = sorted(i for ids in net.members.values() for i in ids)
    assert all_members == [0, 1, 2, 3]
    # duplicate bodies share a cell, and its representative is the first
    cell_of_first = next(c for c, ids in net.members.items() if 0 in ids)
    assert 3 in net.members[cell_of_first]
    assert net.cell_count == len(net.members) <= net.cell_bound
    reps = {c: rep for c, rep in net.cell_reps}
    assert reps[cell_of_first].param == 1.0


def test_net_text_round_trip():
    net = build_net([lp_body(3, p) for p in (1.0, 2.0, np.inf)], 2.0)
    back = net_from_text(net_to_text(net))
    assert back.n == net.n and back.tau == net.tau and back.levels == net.levels
    assert back.cell_reps == net.cell_reps
    assert back.profile_count == net.profile_count
    assert set(back.members) == set(net.members)
    assert math.isclose(back.cell_bound, net.cell_bound, rel_tol=1e-12)
    with pytest.raises(ValueError):
        net_from_text("not a net\n")


def test_certify_pair_grants_close_bodies():
    fam = enumerate_steps(4, level_count(4, 2.0))
    cert = certify_pair(lp_body(4, 2.0), lp_body(4, 2.25), fam, 2.0, samples=500, stream=substream(3, "cp"))
    assert cert.granted
    assert cert.empirical_ok
    assert cert.max_ratio <= cert.ratio_bound
    assert cert.distance_bound >= 1.0
    assert cert.witness_step is None
    assert cert.samples == 500


def test_certify_pair_rejects_far_bodies():
    # the extreme pair differs by a factor n in one direction, which a
    # tight tau budget cannot absorb
    n, tau = 4, 1.2
    fam = enumerate_steps(n, level_count(n, tau))
    cert = certify_pair(
        lp_body(n, 1.0), lp_body(n, math.inf), fam, tau, samples=300, stream=substream(4, "cp2")
    )
    assert not cert.granted
    assert cert.witness_step is not None


def test_certify_pair_is_reproducible():
    fam = enumerate_steps(4, 3)
    a = certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=400, stream=substream(5, "cp3"))
    b = certify_pair(lp_body(4, 1.5), lp_body(4, 2.0), fam, 2.0, samples=400, stream=substream(5, "cp3"))
    assert a == b
