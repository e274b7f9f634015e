"""The interior-point cone solver against programs with closed-form optima."""
import math
import pickle

import numpy as np
import pytest

from bmbodies.cone import ConeError, SocProgram, iterates, polish
from bmbodies.randmodel import ModelParams, sample_subsets, substream


def _converged(prog, c, max_iter=40, rel_stop=1e-11):
    """The first iterate whose rel is at most rel_stop, or the last one."""
    for it, x, s, z, rel in iterates(prog, c, max_iter):
        if rel <= rel_stop:
            break
    return x, s, z


def _lowest(prog, u):
    """Smallest eigenvalue u0 - |u1| of each block of a flat vector."""
    heads = u[prog.starts]
    tails = np.bincount(prog.tail_k, weights=u[prog.tail] ** 2, minlength=prog.r.size)
    heads[prog.n_lin:] -= np.sqrt(tails)
    return heads


def _mixed_program():
    # |x0| <= 2 as two rows, then a 5-block 4 ||x[3:7]|| <= 1 ahead of a
    # 3-block 0.5 ||x[1:3]|| <= 1: block sizes 1, 1, 5, 3
    a = np.zeros((2, 7))
    a[0, 0], a[1, 0] = 1.0, -1.0
    prog = SocProgram(a, [2.0, 2.0], [[6, 3, 4, 5], [1, 2]], [4.0, 0.5])

    def optimum(c):
        return 2.0 * abs(c[0]) + np.linalg.norm(c[3:]) / 4.0 + np.linalg.norm(c[1:3]) / 0.5

    return prog, optimum


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_lp_only_program_reaches_the_box_optimum(seed):
    # maximize <c, x> over the box |x_i| <= 1.5: 1.5 * sum |c_i|
    c = np.random.default_rng(seed).normal(size=5)
    prog = SocProgram(np.vstack([np.eye(5), -np.eye(5)]), np.full(10, 1.5), [], [])
    assert prog.sizes.tolist() == [1] * 10
    x, s, z = _converged(prog, c)
    opt = 1.5 * np.abs(c).sum()
    assert abs(c @ x - opt) <= 1e-9 * opt
    assert abs(prog.h @ z - opt) <= 1e-9 * opt


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_single_cone_program_reaches_the_ball_optimum(seed):
    # maximize <c, x> over 2 ||x|| <= 1: ||c|| / 2
    c = np.random.default_rng(seed).normal(size=5)
    prog = SocProgram(np.zeros((0, 5)), np.zeros(0), [np.arange(5)], [2.0])
    assert prog.sizes.tolist() == [6]
    x, s, z = _converged(prog, c)
    opt = np.linalg.norm(c) / 2.0
    assert abs(c @ x - opt) <= 1e-9 * opt
    assert abs(prog.h @ z - opt) <= 1e-9 * opt


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unequal_blocks_reach_the_separable_optimum(seed):
    prog, optimum = _mixed_program()
    assert prog.sizes.tolist() == [1, 1, 5, 3]
    assert prog.starts.tolist() == [0, 1, 2, 7]
    assert prog.tail_k.tolist() == [0, 0, 0, 0, 1, 1]
    c = np.random.default_rng(seed).normal(size=7)
    opt = optimum(c)
    for it, x, s, z, rel in iterates(prog, c, 40):
        # every iterate stays strictly inside each of its cones
        assert _lowest(prog, s).min() > 0.0 and _lowest(prog, z).min() > 0.0
        if rel <= 1e-11:
            break
    assert abs(c @ x - opt) <= 1e-9 * opt
    assert abs(prog.h @ z - opt) <= 1e-9 * opt


def _assert_kkt_point(prog, c, xp, zp):
    """(xp, zp) is an optimal primal-dual pair of prog up to 1e-10."""
    slack = prog.h - prog.gx(xp)
    assert np.abs(prog.gtz(zp) - c).max() <= 1e-10  # stationarity
    assert _lowest(prog, slack).min() >= -1e-10  # primal feasibility
    # z in the (self-)dual cone: rows and heads exactly, tails on the edge
    assert zp[prog.starts].min() >= 0.0 and _lowest(prog, zp).min() >= -1e-10
    assert abs(slack @ zp) <= 1e-10  # complementary slackness


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_polish_turns_a_late_iterate_into_a_kkt_point(seed):
    prog, optimum = _mixed_program()
    c = np.random.default_rng(seed).normal(size=7)
    x, s, z = _converged(prog, c, rel_stop=1e-6)
    polished = polish(prog, c, x, s, z)
    assert polished is not None
    xp, zp = polished
    _assert_kkt_point(prog, c, xp, zp)
    assert abs(c @ xp - optimum(c)) <= 1e-10 * optimum(c)


def test_polish_adds_the_active_cones_an_early_cap_iterate_misses():
    # the gauge program of an n = 80 cap body: u >= 0, sqrt(m) |u_S| <= 1
    # per cap and delta sqrt(n) |u| <= 1; at rel ~ 1e-2 several active
    # caps still have slack above their multiplier
    params = ModelParams(n=80, delta=0.25, n_subsets=320)
    subsets = sample_subsets(80, params.m, 320, substream(1, "cap/subsets"))
    prog = SocProgram(-np.eye(80), np.zeros(80), list(subsets) + [np.arange(80)],
                      [math.sqrt(params.m)] * 320 + [params.delta * math.sqrt(80)])
    c = np.abs(substream(1, "cap/point").standard_normal(80))
    c /= np.linalg.norm(c)
    x, s, z = _converged(prog, c, rel_stop=1e-2)
    heads = prog.starts[prog.n_lin:]
    guessed = _lowest(prog, s)[prog.n_lin:] < z[heads]
    polished = polish(prog, c, x, s, z)
    assert polished is not None
    xp, zp = polished
    _assert_kkt_point(prog, c, xp, zp)
    assert np.any((zp[heads] > 0.0) & ~guessed)


def test_polish_drops_a_guessed_row_whose_multiplier_is_negative():
    # maximize 0.6 x0 + 0.8 x1 over |x| <= 1 and x1 >= 0.7; the row is
    # slack at the optimum (0.6, 0.8), but guessed active it gives
    # x = (sqrt(0.51), 0.7) with multiplier 0.7 nu - 0.8 < 0
    prog = SocProgram(np.array([[0.0, -1.0]]), [-0.7], [[0, 1]], [1.0])
    c = np.array([0.6, 0.8])
    x, s, z = _converged(prog, c, rel_stop=1e-6)
    z[0] = s[0] + 1.0  # the slack rule now counts the row active
    polished = polish(prog, c, x, s, z)
    assert polished is not None
    xp, zp = polished
    _assert_kkt_point(prog, c, xp, zp)
    assert zp[0] == 0.0
    assert np.abs(xp - c).max() <= 1e-12


def test_cone_error_carries_its_status():
    err = ConeError("factorization-failed")
    assert err.status == "factorization-failed"
    assert "factorization-failed" in str(err)
    back = pickle.loads(pickle.dumps(err))
    assert back.status == err.status and str(back) == str(err)
    prog, _ = _mixed_program()
    with pytest.raises(ConeError) as info:
        list(iterates(prog, np.full(7, np.nan), 5))
    assert info.value.status == "left-cone"
