"""Monte Carlo tail machinery: counting, intervals, tallies, bounds."""
import itertools
import json
import math

import numpy as np
import pytest

from _oracles import gathered_norms, gathered_quadratic, subset_sign_chunks

from bmbodies.concentration import (
    SmallBallEstimate,
    TailCurve,
    default_thresholds,
    mc_curve,
    mc_large_deviation,
    mc_quadratic_tail,
    mc_small_ball,
    mc_tally,
    pilot_thresholds,
    wilson_interval,
)
from bmbodies.concentration import _draw, _quad_stats, _restricted_norms
from bmbodies.randmodel import substream


def test_wilson_interval_brackets_and_edges():
    p, lo, hi = wilson_interval(30, 100)
    assert lo < p == 0.3 < hi
    p0, lo0, hi0 = wilson_interval(0, 50)
    assert p0 == lo0 == 0.0 and hi0 > 0.0
    p1, lo1, hi1 = wilson_interval(50, 50)
    assert p1 == hi1 == 1.0 and lo1 < 1.0
    # a wider confidence multiplier can only widen the interval
    _, lo_w, hi_w = wilson_interval(30, 100, z=3.5)
    assert lo_w <= lo and hi <= hi_w


def test_wilson_interval_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_default_thresholds_span_pilot_scale():
    stats = np.abs(substream(1, "pilot").normal(size=512))
    thr = default_thresholds(stats)
    assert thr.shape == (32,)
    assert np.all(np.diff(thr) > 0)
    sigma = float(np.std(stats))
    assert math.isclose(thr[0], 0.1 * sigma, rel_tol=1e-9)
    assert math.isclose(thr[-1], 10.0 * sigma, rel_tol=1e-9)
    # degenerate pilots still give a usable positive grid
    flat = default_thresholds(np.zeros(16))
    assert np.all(flat > 0)


def test_quadratic_tail_exact_two_point_law():
    # A = e1 e1^T: the centered statistic takes value 1 - m/n when the
    # subset hits coordinate 1 and m/n otherwise
    n, m = 20, 5
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    thr = np.array([0.1, 0.4, 0.6, 0.9, 1.2])
    curve = mc_quadratic_tail(a, n, m, 4000, thresholds=thr, stream=substream(2, "qt"))
    assert curve.trials == 4000
    assert curve.counts[0] == 4000  # every draw exceeds 0.1
    assert curve.counts[1] == curve.counts[2]  # no mass in (0.25, 0.75)
    assert curve.counts[3] == curve.counts[4] == 0
    np.testing.assert_allclose(curve.p_hat, curve.counts / 4000)
    assert np.all(curve.wilson_lo <= curve.p_hat)
    assert np.all(curve.p_hat <= curve.wilson_hi)


def test_counts_are_nonincreasing_in_threshold():
    rng = substream(3, "mat")
    n, m = 16, 4
    a = rng.normal(size=(n, n))
    a = 0.5 * (a + a.T)
    stream = substream(3, "qt")
    thr = pilot_thresholds("quadratic", a, n, m, 2000, stream)
    curve = mc_quadratic_tail(a, n, m, 2000, thresholds=thr, stream=stream)
    assert np.all(np.diff(curve.counts) <= 0)
    assert np.all(np.diff(curve.thresholds) > 0)


def test_quadratic_raw_moments_track_uncentered_form():
    n, m = 20, 5
    a = np.zeros((n, n))
    a[0, 0] = 1.0
    curve = mc_quadratic_tail(
        a, n, m, 5000, thresholds=np.array([1.0]), stream=substream(4, "raw")
    )
    # the uncentered form is the subset indicator, mean m/n
    assert abs(curve.raw_mean - m / n) <= 4.0 * curve.raw_se
    assert curve.raw_se > 0


def test_streams_make_runs_reproducible():
    n, m = 12, 3
    a = substream(9, "a").normal(size=(n, n))
    a = 0.5 * (a + a.T)
    c1, c2 = [
        mc_quadratic_tail(a, n, m, 800, pilot_thresholds("quadratic", a, n, m, 800, rng), rng)
        for rng in (substream(9, "run"), substream(9, "run"))
    ]
    np.testing.assert_array_equal(c1.counts, c2.counts)
    np.testing.assert_array_equal(c1.thresholds, c2.thresholds)
    assert c1.raw_sum == c2.raw_sum


def _sym(seed, n):
    a = substream(seed, "a").normal(size=(n, n))
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("statistic", ["quadratic", "small_ball", "large_deviation"])
def test_curve_adds_block_tallies_that_match_their_estimators(statistic):
    n, m, sizes = 12, 3, (700, 900, 300)
    a = _sym(5, n)
    thr = (pilot_thresholds("small_ball", a, n, m, 1, substream(5, "pilot"))
           if statistic == "small_ball" else np.array([0.2, 0.7, 1.4]))
    streams = [f"r{i}" for i in range(len(sizes))]
    tallies = [mc_tally(statistic, a, n, m, size, thr, substream(5, s))
               for size, s in zip(sizes, streams)]
    curve = mc_curve(statistic, a, n, m, sum(sizes), thr, tallies)
    assert curve.trials == 1900
    counts = [t[0] for t in tallies]
    if statistic == "small_ball":
        assert curve.count == sum(int(c[0]) for c in counts)
        blocks = [mc_small_ball(a, n, m, size, substream(5, s)).count
                  for size, s in zip(sizes, streams)]
        assert blocks == [int(c[0]) for c in counts]
        return
    np.testing.assert_array_equal(curve.counts, sum(counts))
    assert curve.raw_sum == (tallies[0][1] + tallies[1][1]) + tallies[2][1]
    assert curve.raw_sq_sum == (tallies[0][2] + tallies[1][2]) + tallies[2][2]
    est = mc_quadratic_tail if statistic == "quadratic" else mc_large_deviation
    for size, s, c in zip(sizes, streams, counts):
        np.testing.assert_array_equal(est(a, n, m, size, thr, substream(5, s)).counts, c)


@pytest.mark.parametrize("statistic", ["quadratic", "small_ball", "large_deviation"])
def test_a_one_tally_curve_is_its_estimator(statistic):
    n, m, trials = 12, 3, 800
    a = _sym(6, n)
    thr = pilot_thresholds(statistic, a, n, m, trials, substream(6, "pilot"))
    tally = mc_tally(statistic, a, n, m, trials, thr, substream(6, "r"))
    got = mc_curve(statistic, a, n, m, trials, thr, [tally])
    if statistic == "small_ball":
        assert got == mc_small_ball(a, n, m, trials, substream(6, "r"))
        return
    est = mc_quadratic_tail if statistic == "quadratic" else mc_large_deviation
    want = est(a, n, m, trials, thr, substream(6, "r"))
    for key in ("thresholds", "counts", "shape", "admissible"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key))
    assert (got.trials, got.raw_sum, got.raw_sq_sum, got.prefactor) == (
        want.trials, want.raw_sum, want.raw_sq_sum, want.prefactor)


def test_the_small_ball_pilot_is_its_fixed_threshold_and_draws_nothing():
    n, m = 20, 5
    b = _sym(7, n)
    rng = substream(7, "sb-pilot")
    before = _state(rng)
    (thr,) = pilot_thresholds("small_ball", b, n, m, 100, rng)
    assert _state(rng) == before
    assert thr == mc_small_ball(b, n, m, 100, substream(7, "sb")).threshold


def test_small_ball_identity_count_is_zero():
    # the restricted norm of a sign vector is sqrt(m) exactly, which
    # sits above the sqrt(m/2) threshold, so no trial ever lands below
    n, m = 20, 5
    est = mc_small_ball(np.eye(n), n, m, 3000, stream=substream(7, "sb"))
    assert est.count == 0
    assert est.trials == 3000
    assert math.isclose(est.threshold, math.sqrt(m / 2.0), rel_tol=1e-12)
    lo, hi = est.wilson
    assert lo == 0.0 and hi > 0.0


def test_small_ball_rank_one_matches_subset_law():
    n, m = 20, 5
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    est = mc_small_ball(b, n, m, 20000, stream=substream(7, "sb2"))
    lo, hi = est.wilson
    assert lo <= 1 - m / n <= hi
    assert math.isclose(est.threshold, math.sqrt(m / (2.0 * n)), rel_tol=1e-12)


def test_small_ball_fit_inverts_the_bound():
    # fitted_c is defined by bound_value(fitted_c) == p_hat, and the
    # conservative fit lands on the upper confidence edge instead
    n, m = 20, 5
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    est = mc_small_ball(b, n, m, 4000, stream=substream(8, "sb3"))
    assert math.isclose(est.bound_value(c=est.fitted_c()), est.p_hat, rel_tol=1e-12)
    cons = est.fitted_c(conservative=True)
    assert math.isclose(est.bound_value(c=cons), est.wilson[1], rel_tol=1e-12)
    assert cons <= est.fitted_c()
    with pytest.raises(ValueError):
        est.bound_value(c=-1.0)


def test_large_deviation_admissibility_cut():
    n, m = 20, 5
    rng = substream(9, "ld")
    thr = pilot_thresholds("large_deviation", np.eye(n), n, m, 400, rng)
    curve = mc_large_deviation(np.eye(n), n, m, 400, thresholds=thr, stream=rng)
    cut = math.sqrt(4.0 * m / n) * math.sqrt(n)
    np.testing.assert_array_equal(curve.admissible, curve.thresholds > cut)
    assert curve.prefactor == 2.0


def test_bound_values_dominate_wilson_upper_on_admissible_part():
    n, m = 24, 6
    rng = substream(10, "ld2")
    thr = pilot_thresholds("large_deviation", np.eye(n), n, m, 2000, rng)
    curve = mc_large_deviation(np.eye(n), n, m, 2000, thresholds=thr, stream=rng)
    c = curve.fitted_c()
    bounds = curve.bound_values(c)
    ok = curve.admissible
    assert np.all(bounds[ok] >= curve.wilson_hi[ok] * (1 - 1e-12))


def test_bounds_at_zero_constant_are_the_prefactor():
    # 0 * inf = 0: a shape that never binds gives the prefactor, not NaN
    curve = TailCurve(thresholds=[0.5, 1.0], counts=[0, 0], trials=10,
                      shape=[math.inf, 2.0], raw_sum=0.0, raw_sq_sum=0.0, prefactor=1.0)
    assert curve.bound_values(0.0).tolist() == [1.0, 1.0]
    assert curve.bound_values(1.0).tolist() == [0.0, math.exp(-2.0)]
    est = SmallBallEstimate(count=0, trials=10, threshold=0.1, shape=math.inf)
    assert est.bound_value(0.0) == 2.0
    assert est.bound_value(1.0) == 0.0


# m = 1, m = n - 1, the bench's m/n = 0.25 over several chunks, and
# m/n < 0.1 with m < sqrt(n), where a chunk's signed indicators are
# filled in two row slices
_KERNEL_CASES = [(12, 1), (12, 11), (100, 25), (400, 5)]


@pytest.mark.parametrize("n, m", _KERNEL_CASES)
def test_dense_kernel_matches_the_gather_reference(n, m):
    # a nonsymmetric matrix, so a transposed product would show
    a = substream(11, f"kernel/{n}/{m}").standard_normal((n, n))
    count = 12000
    quad = _quad_stats(a, n, m, count, substream(11, "kernel/draws"))
    ref, scale = map(np.concatenate, zip(*(
        gathered_quadratic(a, subs, eps)
        for subs, eps in subset_sign_chunks(n, m, count, substream(11, "kernel/draws"), m * m)
    )))
    # rounding error is relative to the sum of the terms' magnitudes
    assert np.all(np.abs(quad - ref) <= 1e-12 * scale)
    norms = _restricted_norms(a, n, m, count, substream(11, "kernel/draws"))
    ref = np.concatenate([
        gathered_norms(a, subs, eps)
        for subs, eps in subset_sign_chunks(n, m, count, substream(11, "kernel/draws"), n * m)
    ])
    np.testing.assert_allclose(norms, ref, rtol=1e-12, atol=0.0)


def _state(rng) -> str:
    return json.dumps(rng.bit_generator.state, default=lambda x: x.tolist(), sort_keys=True)


@pytest.mark.parametrize("n, m, cells", [(100, 25, 625), (100, 25, 2500), (400, 5, 25)])
def test_draw_consumes_the_stream_chunk_by_chunk(n, m, cells):
    count = 12000
    seen = []

    def keep(v):
        seen.append(v.copy())
        return v.sum(axis=1)

    rng = substream(12, "draw-order")
    _draw(n, m, count, rng, cells, keep)
    ref = substream(12, "draw-order")
    dense = []
    for subs, eps in subset_sign_chunks(n, m, count, ref, cells):
        v = np.zeros((len(subs), n))
        v[np.arange(len(subs))[:, None], subs] = eps
        dense.append(v)
    assert _state(rng) == _state(ref)
    np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(dense))
    assert max(v.size for v in seen) <= 4_000_000


def test_draw_gives_every_subset_with_equal_frequency():
    # all C(6, 3) = 20 subsets, by their bit codes; 19 degrees of freedom,
    # where P(chi-square >= 43.82) = 0.001 for an exact uniform sampler
    n, m, count = 6, 3, 40000
    codes = _draw(n, m, count, substream(13, "floyd/uniform"), m * m,
                  lambda v: (v != 0) @ (2.0 ** np.arange(n)))
    seen = np.bincount(codes.astype(np.int64), minlength=2**n)
    subsets = [sum(2**i for i in s) for s in itertools.combinations(range(n), m)]
    assert np.count_nonzero(seen) == len(subsets) == 20
    expected = count / len(subsets)
    chi2 = float(((seen[subsets] - expected) ** 2 / expected).sum())
    assert chi2 < 43.82, chi2


@pytest.mark.parametrize("m", [1, 99, 25])
def test_draw_puts_exactly_m_signs_on_every_row(m):
    n, count = 100, 5000
    sizes = _draw(n, m, count, substream(14, f"floyd/count/{m}"), m * m,
                  lambda v: np.count_nonzero(v, axis=1).astype(float))
    assert np.all(sizes == m)
