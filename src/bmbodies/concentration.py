"""Monte Carlo tail estimation for restricted quadratic forms.

Each experiment draws a uniform m-subset J of the coordinates and a
Rademacher sign vector, evaluates a statistic of the restricted matrix,
and counts threshold exceedances (for the small-ball statistic, the
draws at or below its one threshold).  A block of trials returns only
its tally (mc_tally): integer counts and the raw sums of the statistic
and its square.  Tallies of independent blocks add exactly, counts as
integers and sums in block order, so mc_curve adds a run's tallies and
then checks the matrix and builds the bound shape once.  Every
statistic's estimate is a TailCurve; the small-ball one is a TailCurve
with one threshold.  Empirical tails are nonincreasing by construction.
Theoretical bound shapes are stored per threshold with the leading
constant left pluggable; fitting reports the largest constant whose
bound still covers the Wilson upper bound of what was observed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_matrix, hs_norm, spectral_norm

# not called here (_draw samples its own subsets); bench/tracer.py wraps it
# on this module by name, until the stats file of ROADMAP item 7 replaces it
from .randmodel import sample_subsets  # noqa: F401

__all__ = [
    "TailCurve",
    "SmallBallEstimate",
    "WILSON_Z99",
    "wilson_interval",
    "default_thresholds",
    "pilot_thresholds",
    "mc_tally",
    "mc_curve",
    "mc_quadratic_tail",
    "mc_small_ball",
    "mc_large_deviation",
]

# two-sided 99% normal quantile, Phi^{-1}(0.995)
WILSON_Z99 = 2.5758293035489004

_PILOT = 1024


def wilson_interval(count: int, trials: int, z: float = WILSON_Z99):
    """Wilson score interval for a binomial proportion.

    Returns (p_hat, lo, hi).  Chosen over the Wald interval because it
    stays honest when count is 0 or trials, which tail estimation hits
    constantly.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= count <= trials:
        raise ValueError(f"count {count} outside [0, {trials}]")
    p = count / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4 * trials * trials))
    # the endpoints are exact at the boundary counts; rounding dust in
    # center - half would otherwise exclude 0 (and symmetrically 1)
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == trials else min(1.0, center + half)
    return p, lo, hi


@dataclass
class TailCurve:
    """Empirical exceedance curve with a pluggable theoretical overlay.

    counts[k] is the exact number of trials whose statistic reached
    thresholds[k] (SmallBallEstimate counts the other side of its one
    threshold).  shape[k] is the exponent shape of the matching
    theoretical bound, so bound_values(c) = prefactor * exp(-c*shape).
    admissible marks thresholds that the bound claims to cover; the
    rest stay reported but are excluded from fitting.  raw_sum and
    raw_sq_sum are the sums over all trials of the uncentered statistic
    and of its square.
    """

    thresholds: np.ndarray
    counts: np.ndarray
    trials: int
    shape: np.ndarray
    raw_sum: float
    raw_sq_sum: float
    prefactor: float = 1.0
    admissible: np.ndarray | None = None

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.shape = np.asarray(self.shape, dtype=float)
        k = self.thresholds.size
        if self.counts.shape != (k,) or self.shape.shape != (k,):
            raise ValueError("thresholds, counts and shape must align")
        if k and np.any(np.diff(self.thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if np.any(self.counts < 0) or np.any(self.counts > self.trials):
            raise ValueError("counts outside [0, trials]")
        if k and np.any(np.diff(self.counts) > 0):
            raise ValueError("exceedance counts must be nonincreasing")
        if self.admissible is None:
            self.admissible = np.ones(k, dtype=bool)
        else:
            self.admissible = np.asarray(self.admissible, dtype=bool)
            if self.admissible.shape != (k,):
                raise ValueError("admissible mask must align with thresholds")

    @property
    def p_hat(self) -> np.ndarray:
        return self.counts / self.trials

    def _wilson(self):
        rows = [wilson_interval(int(c), self.trials) for c in self.counts]
        arr = np.asarray(rows, dtype=float)
        return arr[:, 1], arr[:, 2]

    @property
    def wilson_lo(self) -> np.ndarray:
        return self._wilson()[0]

    @property
    def wilson_hi(self) -> np.ndarray:
        return self._wilson()[1]

    @property
    def raw_mean(self) -> float:
        return self.raw_sum / self.trials

    @property
    def raw_se(self) -> float:
        if self.trials < 2:
            return math.nan
        mean = self.raw_mean
        var = max(0.0, self.raw_sq_sum / self.trials - mean * mean)
        return math.sqrt(var / self.trials)

    def bound_values(self, c: float) -> np.ndarray:
        if c < 0:
            raise ValueError("bound constant must be nonnegative")
        if c == 0:  # 0 * inf = 0: a shape that never binds still gives the prefactor
            return np.full(self.shape.shape, float(self.prefactor))
        with np.errstate(over="ignore"):
            return self.prefactor * np.exp(-c * self.shape)

    def fitted_c(self) -> float:
        """Largest c such that the bound still dominates the Wilson upper
        envelope of the observed curve on admissible thresholds
        (infinite when nothing binds)."""
        p = self.wilson_hi
        best = math.inf
        for k in range(self.thresholds.size):
            if not self.admissible[k]:
                continue
            if p[k] <= 0.0 or not math.isfinite(self.shape[k]) or self.shape[k] <= 0:
                continue
            if p[k] >= self.prefactor:
                return 0.0
            best = min(best, math.log(self.prefactor / p[k]) / self.shape[k])
        return best


class SmallBallEstimate(TailCurve):
    """The small-ball estimate: a TailCurve with one threshold, the radius
    sqrt(m/2n) * |B|_HS, whose one count is the number of draws at or
    below it rather than above.  The bound is prefactor * exp(-c * shape)
    with prefactor 2; fitting, intervals and bounds are TailCurve's.
    threshold, count and wilson name the one entry."""

    @property
    def threshold(self) -> float:
        return float(self.thresholds[0])

    @property
    def count(self) -> int:
        return int(self.counts[0])

    @property
    def wilson(self):
        """(lo, hi) of the Wilson interval of the one count."""
        return float(self.wilson_lo[0]), float(self.wilson_hi[0])


def default_thresholds(pilot_stats) -> np.ndarray:
    """32 log-spaced thresholds covering [0.1, 10] times the pilot spread."""
    sigma = float(np.std(np.asarray(pilot_stats, dtype=float)))
    if not math.isfinite(sigma) or sigma <= 0.0:
        sigma = 1e-12
    return np.geomspace(0.1 * sigma, 10.0 * sigma, 32)


def _exceed_counts(stats: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """counts[k] = #{stat >= thresholds[k]}, via one sort-free pass."""
    idx = np.searchsorted(thresholds, stats, side="right")
    hist = np.bincount(idx, minlength=thresholds.size + 1)
    return np.cumsum(hist[::-1])[::-1][1:].astype(np.int64)


# A chunk is filled and evaluated in row slices that start at multiples
# of _SLICE_ROWS from its start; each takes the smallest multiple of
# _SLICE_ROWS rows whose product needs _SLICE_MACS multiply-adds, and the
# last also takes the rest.  OpenBLAS (0.3.31 on AVX-512, as measured)
# rounds a row of a product by the kernel it lands in: its place in a
# group of up to 12 rows, and whether the product is under about 10^6
# multiply-adds.  Such slices keep every row where the whole chunk's
# product would put it, so with one BLAS thread slicing changes no
# statistic.
_SLICE_ROWS = 192
_SLICE_MACS = 1 << 20


def _floyd_masks(n, m, c, rng):
    """c iid uniform m-subsets of {0..n-1} as a flat (c * n) Boolean mask,
    row after row, by Floyd's sequential sampler (Bentley & Floyd 1987)
    run on every row at once: for j = n-m .. n-1, draw t uniform on
    {0..j} and take t, or j when t is already taken.  Each step takes one
    rng.integers call."""
    mask = np.zeros(c * n, dtype=bool)
    base = np.arange(c) * n
    for j in range(n - m, n):
        t = rng.integers(0, j + 1, size=c)
        t += base
        mask[np.where(mask[t], base + j, t)] = True
    return mask


def _draw(n, m, count, rng, cells, stat):
    """stat(v) over count trials.  Row t of v is trial t's signed
    indicator: a uniform m-subset J of {0..n-1} carrying a Rademacher
    sign vector on J, zero off J.

    Trials go in chunks of about 4e6 / cells (cells = entries of the
    restricted array a trial would gather); each chunk draws its subsets
    as a Boolean mask (_floyd_masks), then its signs, so the draws depend
    on cells alone.  A chunk is zeroed, filled and evaluated in row
    slices (see _SLICE_ROWS) of one buffer allocated once per call: stat
    gets a view of that buffer and must not keep it.  The signs fill a
    row's subset in increasing coordinate order.  Every statistic is a
    dense matrix product on v: c*n^2 flops for c trials, against the
    c*m^2 (quadratic) or c*n*m (norms) reads of gathering A_JJ or
    B[:, J].  On 4096 trials at n = 100 with one BLAS thread the
    quadratic takes 3.4-4.2 ms against 12.4-14.4 for the einsum gather
    of the tests' oracles at m = 25, and 2.6-3.8 against 1.1 at m = 5;
    it crosses over near m/n = 0.1 (also at n = 200 and 400).  The norms
    take 4.0-4.4 ms against 9.0-9.8 at m = 25 and cross over between
    m = 5 and 10.
    """
    chunk = max(1, 4_000_000 // max(cells, 1))
    rows = _SLICE_ROWS * -(-_SLICE_MACS // (_SLICE_ROWS * n * n))
    out = np.empty(count)
    buf = np.empty(min(chunk, count, 2 * rows - 1) * n)
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        mask = _floyd_masks(n, m, c, rng)
        coins = rng.integers(0, 2, size=(c, m)).ravel()
        k = max(1, c // rows)
        for s in range(k):
            lo, hi = s * rows, c if s == k - 1 else (s + 1) * rows
            v = buf[: (hi - lo) * n]
            v[:] = 0.0
            v[np.flatnonzero(mask[lo * n : hi * n])] = coins[lo * m : hi * m] * 2.0 - 1.0
            out[done + lo : done + hi] = stat(v.reshape(hi - lo, n))
    return out


def _quad_stats(a, n, m, count, rng):
    """Raw restricted quadratic forms eps^T A_JJ eps = v A v^T, count of
    them: the row sums of (v A) * v."""
    return _draw(n, m, count, rng, m * m, lambda v: np.einsum("ij,ij->i", v @ a, v))


def _restricted_norms(b, n, m, count, rng):
    """Euclidean norms of B R_J eps = B v^T, count of them: the row norms
    of v B^T."""
    def norms(v):
        img = v @ b.T
        return np.sqrt(np.einsum("ij,ij->i", img, img))
    return _draw(n, m, count, rng, n * m, norms)


def _checked(a, n: int, m: int, trials: int) -> np.ndarray:
    """The inputs every Monte Carlo estimator shares, checked; returns a
    as a float matrix."""
    a = check_matrix(np.asarray(a, dtype=float), square=True)
    if a.shape[0] != n:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[0]}, expected {n}x{n}")
    if not 1 <= m < n:
        raise ValueError(f"subset size {m} outside [1, {n - 1}]")
    if trials < 1:
        raise ValueError("trials must be positive")
    return a


def _draws(statistic: str, a, n: int, m: int, count: int, rng):
    """(raw, stats) over count trials: raw holds the uncentered draws
    whose sums a tally keeps, stats the draws the thresholds apply to.
    They are the same restricted norms for "small_ball" and
    "large_deviation"; for "quadratic", stats = |raw - (m/n) tr A|,
    centered at the exact mean of the restricted form."""
    if statistic == "quadratic":
        raw = _quad_stats(a, n, m, count, rng)
        return raw, np.abs(raw - (m / n) * float(np.trace(a)))
    if statistic in ("small_ball", "large_deviation"):
        raw = _restricted_norms(a, n, m, count, rng)
        return raw, raw
    raise ValueError(f"unknown statistic {statistic!r}")


def pilot_thresholds(statistic: str, a, n: int, m: int, trials: int, stream) -> np.ndarray:
    """The thresholds of a run given none.  For "quadratic" and
    "large_deviation", default_thresholds over the first
    min(1024, trials) draws of the statistic from the stream, which the
    run's trials do not use (conc/<replicate>/trial-block/pilot in the
    CLI).  For "small_ball", its one fixed threshold
    sqrt(m/2n) * |B|_HS, without drawing."""
    a = check_matrix(a, square=True)
    if statistic == "small_ball":
        return np.array([math.sqrt(m / (2 * n)) * hs_norm(a)])
    return default_thresholds(_draws(statistic, a, n, m, min(_PILOT, trials), stream)[1])


def mc_tally(statistic: str, a, n: int, m: int, trials: int, thresholds, stream):
    """One block's tally of trials draws of the statistic from the stream:
    (counts, raw_sum, raw_sq_sum).  counts[k] is the number of draws at
    or above thresholds[k]; for "small_ball" counts has one entry, the
    draws at or below its threshold.  raw_sum and raw_sq_sum sum the
    uncentered draws and their squares.  Nothing is checked here:
    mc_curve checks the inputs once for all of a run's blocks."""
    raw, stats = _draws(statistic, np.asarray(a, dtype=float), n, m, trials, stream)
    thresholds = np.asarray(thresholds, dtype=float)
    if statistic == "small_ball":
        counts = np.array([np.count_nonzero(stats <= thresholds[0])], dtype=np.int64)
    else:
        counts = _exceed_counts(stats, thresholds)
    return counts, float(raw.sum()), float((raw * raw).sum())


def mc_curve(statistic: str, a, n: int, m: int, trials: int, thresholds, tallies):
    """The TailCurve of a run of trials trials in all (for "small_ball", a
    one-threshold SmallBallEstimate), from its blocks' tallies (mc_tally)
    in block order.  Counts and raw sums are added in
    that order; the inputs are checked, and the norms and the bound
    shape computed, once per call.  A zero matrix gives infinite shapes:
    its bound never binds."""
    a = _checked(a, n, m, trials)
    thresholds = np.asarray(thresholds, dtype=float)
    (counts, raw_sum, raw_sq_sum), *rest = tallies
    for c, s, s2 in rest:
        counts, raw_sum, raw_sq_sum = counts + c, raw_sum + s, raw_sq_sum + s2
    norm = spectral_norm(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        if statistic == "quadratic":
            prefactor, admissible = 1.0, None
            shape = np.minimum(thresholds**2 / (m * norm * norm), thresholds / norm)
        elif statistic == "large_deviation":
            prefactor, admissible = 2.0, thresholds > math.sqrt(4 * m / n) * hs_norm(a)
            shape = thresholds**2 / (norm * norm)
        elif statistic == "small_ball":
            prefactor, admissible = 2.0, None
            shape = np.array([(m / n**2) * hs_norm(a) ** 4]) / norm**4
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    cls = SmallBallEstimate if statistic == "small_ball" else TailCurve
    return cls(thresholds=thresholds, counts=counts, trials=trials,
               shape=np.where(norm > 0.0, shape, math.inf), raw_sum=raw_sum,
               raw_sq_sum=raw_sq_sum, prefactor=prefactor, admissible=admissible)


def mc_quadratic_tail(a, n: int, m: int, trials: int, thresholds, stream) -> TailCurve:
    """Tail of |eps^T A_JJ eps - (m/n) tr A| over random (J, eps), at the
    given thresholds, with trials drawn from the stream.  The centering
    constant is the exact mean of the restricted form, so the curve's
    raw moments double as a centering self-check."""
    tally = mc_tally("quadratic", a, n, m, trials, thresholds, stream)
    return mc_curve("quadratic", a, n, m, trials, thresholds, [tally])


def mc_small_ball(b, n: int, m: int, trials: int, stream) -> SmallBallEstimate:
    """P(|B R_J eps|_2 <= sqrt(m/2n) * |B|_HS) with Wilson interval, with
    trials drawn from the stream."""
    thresholds = pilot_thresholds("small_ball", b, n, m, trials, stream)
    tally = mc_tally("small_ball", b, n, m, trials, thresholds, stream)
    return mc_curve("small_ball", b, n, m, trials, thresholds, [tally])


def mc_large_deviation(b, n: int, m: int, trials: int, thresholds, stream) -> TailCurve:
    """Tail of |B R_J eps|_2 at the given thresholds, with trials drawn
    from the stream; thresholds at or below sqrt(4m/n)*|B|_HS are kept
    in the report but flagged inadmissible for the bound."""
    tally = mc_tally("large_deviation", b, n, m, trials, thresholds, stream)
    return mc_curve("large_deviation", b, n, m, trials, thresholds, [tally])
