"""Nets over completely symmetric norms.

A completely symmetric norm is determined by its values on sorted
nonnegative vectors, and after geometric quantization those are
captured by finitely many test vectors: for each nondecreasing step
map the test vector holds tau^-level on the level's coordinate block.
Bodies whose log-norm profiles over the whole step family agree to
within log tau are provably close, so bucketing profiles on a grid of
that pitch yields a net with certified pair distances.

A test vector's norm depends only on how many coordinates each level
holds, so the family is one small-int matrix of level widths and no test
vector is built.  Family norms are never cached, so a run holds one
body's (or one pair's) at a time.  Certificates compare closed-form
norms exactly; only a distinct pair's optional identity-map ratio check
samples.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .randmodel import substream

__all__ = [
    "SymmetricBody",
    "lp_body",
    "top_k_body",
    "lorentz_body",
    "body_from_tag",
    "StepFamily",
    "SymmetricNet",
    "PairCertificate",
    "level_count",
    "enumerate_steps",
    "log_profile",
    "profile_cell",
    "build_net",
    "certify_pair",
    "tau_for_separation",
    "log_log_separation",
    "net_lines",
]

_STREAM_SEED = 0x5E75E7
PROFILE_CAP = 10**6
# relative error allowed for level_count's float x, hundreds of times its few ulps
_LEVEL_MARGIN = 2.0**-44


@dataclass(frozen=True)
class SymmetricBody:
    """A sign- and permutation-invariant norm given in closed form.

    kind selects the formula: "lp" (param = exponent, inf allowed),
    "top_k" (param = how many largest entries to sum), "lorentz"
    (param = nonincreasing weight tuple, scaled so the first weight is
    1).  Every kind satisfies norm(e1) = 1.
    """

    kind: str
    dim: int
    param: object

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "lp":
            p = float(self.param)
            if not (p >= 1.0):
                raise ValueError(f"exponent must be >= 1, got {self.param}")
        elif self.kind == "top_k":
            k = int(self.param)
            if not 1 <= k <= self.dim:
                raise ValueError(f"top_k count {k} outside [1, {self.dim}]")
        elif self.kind == "lorentz":
            w = np.asarray(self.param, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError("need one weight per coordinate")
            if w[0] <= 0.0 or np.any(w < 0.0) or np.any(np.diff(w) > 0.0):
                raise ValueError("weights must be nonincreasing, nonnegative, w[0] > 0")
            object.__setattr__(self, "param", tuple(float(v) for v in w / w[0]))
        else:
            raise ValueError(f"unknown norm kind {self.kind!r}")

    def norm_many(self, x) -> np.ndarray:
        """Norms of the rows of x, evaluated in closed form."""
        a = np.abs(np.atleast_2d(np.asarray(x, dtype=float)))
        if a.shape[1] != self.dim:
            raise ValueError(f"row length {a.shape[1]} != dim {self.dim}")
        if self.kind == "lp":
            p = float(self.param)
            if math.isinf(p):
                return a.max(axis=1)
            if p == 1.0:
                return a.sum(axis=1)
            if p == 2.0:
                return np.sqrt((a * a).sum(axis=1))
            # scale out the row max so large exponents cannot overflow;
            # a is already a private copy, so scale and power it in place
            m = a.max(axis=1)
            out = np.zeros(a.shape[0])
            pos = m > 0.0
            scaled = a if pos.all() else a[pos]  # copy only if a row is all zero
            np.divide(scaled, m[pos, None], out=scaled)
            np.power(scaled, p, out=scaled)
            out[pos] = m[pos] * scaled.sum(axis=1) ** (1.0 / p)
            return out
        srt = np.sort(a, axis=1)[:, ::-1]
        if self.kind == "top_k":
            return srt[:, : int(self.param)].sum(axis=1)
        return srt @ np.asarray(self.param)

    def family_norms(self, family: StepFamily, tau: float) -> np.ndarray:
        """Norms of every step map's block vector at tau, from the level
        widths alone.

        For lp, ||v||_p^p = sum_l w_l tau^(-lp), with the largest entry
        tau^-1 scaled out so large exponents cannot overflow.  top_k and
        lorentz weight level l by the coordinate weights its block covers
        (the clipped widths min(s_l, k) - min(s_(l-1), k) for top_k).
        The float operations differ from norm_many's on the block
        vectors, so the two agree to a few ulps, not bit for bit.
        """
        if family.n != self.dim:
            raise ValueError("body and family dimensions differ")
        table = np.array([float(tau) ** (-lvl) for lvl in range(1, family.levels + 1)])
        if self.kind == "top_k":
            return family.level_sum(table, np.arange(self.dim) < int(self.param))
        if self.kind == "lorentz":
            return family.level_sum(table, self.param)
        p = float(self.param)
        if math.isinf(p):
            return np.full(family.count, table[0])
        if p == 1.0:
            return family.level_sum(table)
        if p == 2.0:
            return np.sqrt(family.level_sum(table * table))
        return table[0] * family.level_sum(np.power(table / table[0], p)) ** (1.0 / p)

    def norm(self, x) -> float:
        return float(self.norm_many(np.asarray(x, dtype=float)[None, :])[0])

    def tag(self) -> str:
        if self.kind == "lp":
            return f"lp p={float(self.param):.17g}"
        if self.kind == "top_k":
            return f"top_k k={int(self.param)}"
        ws = ",".join(f"{v:.17g}" for v in self.param)
        return f"lorentz w={ws}"


def lp_body(n: int, p) -> SymmetricBody:
    return SymmetricBody("lp", n, float(p))


def top_k_body(n: int, k: int) -> SymmetricBody:
    return SymmetricBody("top_k", n, int(k))


def lorentz_body(n: int, weights) -> SymmetricBody:
    return SymmetricBody("lorentz", n, tuple(weights))


def body_from_tag(n: int, text: str) -> SymmetricBody:
    """Inverse of SymmetricBody.tag for a known dimension."""
    parts = text.strip().split(None, 1)
    if len(parts) != 2:
        raise ValueError(f"malformed body tag {text!r}")
    kind, rest = parts
    key, _, val = rest.partition("=")
    if kind == "lp" and key == "p":
        return lp_body(n, float(val))
    if kind == "top_k" and key == "k":
        return top_k_body(n, int(val))
    if kind == "lorentz" and key == "w":
        return lorentz_body(n, [float(v) for v in val.split(",")])
    raise ValueError(f"malformed body tag {text!r}")


def level_count(n: int, tau) -> int:
    """Smallest number of geometric levels that makes the discarded
    tail negligible: least positive integer with n*tau^-L < 1 - 1/tau.

    That is floor(x) + 1 for x = log(n / (1 - 1/tau)) / log(tau) > 0.  x is
    computed in floats, from logs of positive terms only, to within a few
    ulps; only when an integer j lies within _LEVEL_MARGIN of it is the
    strict inequality decided at j in exact rational arithmetic, so
    boundary cases cannot be misclassified by rounding.  Raises ValueError
    when tau is so close to 1 that the margin spans an integer step.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = Fraction(tau)
    if t <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    a, b = t.numerator, t.denominator
    # log(1 - 1/tau) = -log1p(b / (a - b)) and log(tau) = log1p((a - b) / b)
    x = (math.log(n) + math.log1p(b / (a - b))) / math.log1p((a - b) / b)
    j = round(x)
    if abs(x - j) > _LEVEL_MARGIN * x:
        return math.floor(x) + 1
    if _LEVEL_MARGIN * x >= 0.5:
        raise ValueError(f"tau = {tau!r} is too close to 1 to count its levels (about {x:.3g})")
    # n * (b/a)^j < (a-b)/a  <=>  n * b^j < (a-b) * a^(j-1)
    return j if j >= 1 and n * b**j < (a - b) * a ** (j - 1) else j + 1


@dataclass(frozen=True)
class StepFamily:
    """All nondecreasing step maps from levels {1..levels} to
    coordinates {1..n}, in lexicographic order, stored by their level
    widths w_l = s_l - s_(l-1) (s_0 = 0): one column per map."""

    n: int
    levels: int
    widths: np.ndarray

    @property
    def count(self) -> int:
        return self.widths.shape[1]

    @property
    def maps(self) -> np.ndarray:
        """Row per step map: its steps s_1 <= ... <= s_levels, as int64."""
        return np.cumsum(self.widths, axis=0, dtype=np.int64).T

    def level_sum(self, coef: np.ndarray, weights=None) -> np.ndarray:
        """Row per step map: the sum over levels l of coef[l - 1] times
        the weight of level l's coordinate block, which is the block's
        width when weights is None and the sum of its coordinates'
        weights otherwise."""
        out = np.zeros(self.count)
        # a level of zero width in every map would add +0.0, which moves no sum
        used = np.flatnonzero(self.widths.any(axis=1))
        if weights is None:
            for lvl in used:
                out += coef[lvl] * self.widths[lvl]
            return out
        # span[a, b] sums the weights of coordinates a+1..b from a onward,
        # not as a difference of prefix sums, so a light block keeps its
        # relative accuracy
        weights = np.asarray(weights, dtype=float)
        span = np.zeros((self.n + 1, self.n + 1))
        for a in range(self.n):
            span[a, a + 1 :] = np.cumsum(weights[a:])
        end = np.zeros(self.count, dtype=np.intp)
        for lvl in used:
            start, end = end, end + self.widths[lvl]
            out += coef[lvl] * span[start, end]
        return out


def enumerate_steps(n: int, levels: int, cap: int = PROFILE_CAP) -> StepFamily:
    """Enumerate the full step family; refuses when the exact count
    C(n+levels-1, levels) exceeds the cap.

    The k-level maps are, for each first step a, a followed by the
    (k-1)-level maps whose first step is at least a: a suffix of them.
    """
    if n < 1 or levels < 1:
        raise ValueError("need n >= 1 and levels >= 1")
    total = math.comb(n + levels - 1, levels)
    if cap is not None and total > cap:
        raise ValueError(f"step family has {total} members, above the cap {cap}")
    firsts = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    if n == 1:  # one map, widths 1 then zeros: growing it level by level is quadratic
        widths = np.eye(levels, 1, dtype=firsts.dtype)
    else:
        widths = firsts[None, :]
        for _ in range(levels - 1):
            starts = np.searchsorted(widths[0], firsts)
            grown = np.empty((widths.shape[0] + 1, int((widths.shape[1] - starts).sum())),
                             dtype=widths.dtype)
            grown[0] = np.repeat(firsts, widths.shape[1] - starts)
            np.concatenate([widths[:, s:] for s in starts], axis=1, out=grown[1:])
            grown[1] -= grown[0]
            widths = grown
    widths.flags.writeable = False
    return StepFamily(n=n, levels=levels, widths=widths)


def log_profile(body: SymmetricBody, family: StepFamily, tau: float) -> np.ndarray:
    """Log of the block-vector norm across the whole family.

    The expected range is [-log tau^2, log n]; values outside it are
    reported as a warning, never an error.
    """
    norms = body.family_norms(family, tau)
    if not np.all(norms > 0.0):
        raise AssertionError("block vector with zero norm; not a norm")
    prof = np.log(norms)
    low, high = -2.0 * math.log(tau), math.log(max(family.n, 2))
    bad = int(np.count_nonzero((prof < low - 1e-12) | (prof > high + 1e-12)))
    if bad:
        warnings.warn(
            f"{bad} of {prof.size} profile values fall outside "
            f"[{low:.6g}, {high:.6g}]",
            stacklevel=2,
        )
    return prof


def profile_cell(profile: np.ndarray, tau: float) -> np.ndarray:
    """Grid cell of a profile at pitch log tau, anchored at -log tau^2,
    as an int64 array with one index per profile entry.

    A value exactly on a cell edge lands in the cell whose lower edge
    it sits on (floor semantics), so assignment is deterministic.
    """
    lt = math.log(tau)
    idx = np.floor((np.asarray(profile, dtype=float) + 2.0 * lt) / lt)
    if not np.all(np.isfinite(idx)):
        raise ValueError("profile entries must be finite")
    return idx.astype(np.int64)


@dataclass
class SymmetricNet:
    """Occupied profile cells with one representative body per cell."""

    n: int
    tau: float
    levels: int
    profile_count: int
    cell_reps: list  # (cell id, SymmetricBody), ids 0, 1, ... in first-seen order
    cells: np.ndarray  # grid indices: row = cell id, column = step map
    members: dict  # cell id -> input positions
    family: StepFamily | None = None  # the profiled step family; net_lines never reads it

    @property
    def cell_count(self) -> int:
        return len(self.cell_reps)

    @property
    def log_log_cell_bound(self) -> float:
        """log log of the bound base^profiles on the number of possible
        cells, base = _grid_top(n, tau): the bound itself overflows a
        float long before its exponent does.  A report value only."""
        return math.log(self.profile_count) + math.log(math.log(_grid_top(self.n, self.tau)))


def _grid_top(n: int, tau: float) -> int:
    """floor(log n / log tau) + 2: the top grid index of the expected
    profile range [-log tau^2, log n], and the base of the cell-count
    bound."""
    return math.floor(math.log(max(n, 2)) / math.log(tau)) + 2


def log_log_separation(n: int, tau: float, c: float) -> float:
    """log log of the separated-set annotation exp(exp(c log^2 n / log tau)),
    a report value only."""
    return c * math.log(max(n, 2)) ** 2 / math.log(tau)


def _cell_dtype(n: int, tau: float) -> np.dtype:
    """Narrowest signed integer type that holds the grid indices 0 to
    _grid_top(n, tau) (int8 at n = 12, tau = 1.5)."""
    top = _grid_top(n, tau)
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= top)


def build_net(bodies, tau, cap: int = PROFILE_CAP) -> SymmetricNet:
    """Group bodies by quantized log-norm profile.

    The level count is recomputed exactly from (n, tau); the first body
    that lands in a cell becomes its representative.  Cells are stored
    in _cell_dtype(n, tau); a profile whose cell index falls outside
    that type raises ValueError instead of wrapping.
    """
    bodies = list(bodies)
    if not bodies:
        raise ValueError("need at least one body")
    n = bodies[0].dim
    if any(b.dim != n for b in bodies):
        raise ValueError("all bodies must share a dimension")
    tau_f = float(tau)
    if not tau_f > 1.0:
        raise ValueError(f"tau must exceed 1, got {tau}")
    levels = level_count(n, tau)
    family = enumerate_steps(n, levels, cap=cap)
    dtype = _cell_dtype(n, tau_f)
    low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
    cells = np.empty((len(bodies), family.count), dtype=dtype)
    ids: dict = {}  # hash of an occupied cell's row bytes -> its cell ids
    cell_reps: list = []
    members: dict = {}
    for pos, body in enumerate(bodies):
        # each body's cell goes into the first free row, which is kept only
        # when the cell is new; a repeated cell is overwritten by the next
        cell_idx = profile_cell(log_profile(body, family, tau_f), tau_f)
        if cell_idx.min() < low or cell_idx.max() > high:
            raise ValueError(f"body {pos}: cell indices [{cell_idx.min()}, {cell_idx.max()}] "
                             f"do not fit the net's {dtype} cells")
        row = cells[len(cell_reps)]
        row[:] = cell_idx
        same = ids.setdefault(hash(row.tobytes()), [])
        cell = next((c for c in same if np.array_equal(cells[c], row)), None)
        if cell is None:
            cell = len(cell_reps)
            same.append(cell)
            members[cell] = []
            cell_reps.append((cell, body))
        members[cell].append(pos)
    return SymmetricNet(
        n=n, tau=tau_f, levels=levels, profile_count=family.count,
        cell_reps=cell_reps, cells=cells[: len(cell_reps)], members=members, family=family,
    )


@dataclass
class PairCertificate:
    """Outcome of the exact profile sandwich between two bodies.

    granted means tau^-1 * phi(D) <= phi(K) <= tau * phi(D) held for
    every step map, which certifies distance_bound = tau^6.  The
    sampled identity-map ratio check is recorded alongside; it never
    affects granting.
    """

    granted: bool
    tau: float
    distance_bound: float | None
    witness_step: tuple | None
    max_ratio: float
    ratio_bound: float
    empirical_ok: bool
    samples: int


def certify_pair(k_body: SymmetricBody, d_body: SymmetricBody, family: StepFamily, tau,
                 samples: int = 10**4, stream=None) -> PairCertificate:
    """Exact sandwich check over the whole family, plus a sampled
    validation that identity-map norm ratios stay below tau^3.

    A self-pair (d_body == k_body) is settled without any norm or draw.
    Its sandwich is granted: equal bodies have equal family norms
    phi >= 0, fl(tau * phi) >= phi for tau > 1 (+inf too) and a NaN
    compares false, so no map can fail.  Its ratio check reads
    max_ratio = 1.0, which is what sampling would give: nk / nk is
    exactly 1.0 for every finite nonzero norm, and nanmax skips the NaN
    of a zero one.  stream is left untouched.  Other pairs evaluate both
    bodies' family norms here, on each call, and draw their samples
    from stream.
    """
    if k_body.dim != d_body.dim or k_body.dim != family.n:
        raise ValueError("bodies and family must share a dimension")
    tau_f = float(tau)
    if not tau_f > 1.0:
        raise ValueError(f"tau must exceed 1, got {tau}")
    same = d_body == k_body
    witness = None
    if not same:
        phi_k = k_body.family_norms(family, tau_f)
        phi_d = d_body.family_norms(family, tau_f)
        bad = (phi_k > tau_f * phi_d) | (phi_d > tau_f * phi_k)
        if bad.any():
            witness = tuple(int(v) for v in np.cumsum(family.widths[:, int(np.argmax(bad))]))
    granted = witness is None

    ratio_bound = tau_f**3 * (1.0 + 1e-9)
    max_ratio, empirical_ok = math.nan, True
    if samples > 0:
        max_ratio = 1.0  # a self-pair's sampled ratios, without drawing them
        if not same:
            rng = stream if stream is not None else substream(_STREAM_SEED, "certify")
            x = rng.standard_normal((samples, family.n))
            nk, nd = k_body.norm_many(x), d_body.norm_many(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                max_ratio = float(np.nanmax(np.maximum(nk / nd, nd / nk)))
        empirical_ok = bool(max_ratio <= ratio_bound)
    return PairCertificate(
        granted=granted,
        tau=tau_f,
        distance_bound=tau_f**6 if granted else None,
        witness_step=witness,
        max_ratio=max_ratio,
        ratio_bound=ratio_bound,
        empirical_ok=empirical_ok,
        samples=int(samples),
    )


def tau_for_separation(t: float) -> float:
    """Quantization ratio used when targeting separation t: t^(1/12)."""
    if not t > 1.0:
        raise ValueError(f"separation target must exceed 1, got {t}")
    return float(t) ** (1.0 / 12.0)


def net_lines(net: SymmetricNet):
    """Yield the text form one line at a time, each ending in a newline:
    the header, then one line per occupied cell.

    A cell's indices are written through one token table per net: the
    text "v," of every grid index v from the smallest cell value to the
    largest, NUL-padded to a fixed width.  A row is one gather from the
    table, with the padding and the last comma dropped from its bytes.
    """
    yield (f"symnet n={net.n} tau={net.tau:.17g} levels={net.levels} "
           f"profiles={net.profile_count} cells={net.cell_count}\n")
    lo = int(net.cells.min(initial=0))
    tokens = [f"{v}," for v in range(lo, int(net.cells.max(initial=0)) + 1)]
    table = np.array(tokens, dtype=f"S{max(map(len, tokens))}")
    for cell, body in net.cell_reps:
        idx = np.subtract(net.cells[cell], lo, dtype=np.intp)  # no wrap in a narrow type
        row = table[idx].tobytes().replace(b"\0", b"")[:-1].decode("ascii")
        yield f"cell {row} rep {body.tag()}\n"
