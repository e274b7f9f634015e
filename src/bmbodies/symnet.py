"""Nets over completely symmetric norms.

A completely symmetric norm is determined by its values on sorted
nonnegative vectors, and after geometric quantization those are
captured by finitely many test vectors: for each nondecreasing step
map the test vector holds tau^-level on the level's coordinate block.
Bodies whose log-norm profiles over the whole step family agree to
within log tau are provably close, so bucketing profiles on a grid of
that pitch yields a net with certified pair distances.

All profile comparisons that feed certificates are plain float
comparisons of exactly evaluated norms; nothing is sampled except the
optional identity-map ratio validation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

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
    "step_norm",
    "log_profile",
    "profile_cell",
    "build_net",
    "certify_pair",
    "quantize_to_grid",
    "tau_for_separation",
    "net_to_text",
    "net_from_text",
]

_STREAM_SEED = 0x5E75E7
PROFILE_CAP = 10**6


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
            # scale out the row max so large exponents cannot overflow
            m = a.max(axis=1)
            out = np.zeros(a.shape[0])
            pos = m > 0.0
            scaled = a[pos] / m[pos, None]
            out[pos] = m[pos] * (scaled**p).sum(axis=1) ** (1.0 / p)
            return out
        srt = np.sort(a, axis=1)[:, ::-1]
        if self.kind == "top_k":
            return srt[:, : int(self.param)].sum(axis=1)
        return srt @ np.asarray(self.param)

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

    Evaluated in exact rational arithmetic so boundary cases (the
    inequality is strict) cannot be misclassified by rounding.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = Fraction(tau)
    if t <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    a, b = t.numerator, t.denominator
    # n * (b/a)^L < (a-b)/a  <=>  n * b^L < (a-b) * a^(L-1)
    lvl = 1
    lhs, rhs = n * b, a - b
    while lhs >= rhs:
        lvl += 1
        lhs *= b
        rhs *= a
    return lvl


@dataclass(frozen=True)
class StepFamily:
    """All nondecreasing step maps from levels {1..levels} to
    coordinates {1..n}, in lexicographic order."""

    n: int
    levels: int
    maps: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def count(self) -> int:
        return self.maps.shape[0]

    def block_vectors(self, tau: float) -> np.ndarray:
        """Row per step map: coordinate block (prev, cur] of level l
        holds tau^-l, everything past the last step is zero."""
        key = float(tau)
        got = self._cache.get(key)
        if got is not None:
            return got
        coords = np.arange(1, self.n + 1)
        v = np.zeros((self.count, self.n))
        prev = np.zeros(self.count, dtype=np.int64)
        for lvl in range(1, self.levels + 1):
            cur = self.maps[:, lvl - 1]
            mask = (coords[None, :] > prev[:, None]) & (coords[None, :] <= cur[:, None])
            v[mask] = float(tau) ** (-lvl)
            prev = cur
        self._cache[key] = v
        return v


def enumerate_steps(n: int, levels: int, cap: int = PROFILE_CAP) -> StepFamily:
    """Enumerate the full step family; refuses when the exact count
    C(n+levels-1, levels) exceeds the cap."""
    if n < 1 or levels < 1:
        raise ValueError("need n >= 1 and levels >= 1")
    total = math.comb(n + levels - 1, levels)
    if cap is not None and total > cap:
        raise ValueError(
            f"step family has {total} members, above the cap {cap}"
        )
    maps = np.array(
        list(combinations_with_replacement(range(1, n + 1), levels)),
        dtype=np.int64,
    ).reshape(total, levels)
    return StepFamily(n=n, levels=levels, maps=maps)


def step_norm(body: SymmetricBody, step_map, tau: float) -> float:
    """Norm of the geometric block vector of one step map."""
    sm = np.asarray(step_map, dtype=np.int64)
    if sm.ndim != 1 or sm.size < 1:
        raise ValueError("step map must be a nonempty 1-d index list")
    if np.any(sm < 1) or np.any(sm > body.dim) or np.any(np.diff(sm) < 0):
        raise ValueError("step map must be nondecreasing with values in [1, n]")
    v = np.zeros(body.dim)
    prev = 0
    for lvl, cur in enumerate(sm, start=1):
        v[prev:cur] = float(tau) ** (-lvl)
        prev = int(cur)
    return body.norm(v)


def log_profile(body: SymmetricBody, family: StepFamily, tau: float) -> np.ndarray:
    """Log of the block-vector norm across the whole family.

    The expected range is [-log tau^2, log n]; values outside it are
    reported as a warning, never an error.
    """
    if body.dim != family.n:
        raise ValueError("body and family dimensions differ")
    norms = body.norm_many(family.block_vectors(tau))
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


def profile_cell(profile: np.ndarray, tau: float) -> tuple:
    """Grid cell of a profile at pitch log tau, anchored at -log tau^2.

    A value exactly on a cell edge lands in the cell whose lower edge
    it sits on (floor semantics), so assignment is deterministic.
    """
    lt = math.log(tau)
    idx = np.floor((np.asarray(profile, dtype=float) + 2.0 * lt) / lt)
    if not np.all(np.isfinite(idx)):
        raise ValueError("profile entries must be finite")
    return tuple(idx.astype(np.int64).tolist())


@dataclass
class SymmetricNet:
    """Occupied profile cells with one representative body per cell."""

    n: int
    tau: float
    levels: int
    profile_count: int
    cell_reps: list  # (cell tuple, SymmetricBody), first-seen order
    members: dict  # cell tuple -> input positions, empty for parsed nets
    cell_bound: float
    separation_annotation: float
    family: StepFamily | None = None  # the profiled step family; None for parsed nets

    @property
    def cell_count(self) -> int:
        return len(self.cell_reps)


def _cell_count_bound(n: int, tau: float, profiles: int) -> float:
    base = math.floor(math.log(max(n, 2)) / math.log(tau)) + 2
    try:
        return float(base) ** profiles
    except OverflowError:
        return math.inf


def _separation_annotation(n: int, tau: float, c_const: float) -> float:
    inner = c_const * math.log(max(n, 2)) ** 2 / math.log(tau)
    try:
        return math.exp(math.exp(inner))
    except OverflowError:
        return math.inf


def build_net(
    bodies,
    tau,
    cap: int = PROFILE_CAP,
    c_const: float = 1.0,
) -> SymmetricNet:
    """Group bodies by quantized log-norm profile.

    The level count is recomputed exactly from (n, tau); the first body
    that lands in a cell becomes its representative.  The recorded
    bound on the number of possible cells and the doubly exponential
    separated-set annotation are report values only.
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
    cell_reps: list = []
    members: dict = {}
    for pos, body in enumerate(bodies):
        cell = profile_cell(log_profile(body, family, tau_f), tau_f)
        if cell not in members:
            members[cell] = []
            cell_reps.append((cell, body))
        members[cell].append(pos)
    return SymmetricNet(
        n=n,
        tau=tau_f,
        levels=levels,
        profile_count=family.count,
        cell_reps=cell_reps,
        members=members,
        cell_bound=_cell_count_bound(n, tau_f, family.count),
        separation_annotation=_separation_annotation(n, tau_f, c_const),
        family=family,
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


def certify_pair(
    k_body: SymmetricBody,
    d_body: SymmetricBody,
    family: StepFamily,
    tau,
    samples: int = 10**4,
    stream=None,
) -> PairCertificate:
    """Exact sandwich check over the whole family, plus a sampled
    validation that identity-map norm ratios stay below tau^3."""
    if k_body.dim != d_body.dim or k_body.dim != family.n:
        raise ValueError("bodies and family must share a dimension")
    tau_f = float(tau)
    if not tau_f > 1.0:
        raise ValueError(f"tau must exceed 1, got {tau}")
    vecs = family.block_vectors(tau_f)
    phi_k = k_body.norm_many(vecs)
    phi_d = d_body.norm_many(vecs)
    over = phi_k > tau_f * phi_d
    under = phi_d > tau_f * phi_k
    bad = over | under
    witness = None
    if bad.any():
        witness = tuple(int(v) for v in family.maps[int(np.argmax(bad))])
    granted = witness is None

    ratio_bound = tau_f**3 * (1.0 + 1e-9)
    max_ratio = math.nan
    empirical_ok = True
    if samples > 0:
        rng = stream if stream is not None else substream(_STREAM_SEED, "certify")
        x = rng.standard_normal((samples, family.n))
        nk = k_body.norm_many(x)
        nd = d_body.norm_many(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.maximum(nk / nd, nd / nk)
        max_ratio = float(np.nanmax(r)) if r.size else math.nan
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


def quantize_to_grid(x, tau: float, levels: int) -> np.ndarray:
    """Round each entry down to the geometric grid {tau^-j}.

    Entries below tau^-levels are zeroed; every kept entry y satisfies
    y <= x < tau*y.  Exact powers stay where they are.
    """
    a = np.asarray(x, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("expects nonnegative entries")
    tau_f = float(tau)
    out = np.zeros_like(a)
    pos = a > 0.0
    expo = np.floor(np.log(a[pos]) / math.log(tau_f)).astype(np.int64)
    y = tau_f**expo.astype(float)
    # rounding of log can misplace exact powers by one grid step
    too_big = y > a[pos]
    y[too_big] /= tau_f
    expo[too_big] -= 1
    too_small = tau_f * y <= a[pos]
    y[too_small] *= tau_f
    expo[too_small] += 1
    y[expo < -levels] = 0.0
    out[pos] = y
    return out


def tau_for_separation(t: float) -> float:
    """Quantization ratio used when targeting separation t: t^(1/12)."""
    if not t > 1.0:
        raise ValueError(f"separation target must exceed 1, got {t}")
    return float(t) ** (1.0 / 12.0)


def net_to_text(net: SymmetricNet) -> str:
    """One header line, then one line per occupied cell."""
    lines = [
        f"symnet n={net.n} tau={net.tau:.17g} levels={net.levels} "
        f"profiles={net.profile_count} cells={net.cell_count}"
    ]
    for cell, body in net.cell_reps:
        idx = ",".join(str(i) for i in cell)
        lines.append(f"cell {idx} rep {body.tag()}")
    return "\n".join(lines) + "\n"


def net_from_text(text: str, cap: int = PROFILE_CAP) -> SymmetricNet:
    """Rebuild a net record from its text form.

    Membership lists are not serialized, so they come back empty; the
    representatives and cell indices round-trip exactly.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("symnet "):
        raise ValueError("not a net serialization")
    head = dict(kv.split("=") for kv in lines[0].split()[1:])
    n = int(head["n"])
    tau = float(head["tau"])
    levels = int(head["levels"])
    profiles = int(head["profiles"])
    declared = int(head["cells"])
    if level_count(n, tau) != levels:
        raise ValueError("level count inconsistent with (n, tau)")
    cell_reps = []
    members: dict = {}
    for ln in lines[1:]:
        parts = ln.split(None, 3)
        if len(parts) != 4 or parts[0] != "cell" or parts[2] != "rep":
            raise ValueError(f"malformed cell line {ln!r}")
        cell = tuple(int(v) for v in parts[1].split(","))
        if len(cell) != profiles:
            raise ValueError("cell index length differs from profile count")
        cell_reps.append((cell, body_from_tag(n, parts[3])))
        members[cell] = []
    if len(cell_reps) != declared:
        raise ValueError("cell count differs from header")
    return SymmetricNet(
        n=n,
        tau=tau,
        levels=levels,
        profile_count=profiles,
        cell_reps=cell_reps,
        members=members,
        cell_bound=_cell_count_bound(n, tau, profiles),
        separation_annotation=_separation_annotation(n, tau, 1.0),
    )
