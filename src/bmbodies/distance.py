"""Operator norms between hull bodies, Banach-Mazur upper bounds, and
the map-containment event checkers.

Operator norms report a certified bracket: the lower bound is the gauge
of a mapped extreme point that was actually found, the upper bound is a
maximum of per-component certificates.  Euclidean components certify
their upper bound through the target's Ball(2) inradius; a target with
no full-dimensional Ball(2) component leaves that bound unavailable and
the result says so instead of guessing.  Boxes mapped into a solid
target are bounded by domination: the gauge of |T||g| bounds every sign
vertex of the box spanned by g.

Distance search only ever reports upper bounds: it minimizes the
product of the two certified operator norms over a finite candidate
set of maps plus local refinement.  Certifying lower bounds on the
distance would mean global minimization over all invertible maps,
which is out of reach, so no such number is produced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product

import numpy as np

from .bodies import Ball, HullBody, SignedPoints, support_many
from .gauge import gauge
from .linalg import build_projectors, spectral_interval, spectral_norm, svd
from .randmodel import substream

__all__ = [
    "OpNormResult",
    "BmEstimate",
    "CertificationError",
    "EventReport",
    "BmOptions",
    "SeparationOptions",
    "SeparationReport",
    "op_norm",
    "bm_upper",
    "check_one_vector",
    "check_one_body",
    "run_separation",
    "event_alpha",
    "separation_scale",
]

_STREAM_SEED = 0xB0D1E5
_SIGN_CUTOFF = 16
_GUIDED_GAUGES = 4
_RESTARTS = 32
_GAUGE_TOL = 1e-6
_DIAG_SPREAD = 0.75
_REFINE_MAX_DIM = 8
_REFINE_SWEEPS = 2
_REFINE_STEPS = (0.5, 0.25, 0.1)


@dataclass
class OpNormResult:
    """Certified bracket of sup_{x in K} gauge_K2(Tx).

    witness is an input point inside K attaining lo; notes name every
    box searched by probe-guided signs and explain any component whose
    upper bound could not be certified (hi is infinite in that case).
    """

    lo: float
    hi: float
    witness: np.ndarray
    mode: str
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 <= self.lo:
            raise ValueError(f"negative lower bound {self.lo}")
        if self.lo > self.hi * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"bounds inverted: lo={self.lo}, hi={self.hi}")

    @property
    def hi_available(self) -> bool:
        return math.isfinite(self.hi)


class CertificationError(RuntimeError):
    """No candidate map got a finite certified operator-norm upper bound;
    the message carries the note naming the component (and generator)
    whose bound is unavailable."""


@dataclass
class BmEstimate:
    """Upper bound on the Banach-Mazur distance with the map achieving
    it and the log of every candidate tried."""

    upper: float
    best_map: np.ndarray
    norm_fwd: float
    norm_inv: float
    candidates: list = field(default_factory=list)

    def __post_init__(self):
        if self.upper < 1.0 - 1e-9:
            raise ValueError(f"distance upper bound {self.upper} below 1")
        prod = self.norm_fwd * self.norm_inv
        if abs(prod - self.upper) > 1e-9 * max(1.0, abs(prod)):
            raise ValueError("upper bound must equal the product of the norms")


@dataclass
class EventReport:
    """Outcome of a containment event at level alpha.

    The outcome is exactly (gauge_hi <= alpha * (1 + tol)); the stored
    fields let a reader recompute it.
    """

    kind: str
    alpha: float
    outcome: bool
    gauge_lo: float
    gauge_hi: float
    tol: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.outcome != (self.gauge_hi <= self.alpha * (1.0 + self.tol)):
            raise ValueError("outcome inconsistent with stored gauge value")


def _gauge(k2: HullBody, x: np.ndarray, tol: float):
    """(lo, hi) of gauge_K2(x), memoized on K2 by tol and the bytes of
    x up to sign (first nonzero entry positive, zeros as +0.0): gauge is
    a pure function of (body, point, tol), and a hull body is symmetric,
    so a certified bracket of x is one of -x."""
    memo = k2._cache.setdefault("gauge_memo", {})
    nz = np.flatnonzero(x)
    sign = -1.0 if nz.size and x[nz[0]] < 0.0 else 1.0
    key = ((sign * x + 0.0).tobytes(), tol)
    hit = memo.get(key)
    if hit is None:
        g = gauge(k2, x, tol=tol)
        hit = memo[key] = (g.lo, g.hi)
    return hit


def _solid(body: HullBody) -> bool:
    """Every component is unconditional, so |z| <= |v| coordinatewise
    with v in the body puts z in the body too."""
    return all(isinstance(c, Ball) or c.unconditional for c in body.components)


def _support(comp: Ball, n: int) -> np.ndarray:
    return np.arange(n) if comp.support is None else comp.support


def _sign_patterns(k: int) -> np.ndarray:
    """All 2^k sign vectors, deterministic order."""
    out = np.array(list(product((1.0, -1.0), repeat=k)))
    return out.reshape(-1, k)


def _box_vertices(gen: np.ndarray) -> np.ndarray:
    """All 2^k sign vertices s * g of a box generator g with k nonzero
    coordinates, in _sign_patterns order."""
    sup = np.nonzero(gen)[0]
    pats = _sign_patterns(sup.size)
    pts = np.zeros((pats.shape[0], gen.size))
    pts[:, sup] = pats * gen[sup]
    return pts


def _guided_points(t_mat, gen: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """One sign vertex of the box generator g per dual probe y.

    The vertex is sign(T^T y) * |g| on the support of g (a zero sign
    counts as +).  Since <y, T v> = sum_i (T^T y)_i v_i, it maximizes
    |<y, T v>| over all 2^k sign vertices v of the box.
    """
    sup = np.nonzero(gen)[0]
    spr = np.sign(t_mat[:, sup].T @ probes.T)
    spr[spr == 0.0] = 1.0
    pts = np.zeros((spr.shape[1], gen.size))
    pts[:, sup] = spr.T * np.abs(gen[sup])
    return pts


def _segment_points(comp, n: int) -> np.ndarray:
    """The extreme points +-p of a conditional point family, or the
    +-r e_i of a Ball(1) over its support."""
    if isinstance(comp, SignedPoints):
        return np.concatenate([comp.points, -comp.points], axis=0)
    sup = _support(comp, n)
    pts = np.zeros((2 * sup.size, n))
    pts[np.arange(sup.size), sup] = comp.radius
    pts[sup.size + np.arange(sup.size), sup] = -comp.radius
    return pts


def _dual_probes(body: HullBody) -> np.ndarray:
    """Rows y with h_body(y) = 1, used as cheap certified lower-bound
    probes; cached on the body."""
    cached = body._cache.get("dual_probes")
    if cached is not None:
        return cached
    n = body.dim
    dirs = [np.eye(n)]
    rng = substream(_STREAM_SEED, "distance/probes")
    signs = rng.integers(0, 2, size=(8, n)).astype(float) * 2.0 - 1.0
    dirs.append(signs)
    dirs.append(rng.standard_normal((8, n)))
    cand = np.concatenate(dirs, axis=0)
    hs = support_many(body, cand)
    keep = hs > 0.0
    probes = cand[keep] / hs[keep, None]
    body._cache["dual_probes"] = probes
    return probes


def _ball2_inradius(body: HullBody):
    """Radius of the largest full-support Ball(2) component, or None."""
    cached = body._cache.get("ball2_inradius", False)
    if cached is not False:
        return cached
    best = None
    for c in body.components:
        if isinstance(c, Ball) and c.p == 2.0:
            full = c.support is None or c.support.size == body.dim
            if full and (best is None or c.radius > best):
                best = c.radius
    body._cache["ball2_inradius"] = best
    return best


def _ball2_source_hi(t_mat, sup, radius, k2):
    """Certified upper bound for a Euclidean source piece, or None.

    Any Ball(2) component of the target whose span contains the image
    of the piece certifies gauge <= |v|_2 / r2; picking the largest
    such radius gives the tightest certificate.  A supported component
    qualifies only when the relevant map columns vanish off its
    support exactly.
    """
    ts = t_mat[:, sup]
    best = None
    for c in k2.components:
        if not (isinstance(c, Ball) and c.p == 2.0):
            continue
        if c.support is not None and c.support.size < k2.dim:
            outside = np.ones(k2.dim, dtype=bool)
            outside[c.support] = False
            if np.any(ts[outside, :]):
                continue
        if best is None or c.radius > best:
            best = c.radius
    if best is None:
        return None
    return radius * spectral_norm(ts) / best


def _eval_points_max(t_mat, pts, k2):
    """Exact max of gauge_K2(T p) over the finite point list.

    When K2 carries a full Ball(2) component, points whose cheap upper
    bound cannot beat the best certified lower bound are skipped; the
    skip is sound because their true value is below the reported lo.
    Without that component every point is evaluated.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return 0.0, 0.0, None
    # the batched product only ranks candidates; gauge always sees the
    # per-point product so results cannot depend on BLAS batching
    tx = pts @ t_mat.T
    probes = _dual_probes(k2)
    lo0 = np.abs(tx @ probes.T).max(axis=1)
    rho = _ball2_inradius(k2)
    if rho is not None:
        # slack covers the ulp gap between the ranking product and the
        # per-point product the gauge call actually receives
        hi0 = (np.sqrt((tx * tx).sum(axis=1)) / rho) * (1.0 + 1e-9)
        order = np.argsort(-hi0, kind="stable")
    else:
        hi0 = None
        order = np.argsort(-lo0, kind="stable")
    best_lo, best_hi, witness = -math.inf, 0.0, None
    for i in order:
        if hi0 is not None and hi0[i] <= best_lo:
            break
        g_lo, g_hi = _gauge(k2, t_mat @ pts[i], _GAUGE_TOL)
        if g_lo > best_lo or witness is None:
            best_lo, witness = g_lo, pts[i]
        best_hi = max(best_hi, g_hi)
    return max(best_lo, 0.0), best_hi, witness


def _sphere_ascent(t_mat, sup, radius, k2):
    """Lower bound for a Euclidean source component: iterate the
    alignment map u -> normalize(T_S^T y(Tu)) from many starts, then
    certify the best candidates by full gauge."""
    ts = t_mat[:, sup]
    k = sup.size
    probes = _dual_probes(k2)
    # coordinate directions are exactly representable, so when one of
    # them attains the maximum the reported bound has no rounding dust
    finals = [e for e in np.eye(k)]
    starts = []
    sv = np.linalg.svd(ts, compute_uv=True)
    starts.append(sv[2][0])
    rng = substream(_STREAM_SEED, "distance/sphere")
    raw = rng.standard_normal((_RESTARTS - 1, k))
    for row in raw:
        nrm = float(np.sqrt(row @ row))
        if nrm > 0:
            starts.append(row / nrm)
    for u in starts:
        u = np.asarray(u, dtype=float)
        for _ in range(12):
            v = ts @ u
            scores = probes @ v
            idx = int(np.argmax(np.abs(scores)))
            y = probes[idx] * np.sign(scores[idx])
            u_new = ts.T @ y
            nrm = float(np.sqrt(u_new @ u_new))
            if nrm <= 1e-30:
                break
            u_new /= nrm
            if float(np.abs(u_new @ u)) > 1.0 - 1e-14:
                u = u_new
                break
            u = u_new
        finals.append(u)
    finals = np.asarray(finals)
    vals = np.abs((finals @ ts.T) @ probes.T).max(axis=1)
    order = np.argsort(-vals, kind="stable")[: min(4, len(finals))]
    best_lo, witness = -math.inf, None
    for i in order:
        point = np.zeros(t_mat.shape[1])
        point[sup] = radius * finals[i]
        g_lo = _gauge(k2, t_mat @ point, _GAUGE_TOL)[0]
        if g_lo > best_lo:
            best_lo, witness = g_lo, point
    return max(best_lo, 0.0), witness


def op_norm(t_mat, k: HullBody, k2: HullBody) -> OpNormResult:
    """Certified bracket of the operator norm of T from K to K2.

    Polytopal components are enumerated exactly: every extreme point of
    segment families and Ball(1) components, and every sign vertex of a
    box generator (Ball(inf) included) with at most _SIGN_CUTOFF
    coordinates.  A larger box contributes a lower bound from full
    gauges of its highest-scoring probe-guided vertices, and mode is
    then "guided" instead of "exhaustive".

    When K2 is solid, a box generator g first gets one gauge of the
    dominating point d = |T||g|: |T(s*g)| <= d coordinatewise for every
    sign vector s, so gauge(d) bounds the whole box from above.  A map
    with at most one nonzero per row on the support of g has
    |T(s*g)| = d exactly, and that one gauge is the box's value; a box
    whose bound cannot beat the lower bound found so far is skipped, and
    a guided box keeps the bound as its upper bound.  Without a solid
    target a guided box has no upper bound.

    Euclidean components use sphere ascent for the lower bound and the
    target's Ball(2) inradius for the certified upper bound.
    """
    t_mat = np.asarray(t_mat, dtype=float)
    if t_mat.shape != (k2.dim, k.dim):
        raise ValueError(
            f"map shape {t_mat.shape} does not send dim {k.dim} to dim {k2.dim}"
        )
    if not np.all(np.isfinite(t_mat)):
        raise ValueError("map entries must be finite")

    notes: list = []
    mode = "exhaustive"
    lo, hi, witness = 0.0, 0.0, np.zeros(k.dim)
    solid = _solid(k2)

    def fold(c_lo, c_hi, c_wit):
        nonlocal lo, hi, witness
        if c_wit is not None and c_lo > lo:
            lo, witness = c_lo, c_wit
        hi = max(hi, c_hi)

    for ci, comp in enumerate(k.components):
        if isinstance(comp, SignedPoints) and comp.unconditional:
            gens = comp.points
        elif isinstance(comp, SignedPoints) or comp.p == 1.0:
            fold(*_eval_points_max(t_mat, _segment_points(comp, k.dim), k2))
            continue
        elif comp.p == math.inf:
            gens = _inf_box(comp, k.dim)[None, :]
        else:
            sup = _support(comp, k.dim)
            c_lo, c_wit = _sphere_ascent(t_mat, sup, comp.radius, k2)
            c_hi = _ball2_source_hi(t_mat, sup, comp.radius, k2)
            if c_hi is None:
                c_hi = math.inf
                notes.append(
                    "target has no Ball(2) component covering the image; "
                    f"upper bound unavailable for Euclidean component {ci}"
                )
            fold(c_lo, c_hi, c_wit)
            continue

        # unconditional generators (includes the inf-ball vertex box)
        for gi, g_vec in enumerate(gens):
            sup = np.nonzero(g_vec)[0]
            dom_hi = math.inf
            if solid:
                t_abs = np.abs(t_mat[:, sup])
                d_lo, dom_hi = _gauge(k2, t_abs @ np.abs(g_vec[sup]), _GAUGE_TOL)
                if np.all(np.count_nonzero(t_abs, axis=1) <= 1):
                    fold(d_lo, dom_hi, np.abs(g_vec))
                    continue
                if dom_hi <= lo:
                    continue
            if sup.size <= _SIGN_CUTOFF:
                fold(*_eval_points_max(t_mat, _box_vertices(g_vec), k2))
                continue
            probes = _dual_probes(k2)
            pts = np.unique(_guided_points(t_mat, g_vec, probes), axis=0)
            scores = np.abs((pts @ t_mat.T) @ probes.T).max(axis=1)
            top = np.argsort(-scores, kind="stable")[:_GUIDED_GAUGES]
            c_lo, _, c_wit = _eval_points_max(t_mat, pts[top], k2)
            fold(c_lo, dom_hi, c_wit)
            mode = "guided"
            upper = (
                "upper bound from the domination bound"
                if solid
                else "upper bound unavailable for this generator"
            )
            notes.append(
                f"sign search over {sup.size} coordinates probe-guided (component "
                f"{ci}, generator {gi}); {upper}"
            )

    return OpNormResult(lo=lo, hi=hi, witness=witness, mode=mode, notes=notes)


def _inf_box(comp: Ball, n: int) -> np.ndarray:
    """The box generator r * 1_S whose sign vertices span a Ball(inf)."""
    gen = np.zeros(n)
    gen[_support(comp, n)] = comp.radius
    return gen


def _sphere_points(t_mat, probes, comp: Ball) -> np.ndarray:
    """Two candidate points of a Euclidean component for ranking: the top
    right singular direction of T_S and its probe-aligned image."""
    sup = _support(comp, t_mat.shape[1])
    ts = t_mat[:, sup]
    dirs = [np.linalg.svd(ts)[2][0]]
    v = ts.T @ probes[np.argmax(np.abs(probes @ (ts @ dirs[0])))]
    nrm = float(np.sqrt(v @ v))
    if nrm > 0:
        dirs.append(v / nrm)
    pts = np.zeros((len(dirs), t_mat.shape[1]))
    for i, d in enumerate(dirs):
        pts[i, sup] = comp.radius * d
    return pts


def _fast_lo_blocks(body: HullBody) -> list:
    """The candidate point blocks _fast_lo ranks, in order, cached on the
    body: an array for the blocks that do not depend on the map (all sign
    vertices of boxes with at most 10 coordinates, segment and Ball(1)
    extreme points), else a function of (t_mat, probes)."""
    cached = body._cache.get("fast_lo_blocks")
    if cached is not None:
        return cached
    n, blocks = body.dim, []
    for comp in body.components:
        if isinstance(comp, SignedPoints) and comp.unconditional:
            for g_vec in comp.points:
                if np.count_nonzero(g_vec) <= 10:
                    blocks.append(_box_vertices(g_vec))
                else:
                    blocks.append(partial(_guided_points, gen=g_vec))
        elif isinstance(comp, SignedPoints) or comp.p == 1.0:
            blocks.append(_segment_points(comp, n))
        elif comp.p == math.inf:
            blocks.append(partial(_guided_points, gen=_inf_box(comp, n)))
        else:
            blocks.append(partial(_sphere_points, comp=comp))
    body._cache["fast_lo_blocks"] = blocks
    return blocks


def _fast_lo(t_mat, k: HullBody, k2: HullBody) -> float:
    """Cheap lower-bound surrogate for candidate ranking: probe every
    polytopal extreme-point family (all sign vertices of boxes with at
    most 10 coordinates, probe-guided ones beyond that and for Ball(inf))
    plus a couple of sphere directions, full gauge only on the single
    best probe."""
    probes = _dual_probes(k2)
    best_vec, best_score = None, -math.inf
    for block in _fast_lo_blocks(k):
        if isinstance(block, np.ndarray):
            pts = block
        else:
            pts = block(t_mat=t_mat, probes=probes)
        scores = np.abs((pts @ t_mat.T) @ probes.T).max(axis=1)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_score, best_vec = scores[i], pts[i]
    if best_vec is None:
        return 0.0
    return _gauge(k2, t_mat @ best_vec, 1e-3)[0]


@dataclass
class BmOptions:
    """Knobs for the distance upper-bound search."""

    n_diag: int = 8
    signed_perm_limit: int = 4
    refine: bool = True
    certify_top: int = 3

    def __post_init__(self):
        if self.n_diag < 0 or self.certify_top < 1:
            raise ValueError("invalid search options")


def _signed_perm_maps(n: int):
    """All signed permutation matrices (n! * 2^n of them)."""
    out = []
    for perm in permutations(range(n)):
        base = np.zeros((n, n))
        base[np.arange(n), perm] = 1.0
        for signs in _sign_patterns(n):
            out.append(base * signs[:, None])
    return out


def _hadamard(n: int):
    if n & (n - 1) or n < 2:
        return None
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def bm_upper(k: HullBody, k2: HullBody, opts: BmOptions | None = None) -> BmEstimate:
    """Certified upper bound on the Banach-Mazur distance d(K, K2).

    Tries identity, random diagonal maps, signed permutations (all of
    them in low dimension), a Hadamard rotation when the dimension is a
    power of two, and local refinement of the best candidate; ranks by
    a cheap lower-bound surrogate and certifies the top candidates with
    full operator-norm upper bounds.  The product norm is invariant
    under scaling of the map, so no scale search is needed.
    """
    if k.dim != k2.dim:
        raise ValueError("bodies must share a dimension")
    n = k.dim
    opts = opts or BmOptions()
    log: list = []
    cands: list = []

    def invertible(mat):
        sv = np.linalg.svd(mat, compute_uv=False)
        return sv[-1] > 1e-12 * max(1.0, sv[0])

    def score(mat):
        return _fast_lo(mat, k, k2) * _fast_lo(np.linalg.inv(mat), k2, k)

    def add(name, mat):
        mat = np.asarray(mat, dtype=float)
        if invertible(mat):
            cands.append((name, mat))
        else:
            log.append({"name": name, "skipped": "singular"})

    add("identity", np.eye(n))
    rng = substream(_STREAM_SEED, "distance/bm/diag")
    for i in range(opts.n_diag):
        d = np.exp(rng.uniform(-_DIAG_SPREAD, _DIAG_SPREAD, size=n))
        add(f"diag{i}", np.diag(d))
    if n <= opts.signed_perm_limit:
        for i, mat in enumerate(_signed_perm_maps(n)):
            add(f"sperm{i}", mat)
    had = _hadamard(n)
    if had is not None:
        add("hadamard", had)

    scored = []
    for name, mat in cands:
        s = score(mat)
        scored.append((s, name, mat))
        log.append({"name": name, "surrogate": s})
    scored.sort(key=lambda item: item[0])

    if opts.refine and n <= _REFINE_MAX_DIM and scored:
        base_s, _, base = scored[0]
        scale = float(np.abs(base).max()) or 1.0
        for _ in range(_REFINE_SWEEPS):
            improved = False
            for i in range(n):
                for j in range(n):
                    for step in _REFINE_STEPS:
                        for sgn in (1.0, -1.0):
                            trial = base.copy()
                            trial[i, j] += sgn * step * scale
                            if not invertible(trial):
                                continue
                            s = score(trial)
                            if s < base_s * (1.0 - 1e-9):
                                base, base_s = trial, s
                                improved = True
            rng2 = substream(_STREAM_SEED, "distance/bm/refine")
            for _ in range(4):
                direction = rng2.standard_normal((n, n))
                for step in _REFINE_STEPS:
                    trial = base + step * scale * direction
                    if not invertible(trial):
                        continue
                    s = score(trial)
                    if s < base_s * (1.0 - 1e-9):
                        base, base_s = trial, s
                        improved = True
            if not improved:
                break
        scored.append((base_s, "refined", base))
        log.append({"name": "refined", "surrogate": base_s})
        scored.sort(key=lambda item: item[0])

    best, why = None, []
    for s, name, mat in scored[: opts.certify_top]:
        fwd = op_norm(mat, k, k2)
        bwd = op_norm(np.linalg.inv(mat), k2, k)
        upper = fwd.hi * bwd.hi
        log.append({"name": name, "certified": upper})
        if math.isfinite(upper) and (best is None or upper < best[0]):
            best = (upper, mat, fwd.hi, bwd.hi)
        for side, res in (("forward", fwd), ("inverse", bwd)):
            if not res.hi_available:
                why.extend(
                    f"{name} {side}: {note}" for note in res.notes if "unavailable" in note
                )
    if best is None:
        raise CertificationError(
            "no candidate map produced a certified bound; " + "; ".join(why)
        )
    upper, mat, fwd, bwd = best
    return BmEstimate(
        upper=upper, best_map=mat, norm_fwd=fwd, norm_inv=bwd, candidates=log
    )


def event_alpha(c: float, delta: float, norm_v: float) -> float:
    """Containment level c / (sqrt(delta) * log norm_v)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if norm_v <= 1.0:
        raise ValueError("map norm must exceed 1 for a positive level")
    return c / (math.sqrt(delta) * math.log(norm_v))


def separation_scale(c1: float, delta: float) -> float:
    """Predicted distance scale c1 / (delta * log^2(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return c1 / (delta * math.log(1.0 / delta) ** 2)


def _normalize_half_spectrum(v_mat: np.ndarray) -> np.ndarray:
    """Rescale so the n/2-th singular value equals 1 (the event
    checks' normalization); reject maps whose half spectrum vanishes."""
    dec = svd(v_mat)
    n_half = v_mat.shape[0] // 2
    if n_half < 1:
        raise ValueError("need dimension at least 2")
    s_half = dec.s[n_half - 1]
    if s_half <= 0.0:
        raise ValueError("half-spectrum singular value is zero")
    return v_mat / s_half


def cap_projection_norms(v_mat: np.ndarray, subsets, y_vec: np.ndarray, c0: float = 0.5):
    """Diagnostic: norms of the projections of Q y onto the spans
    {P e_j : j in subset}, where Q and P come from the selected
    singular-value block of V."""
    dec = svd(v_mat)
    interval = spectral_interval(dec.s, spectral_norm(v_mat), c0=c0)
    q_mat, p_mat = build_projectors(dec, interval)
    qy = q_mat @ y_vec
    out = []
    for sub in np.atleast_2d(np.asarray(subsets, dtype=np.int64)):
        basis, r_fac = np.linalg.qr(p_mat[:, sub])
        diag = np.abs(np.diag(r_fac))
        keep = diag > 1e-12 * max(float(diag.max(initial=0.0)), 1.0)
        basis = basis[:, keep]
        out.append(float(np.sqrt(((basis.T @ qy) ** 2).sum())))
    return out


def check_one_vector(
    v_mat,
    cap: HullBody,
    test_vec,
    alpha: float,
    tol: float = 0.0,
    diagnostics: bool = False,
) -> EventReport:
    """Does the mapped test vector land in alpha times the cap body?

    The map is rescaled so its n/2-th singular value is 1 before the
    check.  Outcome is judged on the certified gauge upper bound, so a
    true outcome is a proof of containment at level alpha*(1+tol).
    """
    v_mat = np.asarray(v_mat, dtype=float)
    if v_mat.shape != (cap.dim, cap.dim):
        raise ValueError("map must be square and match the cap body dimension")
    v_mat = _normalize_half_spectrum(v_mat)
    y_vec = np.asarray(test_vec.y, dtype=float)
    g = gauge(cap, v_mat @ y_vec)
    meta = {"subset": test_vec.subset.tolist()}
    if diagnostics:
        subs = [
            c.support
            for c in cap.components
            if isinstance(c, Ball) and c.p == 2.0 and c.support is not None
        ]
        if subs:
            meta["cap_projection_norms"] = cap_projection_norms(v_mat, subs, y_vec)
    return EventReport(
        kind="one-vector",
        alpha=alpha,
        outcome=bool(g.hi <= alpha * (1.0 + tol)),
        gauge_lo=g.lo,
        gauge_hi=g.hi,
        tol=tol,
        metadata=meta,
    )


def _indicator_supports(body: HullBody):
    for c in body.components:
        if isinstance(c, SignedPoints) and c.unconditional:
            return [np.nonzero(g)[0] for g in c.points]
    return []


def check_one_body(v_mat, k: HullBody, k2: HullBody, alpha: float, tol: float = 0.0) -> EventReport:
    """Does the mapped body K land inside alpha times K2?

    Judged on the certified operator-norm upper bound.  The subset
    family of K2 is checked for full coordinate coverage first and the
    report flags the result, since the containment statement is
    conditioned on coverage.
    """
    v_mat = np.asarray(v_mat, dtype=float)
    if v_mat.shape != (k2.dim, k.dim):
        raise ValueError("map shape incompatible with the bodies")
    v_mat = _normalize_half_spectrum(v_mat)
    covered = np.zeros(k2.dim, dtype=bool)
    for sup in _indicator_supports(k2):
        covered[sup] = True
    res = op_norm(v_mat, k, k2)
    meta = {
        "coverage": bool(covered.all()),
        "op_lo": res.lo,
        "op_hi": res.hi,
        "notes": list(res.notes),
    }
    hi = res.hi if math.isfinite(res.hi) else math.inf
    return EventReport(
        kind="one-body",
        alpha=alpha,
        outcome=bool(hi <= alpha * (1.0 + tol)),
        gauge_lo=res.lo,
        gauge_hi=hi,
        tol=tol,
        metadata=meta,
    )


@dataclass
class SeparationOptions:
    """Budget and reporting knobs for the pairwise distance run."""

    threshold: float = 2.0
    bins: int = 16
    max_pairs: int | None = None
    bm: BmOptions = field(default_factory=BmOptions)

    def __post_init__(self):
        if self.threshold <= 0 or self.bins < 1:
            raise ValueError("invalid separation options")
        if self.max_pairs is not None and self.max_pairs < 0:
            raise ValueError("max_pairs must be nonnegative")


@dataclass
class SeparationReport:
    """Pairwise distance upper bounds for a body family; estimates maps
    each finished pair (i, j), in pair order, to its BmEstimate."""

    matrix: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    threshold: float
    n_below_threshold: int
    missing_pairs: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)


def _pair_upper(job):
    body_i, body_j, opts = job
    return bm_upper(body_i, body_j, opts)


def run_separation(bodies, opts: SeparationOptions | None = None, map_fn=map) -> SeparationReport:
    """Upper-bound all pairwise distances of the bodies (or the first
    max_pairs pairs in row order; the rest are marked missing).

    map_fn(fn, jobs) runs the pair jobs and yields their results in job
    order; jobs and results pickle, so a process pool's map will do.
    """
    bodies = list(bodies)
    opts = opts or SeparationOptions()
    m_bodies = len(bodies)
    pairs = [(i, j) for i in range(m_bodies) for j in range(i + 1, m_bodies)]
    budget = len(pairs) if opts.max_pairs is None else min(opts.max_pairs, len(pairs))
    jobs = [(bodies[i], bodies[j], opts.bm) for i, j in pairs[:budget]]
    estimates = dict(zip(pairs[:budget], map_fn(_pair_upper, jobs)))
    matrix = np.full((m_bodies, m_bodies), math.nan)
    np.fill_diagonal(matrix, 1.0)
    for (i, j), est in estimates.items():
        matrix[i, j] = matrix[j, i] = est.upper
    vals = np.array([est.upper for est in estimates.values()], dtype=float)
    if vals.size:
        lo, hi = float(vals.min()), float(vals.max())
        if hi - lo <= max(abs(lo), abs(hi), 1.0) * 1e-9:
            # all observed distances coincide up to rounding; pad the
            # range so the requested bin count stays representable
            counts, edges = np.histogram(vals, bins=opts.bins, range=(lo - 0.5, hi + 0.5))
        else:
            counts, edges = np.histogram(vals, bins=opts.bins)
    else:
        counts, edges = np.zeros(opts.bins, dtype=np.int64), np.linspace(1.0, 2.0, opts.bins + 1)
    return SeparationReport(
        matrix=matrix,
        hist_counts=counts,
        hist_edges=edges,
        threshold=opts.threshold,
        n_below_threshold=int(np.count_nonzero(vals < opts.threshold)),
        missing_pairs=pairs[budget:],
        estimates=estimates,
    )
