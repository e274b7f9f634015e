"""Operator norms between hull bodies, Banach-Mazur upper bounds, and
the pairwise separation run over a body family.

Operator norms report a certified bracket: the lower bound is the gauge
of a mapped extreme point that was actually found, the upper bound is a
finite maximum of per-component certificates.  Euclidean components
certify their upper bound through the target's inradius (see
_image_inradius), which is positive for every valid body.  Boxes mapped
into a solid target are bounded by domination: the gauge of |T||g|
bounds every sign vertex of the box spanned by g; a box too large to
enumerate on any other target is bounded through the inradius too.

Distance search only ever reports upper bounds: it minimizes the
product of the two certified operator norms over a finite candidate
set of maps, always including the identity.  Certifying lower bounds
on the distance would mean global minimization over all invertible
maps, which is out of reach, so no such number is produced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .bodies import Ball, HullBody, SignedPoints, _batched_caps, inradius_lower, support_many
from .gauge import gauge
from .linalg import spectral_norm
# not called here (op_norm needs no decomposition); bench/tracer.py wraps it on this module
from .linalg import svd  # noqa: F401
from .randmodel import substream

__all__ = [
    "OpNormResult",
    "BmEstimate",
    "SeparationReport",
    "op_norm",
    "bm_upper",
    "run_separation",
    "separation_scale",
]

_STREAM_SEED = 0xB0D1E5
_SIGN_CUTOFF = 16
_GUIDED_GAUGES = 4
_BALL2_GAUGES = 2
_GAUGE_TOL = 1e-6
_DIAG_SPREAD = 0.75
_PERM_MAX_DIM = 4
# a barred op_norm stops at lo >= bar * (1 - _BAR_MARGIN); see bm_upper
_BAR_MARGIN = 1e-9


@dataclass
class OpNormResult:
    """Certified bracket of sup_{x in K} gauge_K2(Tx).

    witness is an input point inside K attaining lo; notes name every
    box searched by probe-guided signs and the bound behind its hi.
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


def _gauge(k2: HullBody, x: np.ndarray, tol: float):
    """(lo, hi) of gauge_K2(x), memoized on K2 by tol and the bytes of x
    up to sign (first nonzero entry positive, zeros as +0.0): gauge is a
    pure function of (body, point, tol), and a hull body is symmetric, so
    a certified bracket of x is one of -x."""
    memo = k2._cache.setdefault("gauge_memo", {})
    nz = np.flatnonzero(x)
    sign = -1.0 if nz.size and x[nz[0]] < 0.0 else 1.0
    key = ((sign * x + 0.0).tobytes(), tol)
    hit = memo.get(key)
    if hit is None:
        g = gauge(k2, x, tol=tol)
        hit = memo[key] = (g.lo, g.hi)
    return hit


class _BarReached(Exception):
    """An op_norm under a bar stopped: its running lo reached the bar."""

    def __init__(self, lo: float):
        super().__init__(lo)
        self.lo = lo


def _check_bar(lo: float, bar: float) -> None:
    # the margin stops an exact tie, and it is wide enough that the rounding
    # shrink of bm_upper's gauge-free bound cannot cancel it
    if lo >= bar * (1.0 - _BAR_MARGIN):
        raise _BarReached(lo)


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
    probes; cached on the body.  The last is 1/h(1), which makes
    bm_upper's gauge-free bound on the Hadamard map's inverse exact."""
    cached = body._cache.get("dual_probes")
    if cached is not None:
        return cached
    n = body.dim
    dirs = [np.eye(n)]
    rng = substream(_STREAM_SEED, "distance/probes")
    signs = rng.integers(0, 2, size=(8, n)).astype(float) * 2.0 - 1.0
    dirs.append(signs)
    dirs.append(rng.standard_normal((8, n)))
    dirs.append(np.ones((1, n)))
    cand = np.concatenate(dirs, axis=0)
    hs = support_many(body, cand)
    keep = hs > 0.0
    probes = cand[keep] / hs[keep, None]
    body._cache["dual_probes"] = probes
    return probes


def _image_inradius(k2: HullBody, image: np.ndarray) -> float:
    """Radius rho with gauge_K2(x) <= |x|_2 / rho for every x in the
    column span of image: inradius_lower(K2), or the radius of a flat
    Ball(2) piece of K2 whose span holds the image, whichever is larger.
    A piece qualifies only when the image rows off its support vanish
    exactly."""
    rho = inradius_lower(k2)
    caps = _batched_caps(k2)
    if caps is not None:
        mask, radii = caps
        live = np.any(image != 0.0, axis=1)
        holds = np.all(mask[:, live] > 0.0, axis=1)
        rho = max(rho, float(radii[holds].max(initial=0.0)))
    return rho


def _eval_points_max(t_mat, pts, k2, bar):
    """Exact max of gauge_K2(T p) over the finite point list.

    Points run in decreasing order of the cheap upper bound
    |T p|_2 / rho (see _image_inradius), and the run stops at the first
    point whose bound cannot beat the best certified lower bound; the
    skip is sound because the skipped values are below the reported lo.
    Raises _BarReached once the running lo reaches bar (see _check_bar).
    """
    pts = np.asarray(pts, dtype=float)
    # the batched product only ranks candidates; gauge always sees the
    # per-point product so results cannot depend on BLAS batching
    tx = pts @ t_mat.T
    # slack covers the ulp gap between the ranking product and the
    # per-point product the gauge call actually receives
    hi0 = (np.sqrt((tx * tx).sum(axis=1)) / _image_inradius(k2, tx.T)) * (1.0 + 1e-9)
    best_lo, best_hi, witness = -math.inf, 0.0, None
    for i in np.argsort(-hi0, kind="stable"):
        if hi0[i] <= best_lo:
            break
        g_lo, g_hi = _gauge(k2, t_mat @ pts[i], _GAUGE_TOL)
        if g_lo > best_lo or witness is None:
            best_lo, witness = g_lo, pts[i]
            _check_bar(best_lo, bar)
        best_hi = max(best_hi, g_hi)
    return max(best_lo, 0.0), best_hi, witness


def _ball2_points(t_mat, sup, radius, k2):
    """Points r * u of the Euclidean piece r * B_2^S, embedded on S: for
    every dual probe y of K2 with T_S^T y != 0 the maximizer
    u_y = T_S^T y / |T_S^T y| of <y, T_S u> over the unit sphere, then
    the exact coordinate directions.  The probes run backwards, so a
    tie in probe score goes to a Gaussian or sign probe's point, which
    can gauge above its score; under a diagonal map into a solid target
    a coordinate point gauges at exactly its score."""
    dirs = _dual_probes(k2)[::-1] @ t_mat[:, sup]
    nrm = np.sqrt((dirs * dirs).sum(axis=1))
    dirs = dirs[nrm > 0.0] / nrm[nrm > 0.0, None]
    pts = np.zeros((dirs.shape[0] + sup.size, t_mat.shape[1]))
    pts[:, sup] = radius * np.concatenate([dirs, np.eye(sup.size)])
    return pts


def _probe_ranked_lo(t_mat, pts, k2, count, bar, floor=-math.inf):
    """(lo, witness) from full gauges of the count points of highest
    probe score max_y |<y, T p>|, a lower bound on their gauge (ties to
    the earlier point).  When no score beats floor, no point is sure to
    raise it, and only the top one is gauged."""
    scores = np.abs((pts @ t_mat.T) @ _dual_probes(k2).T).max(axis=1)
    top = np.argsort(-scores, kind="stable")[: count if scores.max() > floor else 1]
    c_lo, _, c_wit = _eval_points_max(t_mat, pts[top], k2, bar)
    return c_lo, c_wit


def op_norm(t_mat, k: HullBody, k2: HullBody, *, bar: float = math.inf) -> OpNormResult:
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
    a guided box keeps the bound as its upper bound.  On a target that is
    not solid, a guided box takes |g|_2 |T_S|_2 / rho as its upper bound,
    with rho from _image_inradius.

    A Euclidean component r * B_2^S takes its certified upper bound
    r |T_S|_2 / rho the same way and, unless that bound cannot beat the
    lower bound found so far, its lower bound from closed-form points:
    for a dual probe y of K2, u_y = T_S^T y / |T_S^T y| maximizes
    r <y, T_S u> over the unit sphere of S.  The coordinate directions and
    every r * u_y are ranked by probe score and the top _BALL2_GAUGES get
    full gauges (the top one only when no score beats the lower bound).

    The unconditional point families of K run last: the few extreme
    points of the other components raise lo early, so more boxes are
    skipped and a barred call stops sooner.  Notes keep K's component
    index.  Under a finite bar the call stops with _BarReached once its
    running lo reaches bar * (1 - _BAR_MARGIN).
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
            _check_bar(lo, bar)
        hi = max(hi, c_hi)

    boxes_last = sorted(
        enumerate(k.components),
        key=lambda ic: isinstance(ic[1], SignedPoints) and ic[1].unconditional,
    )
    for ci, comp in boxes_last:
        if isinstance(comp, SignedPoints) and comp.unconditional:
            gens = comp.points
        elif isinstance(comp, SignedPoints) or comp.p == 1.0:
            fold(*_eval_points_max(t_mat, _segment_points(comp, k.dim), k2, bar))
            continue
        elif comp.p == math.inf:
            gens = _inf_box(comp, k.dim)[None, :]
        else:
            sup = _support(comp, k.dim)
            ts = t_mat[:, sup]
            c_hi = comp.radius * spectral_norm(ts) / _image_inradius(k2, ts)
            c_lo, c_wit = 0.0, None
            if c_hi > lo:
                pts = _ball2_points(t_mat, sup, comp.radius, k2)
                c_lo, c_wit = _probe_ranked_lo(t_mat, pts, k2, _BALL2_GAUGES, bar, lo)
            fold(c_lo, c_hi, c_wit)
            continue

        # unconditional generators (includes the inf-ball vertex box)
        for gi, g_vec in enumerate(gens):
            sup = np.nonzero(g_vec)[0]
            if solid:
                t_abs = np.abs(t_mat[:, sup])
                d_lo, box_hi = _gauge(k2, t_abs @ np.abs(g_vec[sup]), _GAUGE_TOL)
                if np.all(np.count_nonzero(t_abs, axis=1) <= 1):
                    fold(d_lo, box_hi, np.abs(g_vec))
                    continue
                if box_hi <= lo:
                    continue
            if sup.size <= _SIGN_CUTOFF:
                fold(*_eval_points_max(t_mat, _box_vertices(g_vec), k2, bar))
                continue
            if not solid:
                # every sign vertex has the Euclidean norm |g|_2
                ts = t_mat[:, sup]
                box_hi = np.linalg.norm(g_vec) * spectral_norm(ts) / _image_inradius(k2, ts)
            pts = np.unique(_guided_points(t_mat, g_vec, _dual_probes(k2)), axis=0)
            c_lo, c_wit = _probe_ranked_lo(t_mat, pts, k2, _GUIDED_GAUGES, bar)
            fold(c_lo, box_hi, c_wit)
            mode = "guided"
            upper = "the domination bound" if solid else "the target's inradius"
            notes.append(
                f"sign search over {sup.size} coordinates probe-guided (component "
                f"{ci}, generator {gi}); upper bound from {upper}"
            )

    return OpNormResult(lo=lo, hi=hi, witness=witness, mode=mode, notes=notes)


def _inf_box(comp: Ball, n: int) -> np.ndarray:
    """The box generator r * 1_S whose sign vertices span a Ball(inf)."""
    gen = np.zeros(n)
    gen[_support(comp, n)] = comp.radius
    return gen


def _hadamard(n: int):
    if n & (n - 1) or n < 2:
        return None
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def bm_upper(k: HullBody, k2: HullBody, n_diag: int = 8) -> BmEstimate:
    """Certified upper bound on the Banach-Mazur distance d(K, K2).

    Tries, in this order, the identity, n_diag (>= 0) random diagonal
    maps, every permutation matrix when the dimension is at most
    _PERM_MAX_DIM, and a Hadamard rotation when the dimension is a power
    of two.  Every one is invertible, and each is certified in turn with
    full operator-norm upper bounds, forward and inverse; the first map
    of least certified product wins.  The product norm is invariant under
    scaling of the map, so no scale search is needed.  Signed
    permutations are left out: a sign change S is an isometry of a
    sign-invariant body, so when either body is one, S P has the norms
    of P.

    Every op_norm upper bound is finite, so the identity always yields a
    certified product, and every later map is certified under an abort
    bar taken from the best product so far, best.  The forward op_norm
    gets bar = best / L, where L is a gauge-free lower bound on the
    inverse's norm: every dual probe y of K has h_K(y) = 1, so
    |T^-1 : K2 -> K| >= h_K2(T^-T y), and L is the largest such support
    value shrunk by 1 - 1e-12 for rounding.  If the forward side
    finishes, the inverse op_norm gets bar = best / fwd.lo (a zero
    divisor gives an infinite bar).  A side stops at
    lo >= bar * (1 - _BAR_MARGIN), so a stopped map's product is at
    least best * (1 - 1e-9): it could have beaten best by at most that
    factor, and an exact tie stops.  The bound, the norms and the map
    are always those of a full certificate, so upper stays a certified
    upper bound, within the factor 1 - 1e-9 of the best over all
    candidates.  The log has one entry per map in the order above:
    "certified", the product, or for a stopped map "lower", the
    certified lower bound on its product.  A GaugeError that a stopped
    certification would have met no longer stops the search.
    """
    if k.dim != k2.dim:
        raise ValueError("bodies must share a dimension")
    if n_diag < 0:
        raise ValueError(f"n_diag must be nonnegative, got {n_diag}")
    n = k.dim

    cands = [("identity", np.eye(n))]
    rng = substream(_STREAM_SEED, "distance/bm/diag")
    for i in range(n_diag):
        d = np.exp(rng.uniform(-_DIAG_SPREAD, _DIAG_SPREAD, size=n))
        cands.append((f"diag{i}", np.diag(d)))
    if n <= _PERM_MAX_DIM:
        for i, perm in enumerate(permutations(range(n))):
            cands.append((f"perm{i}", np.eye(n)[list(perm)]))
    had = _hadamard(n)
    if had is not None:
        cands.append(("hadamard", had))

    log, best = [], None
    for name, mat in cands:
        inv = np.linalg.inv(mat)
        best_upper, other = math.inf, 0.0
        if best is not None:
            best_upper = best[0]
            # a gauge-free lower bound on |inv : K2 -> K|, shrunk for rounding
            other = float(support_many(k2, _dual_probes(k) @ inv).max()) * (1.0 - 1e-12)
        # module-level op_norm calls with the bar by keyword: bench/tracer.py
        # wraps the name and reads a fourth positional argument as a mode
        try:
            fwd = op_norm(mat, k, k2, bar=best_upper / other if other > 0.0 else math.inf)
            other = fwd.lo
            bwd = op_norm(inv, k2, k, bar=best_upper / other if other > 0.0 else math.inf)
        except _BarReached as stop:
            log.append({"name": name, "lower": float(stop.lo * other)})
            continue
        upper = fwd.hi * bwd.hi
        log.append({"name": name, "certified": upper})
        if best is None or upper < best[0]:
            best = (upper, mat, fwd.hi, bwd.hi)
    upper, mat, fwd, bwd = best
    return BmEstimate(
        upper=upper, best_map=mat, norm_fwd=fwd, norm_inv=bwd, candidates=log
    )


def separation_scale(c1: float, delta: float) -> float:
    """Predicted distance scale c1 / (delta * log^2(1/delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return c1 / (delta * math.log(1.0 / delta) ** 2)


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
    return bm_upper(*job)


def run_separation(bodies, map_fn=map, *, threshold: float = 2.0, bins: int = 16,
                   max_pairs: int | None = None, n_diag: int = 8) -> SeparationReport:
    """Upper-bound all pairwise distances of the bodies (or the first
    max_pairs pairs in row order; the rest are marked missing) with
    bm_upper(K, K2, n_diag).

    The report histograms the bounds over `bins` equal bins and counts
    the pairs whose bound is below threshold, which must be positive.

    map_fn(fn, jobs) runs the pair jobs and yields their results in job
    order.  The results pickle, so a map over forked workers that inherit
    the jobs and pickle back their results will do, as the CLI's pool does.
    """
    if threshold <= 0 or bins < 1:
        raise ValueError("threshold must be positive and bins at least 1")
    if max_pairs is not None and max_pairs < 0:
        raise ValueError("max_pairs must be nonnegative")
    bodies = list(bodies)
    m_bodies = len(bodies)
    pairs = [(i, j) for i in range(m_bodies) for j in range(i + 1, m_bodies)]
    budget = len(pairs) if max_pairs is None else min(max_pairs, len(pairs))
    jobs = [(bodies[i], bodies[j], n_diag) for i, j in pairs[:budget]]
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
            counts, edges = np.histogram(vals, bins=bins, range=(lo - 0.5, hi + 0.5))
        else:
            counts, edges = np.histogram(vals, bins=bins)
    else:
        counts, edges = np.zeros(bins, dtype=np.int64), np.linspace(1.0, 2.0, bins + 1)
    return SeparationReport(
        matrix=matrix,
        hist_counts=counts,
        hist_edges=edges,
        threshold=threshold,
        n_below_threshold=int(np.count_nonzero(vals < threshold)),
        missing_pairs=pairs[budget:],
        estimates=estimates,
    )
