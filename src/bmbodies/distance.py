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
set of maps, always including the identity.  Certifying lower bounds
on the distance would mean global minimization over all invertible
maps, which is out of reach, so no such number is produced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """(lo, hi, dual witness) of gauge_K2(x), memoized on K2 by tol and
    the bytes of x up to sign (first nonzero entry positive, zeros as
    +0.0): gauge is a pure function of (body, point, tol), and a hull body
    is symmetric, so a certified bracket of x is one of -x, and the
    witness y of either gives |<y, x>| = lo."""
    memo = k2._cache.setdefault("gauge_memo", {})
    nz = np.flatnonzero(x)
    sign = -1.0 if nz.size and x[nz[0]] < 0.0 else 1.0
    key = ((sign * x + 0.0).tobytes(), tol)
    hit = memo.get(key)
    if hit is None:
        g = gauge(k2, x, tol=tol)
        hit = memo[key] = (g.lo, g.hi, g.dual_witness)
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


def _eval_points_max(t_mat, pts, k2, bar):
    """Exact max of gauge_K2(T p) over the finite point list.

    When K2 carries a full Ball(2) component, points whose cheap upper
    bound cannot beat the best certified lower bound are skipped; the
    skip is sound because their true value is below the reported lo.
    Without that component every point is evaluated.  Raises
    _BarReached once the running lo reaches bar (see _check_bar).
    """
    pts = np.asarray(pts, dtype=float)
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
        g_lo, g_hi, _ = _gauge(k2, t_mat @ pts[i], _GAUGE_TOL)
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
    a guided box keeps the bound as its upper bound.  Without a solid
    target a guided box has no upper bound.

    A Euclidean component r * B_2^S takes its certified upper bound from
    the target's Ball(2) inradius and, unless that bound cannot beat the
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
            c_hi = _ball2_source_hi(t_mat, sup, comp.radius, k2)
            if c_hi is None:
                c_hi = math.inf
                notes.append(
                    "target has no Ball(2) component covering the image; "
                    f"upper bound unavailable for Euclidean component {ci}"
                )
            c_lo, c_wit = 0.0, None
            if c_hi > lo:
                pts = _ball2_points(t_mat, sup, comp.radius, k2)
                c_lo, c_wit = _probe_ranked_lo(t_mat, pts, k2, _BALL2_GAUGES, bar, lo)
            fold(c_lo, c_hi, c_wit)
            continue

        # unconditional generators (includes the inf-ball vertex box)
        for gi, g_vec in enumerate(gens):
            sup = np.nonzero(g_vec)[0]
            dom_hi = math.inf
            if solid:
                t_abs = np.abs(t_mat[:, sup])
                d_lo, dom_hi, _ = _gauge(k2, t_abs @ np.abs(g_vec[sup]), _GAUGE_TOL)
                if np.all(np.count_nonzero(t_abs, axis=1) <= 1):
                    fold(d_lo, dom_hi, np.abs(g_vec))
                    continue
                if dom_hi <= lo:
                    continue
            if sup.size <= _SIGN_CUTOFF:
                fold(*_eval_points_max(t_mat, _box_vertices(g_vec), k2, bar))
                continue
            pts = np.unique(_guided_points(t_mat, g_vec, _dual_probes(k2)), axis=0)
            c_lo, c_wit = _probe_ranked_lo(t_mat, pts, k2, _GUIDED_GAUGES, bar)
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


@dataclass
class BmOptions:
    """Knobs for the distance upper-bound search."""

    n_diag: int = 8

    def __post_init__(self):
        if self.n_diag < 0:
            raise ValueError("invalid search options")


def _hadamard(n: int):
    if n & (n - 1) or n < 2:
        return None
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def bm_upper(k: HullBody, k2: HullBody, opts: BmOptions | None = None) -> BmEstimate:
    """Certified upper bound on the Banach-Mazur distance d(K, K2).

    Tries, in this order, the identity, n_diag random diagonal maps, every
    permutation matrix when the dimension is at most _PERM_MAX_DIM, and a
    Hadamard rotation when the dimension is a power of two.  Every one is
    invertible, and each is certified in turn with full operator-norm
    upper bounds, forward and inverse; the first map of least certified
    product wins.  The product norm is invariant under scaling of the
    map, so no scale search is needed.  Signed permutations are left out:
    a sign change S is an isometry of a sign-invariant body, so when
    either body is one, S P has the norms of P.

    Once a map has a finite certified product, every later map is
    certified under an abort bar taken from the best product so far,
    best.  The forward op_norm gets bar = best / L, where L is a
    gauge-free lower bound on the inverse's norm: every dual probe y of
    K has h_K(y) = 1, so |T^-1 : K2 -> K| >= h_K2(T^-T y), and L is the
    largest such support value shrunk by 1 - 1e-12 for rounding.  If the
    forward side finishes, the inverse op_norm gets bar = best / fwd.lo
    (a zero divisor gives an infinite bar).  A side stops at
    lo >= bar * (1 - _BAR_MARGIN), so a stopped map's product is at
    least best * (1 - 1e-9): it could have beaten best by at most that
    factor, and an exact tie stops.  The bound, the norms and the map
    are always those of a full certificate, so upper stays a certified
    upper bound, within the factor 1 - 1e-9 of the best over all
    candidates.  The log has one entry per map in the order above:
    "certified", the product, or for a stopped map "lower", the
    certified lower bound on its product.  A gauge error that a stopped
    certification would have met no longer stops the search.
    """
    if k.dim != k2.dim:
        raise ValueError("bodies must share a dimension")
    n = k.dim
    opts = opts or BmOptions()

    cands = [("identity", np.eye(n))]
    rng = substream(_STREAM_SEED, "distance/bm/diag")
    for i in range(opts.n_diag):
        d = np.exp(rng.uniform(-_DIAG_SPREAD, _DIAG_SPREAD, size=n))
        cands.append((f"diag{i}", np.diag(d)))
    if n <= _PERM_MAX_DIM:
        for i, perm in enumerate(permutations(range(n))):
            cands.append((f"perm{i}", np.eye(n)[list(perm)]))
    had = _hadamard(n)
    if had is not None:
        cands.append(("hadamard", had))

    log, best, why = [], None, []
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
    each finished pair (i, j), in pair order, to its BmEstimate, and
    failed_pairs lists (i, j, reason) for each pair whose bound could
    not be certified."""

    matrix: np.ndarray
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    threshold: float
    n_below_threshold: int
    missing_pairs: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)
    failed_pairs: list = field(default_factory=list)


def _pair_upper(job):
    """The pair's BmEstimate, or the message of the CertificationError
    that stopped it."""
    body_i, body_j, opts = job
    try:
        return bm_upper(body_i, body_j, opts)
    except CertificationError as exc:
        return str(exc)


def run_separation(bodies, opts: SeparationOptions | None = None, map_fn=map) -> SeparationReport:
    """Upper-bound all pairwise distances of the bodies (or the first
    max_pairs pairs in row order; the rest are marked missing).  A pair
    that cannot be certified is listed in failed_pairs with its reason,
    and the other pairs go on.

    map_fn(fn, jobs) runs the pair jobs and yields their results in job
    order; jobs and results pickle, so a process pool's map will do.
    """
    bodies = list(bodies)
    opts = opts or SeparationOptions()
    m_bodies = len(bodies)
    pairs = [(i, j) for i in range(m_bodies) for j in range(i + 1, m_bodies)]
    budget = len(pairs) if opts.max_pairs is None else min(opts.max_pairs, len(pairs))
    jobs = [(bodies[i], bodies[j], opts.bm) for i, j in pairs[:budget]]
    results = zip(pairs[:budget], map_fn(_pair_upper, jobs))
    estimates, failed = {}, []
    for (i, j), got in results:
        if isinstance(got, str):
            failed.append((i, j, got))
        else:
            estimates[i, j] = got
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
        failed_pairs=failed,
    )
