"""Certified two-sided gauge (Minkowski functional) evaluation.

For a hull body K and point x, gauge(K, x) returns lo <= |x|_K <= hi
with hi - lo <= tol * max(hi, 1e-12).  The lower bound comes from a dual
feasible direction y (h_K(y) <= 1, lo = <x, y>), the upper bound from an
explicit decomposition of x into weighted component points, so both
certificates can be rechecked independently of the solver that found
them.

Every body reduces to one cone program, the gauge dual max <x, y> over
h_K(y) <= 1: a linear row per box generator (a Ball(inf) is stored as
its box), Ball(1) coordinate and segment, and one second-order cone per
full Ball(2) and per cap row (see _cone_program).  A numpy interior-point
method (cone.py) solves it; once its iterates are near the optimum,
Newton's method on the active constraints polishes them to the exact
optimum.  lo is then recomputed from y through the support function, and
hi from the conic dual (box weights, segment multiples and cone vectors)
through closed forms, so solver inaccuracy can only widen a bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    Ball,
    Caps,
    HullBody,
    SignedPoints,
    circumradius_upper,
    inradius_lower,
    support_function,
    support_many,
)
from .cone import ConeError, SocProgram, iterates, polish

# polishing starts once the interior-point gap and residuals are below
# this fraction of the objective; earlier active sets are mostly wrong
_POLISH_REL = 0.1
# interior-point iterations a gauge may take before it gives up
_MAX_ROUNDS = 60
__all__ = [
    "GaugeResult",
    "GaugeError",
    "gauge",
    "component_value",
]


class GaugeError(RuntimeError):
    """The gap did not close; carries its status and the best certified
    bounds found.  status is "tolerance" when the iteration budget ran
    out, and otherwise the interior-point solver's short name of its
    breakdown."""

    def __init__(self, message: str, status: str, lo: float, hi: float):
        super().__init__(message)
        self.status = status
        self.lo = lo
        self.hi = hi

    def __reduce__(self):
        # the default pickles only the message, and a pool worker's
        # failure must come back whole to the parent
        return type(self), (self.args[0], self.status, self.lo, self.hi)


@dataclass
class GaugeResult:
    """Certified bracket of the gauge value.

    dual_witness y satisfies h_K(y) <= 1 and <x, y> = lo.  pieces is a
    list of (component_index, vector, value) with sum(vectors) = x up to
    a rigorously bounded residual and sum(values) = hi.
    """

    lo: float
    hi: float
    dual_witness: np.ndarray
    pieces: list = field(default_factory=list)
    rounds: int = 0


def component_value(comp, z: np.ndarray, n: int) -> float:
    """Exact gauge of z with respect to a single component (inf when z
    lies outside the component's span).  For Caps it is the least
    |z_S|/r over the rows whose support S holds all of z's nonzeros."""
    if isinstance(comp, Caps):
        holds = ~np.any((comp.mask == 0.0) & (z != 0.0), axis=1)
        best = math.inf
        for k in np.flatnonzero(holds):
            sub = z[comp.mask[k] > 0.0]
            best = min(best, float(np.sqrt((sub * sub).sum())) / float(comp.radii[k]))
        return best
    if isinstance(comp, Ball):
        sub = z if comp.support is None else z[comp.support]
        if np.count_nonzero(sub) < np.count_nonzero(z):
            return math.inf
        norm = np.abs(sub).sum() if comp.p == 1.0 else np.sqrt((sub * sub).sum())
        return float(norm) / comp.radius
    if comp.unconditional:
        ag, az = np.abs(comp.points), np.abs(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(ag > 0.0, az / ag, np.where(az > 0.0, math.inf, 0.0))
        return float(ratio.max(axis=1).min())
    best = math.inf
    # a segment's multiple c g counts as on its line up to the rounding
    # of the product and of recomputing c
    slack = (n + 4) * np.finfo(float).eps * float(np.abs(z).max(initial=0.0))
    for g in comp.points:
        cw = float(z @ g) / float(g @ g)
        if np.abs(z - cw * g).max() <= slack:
            best = min(best, abs(cw))
    return best


def _best_single_component(body: HullBody, z: np.ndarray):
    vals = [component_value(comp, z, body.dim) for comp in body.components]
    j = int(np.argmin(vals))
    return vals[j], j


def _dual_candidates(body: HullBody, z: np.ndarray):
    n = body.dim
    cands = [z]
    sg = np.sign(z)
    if np.any(sg != 0.0):
        cands.append(sg)
    imax = int(np.argmax(np.abs(z)))
    e = np.zeros(n)
    e[imax] = 1.0 if z[imax] >= 0 else -1.0
    cands.append(e)
    ys = np.stack(cands)
    hs = support_many(body, ys)
    lo, best = -math.inf, None
    for y, h in zip(ys, hs):
        if h <= 0.0:
            continue
        val = float(z @ y) / h
        if val > lo:
            lo, best = val, y / h
    return lo, best


def _cone_program(body: HullBody):
    """The gauge dual as one cone program, cached on the body.

    h_K(y) <= 1 splits into one row per family: <|y|, |g|> <= 1 per box
    generator (a Ball(inf) is the box of r 1_S), r_i |y_i| <= 1 per
    coordinate with the largest covering Ball(1) radius r_i, |<y, g>| <= 1
    per conditional generator (segment), and r ||y_S|| <= 1 per full
    Ball(2) and per cap row, in component and row order.
    With u >= |y| the solid rows read V' u <= 1 for nonnegative columns V
    and r ||u_S|| <= 1.  A coordinate no segment touches keeps only u_i,
    with y_i = sign(z_i) u_i, so the variables are x = (y_T, u) over the
    touched coordinates T and the program is

        max <z_T, y_T> + <|z_U|, u_U>  s.t.  V' u <= 1,  |G' y_T| <= 1,
        |y_T| <= u_T,  u_U >= 0,  r_k ||u_{S_k}|| <= 1.

    Its conic dual is the decomposition: weights lam >= 0 on V, segment
    multiples c = c+ - c-, and one vector w_k per cone with
    ||w_k|| <= t_k, covering |z - G c|.
    """
    cached = body._cache.get("gauge_cone")
    if cached is not None:
        return cached
    n = body.dim
    segs, seg_owner, cols, owner = [], [], [], []
    atom_r = np.zeros(n)
    atom_owner = np.full(n, -1)
    b2_owner, b2_sup, b2_radius = [], [], []
    for j, comp in enumerate(body.components):
        if isinstance(comp, Caps):
            b2_owner.extend([j] * comp.radii.size)
            b2_sup.extend(np.flatnonzero(row) for row in comp.mask)
            b2_radius.extend(comp.radii)
            continue
        if isinstance(comp, SignedPoints):
            k = comp.points.shape[0]
            if comp.unconditional:
                cols.extend(np.abs(comp.points))
                owner.extend([j] * k)
            else:
                segs.extend(comp.points)
                seg_owner.extend([j] * k)
            continue
        sup = np.arange(n) if comp.support is None else comp.support
        if comp.p == 1.0:
            wins = comp.radius > atom_r[sup]
            atom_r[sup[wins]] = comp.radius
            atom_owner[sup[wins]] = j
        else:
            b2_owner.append(j)
            b2_sup.append(sup)
            b2_radius.append(comp.radius)
    n_box = len(cols)
    for i in np.nonzero(atom_owner >= 0)[0]:
        v = np.zeros(n)
        v[i] = atom_r[i]
        cols.append(v)
        owner.append(int(atom_owner[i]))
    g_mat = np.stack(segs, axis=1) if segs else np.zeros((n, 0))
    v_mat = np.stack(cols, axis=1) if cols else np.zeros((n, 0))
    touched = np.any(g_mat != 0.0, axis=1)
    t_idx = np.nonzero(touched)[0]
    t = t_idx.size
    eye_t = np.eye(n)[t_idx]
    g_t = g_mat[t_idx].T
    zeros_k = np.zeros((g_t.shape[0], n))
    a = np.vstack(
        [
            np.hstack([np.zeros((v_mat.shape[1], t)), v_mat.T]),
            np.hstack([g_t, zeros_k]),
            np.hstack([-g_t, zeros_k]),
            np.hstack([np.eye(t), -eye_t]),
            np.hstack([-np.eye(t), -eye_t]),
            np.hstack([np.zeros((n - t, t)), -np.eye(n)[~touched]]),
        ]
    )
    f = np.zeros(a.shape[0])
    f[: v_mat.shape[1] + 2 * g_t.shape[0]] = 1.0
    prog = SocProgram(a, f, [t + s for s in b2_sup], b2_radius)
    static = {
        "prog": prog,
        "G": g_mat,
        "seg_owner": seg_owner,
        "touched": touched,
        "V": v_mat,
        "owner": owner,
        "n_box": n_box,
        "b2_owner": b2_owner,
    }
    body._cache["gauge_cone"] = static
    return static


def _split(body, static, c, lam, b2, z):
    """Decomposition from the conic dual; returns (hi, pieces).

    Segments give pieces c_j g_j.  The rest u = z - G c is split over the
    solid columns in proportion to their coverage: column j (V's columns
    with weights lam, then the cone vectors b2) takes u * col_j / cover,
    which lies in lam_j K_j by solidity.  Piece values are recomputed from
    exact closed forms: max|piece| / v over a box column's support, the
    l1 norm of each Ball(1) component's summed pieces over its radius, and
    each cone's piece norm over its radius.
    """
    n = body.dim
    pieces = []
    for g, cw, j in zip(static["G"].T, c, static["seg_owner"]):
        if cw != 0.0:
            pieces.append([j, cw * g, abs(cw)])
    u = z - static["G"] @ c
    v_mat, n_box, owner = static["V"], static["n_box"], static["owner"]
    cols = v_mat * lam
    cover = cols.sum(axis=1) + b2.sum(axis=1)
    share = np.divide(u, cover, out=np.zeros(n), where=cover > 0.0)
    box = cols[:, :n_box] * share[:, None]
    v_box = v_mat[:, :n_box]
    vals = np.divide(np.abs(box), v_box, out=np.zeros_like(box), where=v_box > 0.0)
    vals = vals.max(axis=0, initial=0.0)
    for col in np.nonzero(vals > 0.0)[0]:
        pieces.append([owner[col], box[:, col], float(vals[col])])
    balls = {}
    for col in range(n_box, v_mat.shape[1]):
        balls[owner[col]] = balls.get(owner[col], 0.0) + cols[:, col] * share
    for j in sorted(balls):
        if np.any(balls[j] != 0.0):
            pieces.append([j, balls[j], component_value(body.components[j], balls[j], n)])
    # cone pieces are zero off their supports, so their value is the
    # column norm over the radius
    b2 = b2 * share[:, None]
    vals = np.sqrt((b2 * b2).sum(axis=0)) / static["prog"].r
    for b in np.nonzero(vals > 0.0)[0]:
        pieces.append([static["b2_owner"][b], b2[:, b], float(vals[b])])
    resid = z - sum((p[1] for p in pieces), np.zeros(n))
    rnorm = float(np.sqrt(resid @ resid))
    hi = sum(p[2] for p in pieces)
    if rnorm > 0.0:
        hi += rnorm / inradius_lower(body)
    return hi, pieces


def _certify(body, static, x, z, xs, zs):
    """(lo, y, hi, pieces) of the unit point z = x / |x| from a primal
    iterate xs and a dual iterate zs of the cone program: y = (y_T, with
    sign(z_i) u_i off T) normalized by h_K(y), and hi from _split."""
    prog, touched = static["prog"], static["touched"]
    t = int(touched.sum())
    n_v, n_seg = static["V"].shape[1], static["G"].shape[1]
    y = np.where(touched, 0.0, np.sign(z)) * xs[t:]
    y[touched] = xs[:t]
    h = support_function(body, y)
    lo = float(x @ y) / h if h > 0.0 else -math.inf
    seg = zs[n_v : n_v + n_seg] - zs[n_v + n_seg : n_v + 2 * n_seg]
    b2 = np.abs(prog.cone_vectors(zs)[t:])
    hi, pieces = _split(body, static, seg, np.maximum(zs[:n_v], 0.0), b2, z)
    return lo, (y / h if h > 0.0 else y), hi, pieces


def gauge(body: HullBody, x, tol: float = 1e-6) -> GaugeResult:
    """Certified gauge bracket of x with respect to body.

    rounds counts interior-point iterations.  Raises GaugeError, carrying
    the best lo/hi, if the relative gap cannot be closed: with status
    "tolerance" after _MAX_ROUNDS of them, and with the solver's status if
    the iteration breaks down.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (body.dim,):
        raise ValueError(f"point shape {x.shape} != ({body.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("point entries must be finite")
    scale = float(np.sqrt(x @ x))
    if scale == 0.0:
        return GaugeResult(lo=0.0, hi=0.0, dual_witness=np.zeros(body.dim))
    z = x / scale

    # closed forms run on x itself: they are scale-free ratios, and body
    # vertices then come out exact; only the solver works on the unit z
    hi_best, j_best = _best_single_component(body, x)
    pieces_best = [[j_best, x.copy(), hi_best]] if math.isfinite(hi_best) else []
    lo_best, y_best = _dual_candidates(body, x)
    lo_best = max(lo_best, scale / circumradius_upper(body))
    if y_best is None:
        y_best = np.zeros(body.dim)

    def finish(rounds):
        return GaugeResult(
            lo=min(lo_best, hi_best),
            hi=hi_best,
            dual_witness=y_best,
            pieces=pieces_best,
            rounds=rounds,
        )

    def gap_ok():
        # an infinite hi is no certificate, whatever tol * hi reads
        return math.isfinite(hi_best) and hi_best - lo_best <= tol * max(hi_best, 1e-12)

    if gap_ok():
        return finish(0)

    static = _cone_program(body)
    prog, touched = static["prog"], static["touched"]
    c = np.concatenate([z[touched], np.where(touched, 0.0, np.abs(z))])
    try:
        for rounds, xs, ss, zs, rel in iterates(prog, c, _MAX_ROUNDS):
            if rel > _POLISH_REL:
                continue
            cands = [polish(prog, c, xs, ss, zs)]
            if rel <= tol:
                cands.append((xs, zs))
            for cand in filter(None, cands):
                lo, y, hi, pieces = _certify(body, static, x, z, *cand)
                if lo > lo_best:
                    lo_best, y_best = lo, y
                if hi * scale < hi_best:
                    hi_best = hi * scale
                    pieces_best = [[j, vec * scale, val * scale] for j, vec, val in pieces]
            if gap_ok():
                return finish(rounds)
    except ConeError as exc:
        raise GaugeError(
            f"gauge solver failed (status {exc.status})", exc.status, lo_best, hi_best
        ) from exc
    raise GaugeError(
        f"gauge tolerance not reached (status tolerance): lo={lo_best:.12g}, "
        f"hi={hi_best:.12g}, tol={tol}",
        "tolerance",
        lo_best,
        hi_best,
    )


def __getattr__(name):
    # bench/tracer.py still wraps scipy's linprog and minimize where this
    # module used to bind them; resolve just those two names on demand so
    # that untraced runs never import scipy.  Goes away with the tracer
    # rewrite of ROADMAP item 7.
    if name in ("linprog", "minimize"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
