"""Certified two-sided gauge (Minkowski functional) evaluation.

For a hull body K and point x, gauge(K, x) returns lo <= |x|_K <= hi
with hi - lo <= tol * max(hi, 1e-12).  The lower bound comes from a dual
feasible direction y (h_K(y) <= 1, lo = <x, y>), the upper bound from an
explicit decomposition of x into weighted component points, so both
certificates can be rechecked independently of the solver that found
them.

Every body reduces to one covering LP with a row per coordinate: all
components but conditional segments are solid, so they enter as
nonnegative columns whose weighted sum must cover |x| coordinatewise
(see _covering_lp).  Euclidean ball components make the dual body
smooth, so the dual maximum is found by a small nonlinear solve first;
its directions on the active balls are the sphere atoms the LP needs,
and a short column-generation loop remains as a safety net.  Both
bounds are recomputed from closed forms after the solvers finish, so
solver inaccuracy cannot leak into them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, minimize

from .bodies import (
    Ball,
    HullBody,
    SignedPoints,
    circumradius_upper,
    inradius_lower,
    support_function,
    support_many,
)

__all__ = [
    "GaugeResult",
    "GaugeSolverError",
    "GaugeToleranceError",
    "gauge",
    "component_value",
]


class GaugeToleranceError(RuntimeError):
    """Gap failed to close within the iteration budget; carries the best
    certified bounds found."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class GaugeSolverError(RuntimeError):
    """The LP solver returned a non-optimal status; carries that status
    and the best certified bounds found before it."""

    def __init__(self, message: str, status: int, lo: float, hi: float):
        super().__init__(message)
        self.status = status
        self.lo = lo
        self.hi = hi


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
    lies outside the component's span)."""
    if isinstance(comp, Ball):
        if comp.support is not None:
            mask = np.zeros(n, dtype=bool)
            mask[comp.support] = True
            if np.any(z[~mask] != 0.0):
                return math.inf
            sub = z[comp.support]
        else:
            sub = z
        if comp.p == 1.0:
            return float(np.abs(sub).sum()) / comp.radius
        if comp.p == 2.0:
            return float(np.sqrt((sub * sub).sum())) / comp.radius
        return float(np.abs(sub).max()) / comp.radius
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
    best_val, best_idx = math.inf, -1
    for j, comp in enumerate(body.components):
        val = component_value(comp, z, body.dim)
        if val < best_val:
            best_val, best_idx = val, j
    return best_val, best_idx


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


def _covering_lp(body: HullBody):
    """Static part of the gauge LP, cached on the body.

    Every component except a conditional point family is solid: with w
    in K_j, any v with |v| <= |w| coordinatewise lies in K_j too.  Solid
    components therefore enter as nonnegative columns v whose weighted
    sum must cover |u| coordinatewise: |g| per box generator, r 1_S per
    Ball(inf), and one coordinate atom r_i e_i per coordinate, with the
    largest Ball(1)/Ball(2) radius that covers i (a Ball(1) is the hull
    of its coordinate atoms; Ball(2) atoms r d, d >= 0 on the support,
    are added later by column generation).  Conditional generators g
    enter as segments c g.  The LP is

        min sum|c| + sum(lam)  s.t.  |z - G c| <= V lam,  lam >= 0,

    with c split as c+ - c-.  A coordinate no segment touches needs only
    the row (V lam)_i >= |z_i|, so segment-free bodies give the covering
    LP with one row per nonzero coordinate.
    """
    cached = body._cache.get("gauge_lp")
    if cached is not None:
        return cached
    n = body.dim
    segs, seg_owner, cols, owner = [], [], [], []
    atom_r = np.zeros(n)
    atom_owner = np.full(n, -1)
    b2_owner, b2_mask, b2_radius = [], [], []
    for j, comp in enumerate(body.components):
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
        if comp.p == math.inf:
            v = np.zeros(n)
            v[sup] = comp.radius
            cols.append(v)
            owner.append(j)
            continue
        wins = comp.radius > atom_r[sup]
        atom_r[sup[wins]] = comp.radius
        atom_owner[sup[wins]] = j
        if comp.p == 2.0:
            b2_owner.append(j)
            b2_mask.append(np.zeros(n))
            b2_mask[-1][sup] = 1.0
            b2_radius.append(comp.radius)
    n_box = len(cols)
    for i in np.nonzero(atom_owner >= 0)[0]:
        v = np.zeros(n)
        v[i] = atom_r[i]
        cols.append(v)
        owner.append(int(atom_owner[i]))
    g_mat = np.stack(segs, axis=1) if segs else np.zeros((n, 0))
    static = {
        "G": g_mat,
        "seg_owner": seg_owner,
        "touched": np.any(g_mat != 0.0, axis=1),
        "V": np.stack(cols, axis=1) if cols else np.zeros((n, 0)),
        "owner": owner,
        "n_box": n_box,
        "b2_owner": b2_owner,
        "b2_mask": np.array(b2_mask).reshape(len(b2_owner), n),
        "b2_radius": np.array(b2_radius),
    }
    body._cache["gauge_lp"] = static
    return static


def _split(body, static, v_mat, owner, sol, z):
    """Decomposition from an LP solution; returns (hi, pieces).

    u = z - G c is split over the solid columns in proportion to their
    coverage: column j takes u * lam_j v_j / (V lam), which lies in
    lam_j K_j by solidity.  Piece values are recomputed from exact closed
    forms: max|piece| / v over a box column's support, and the ball norm
    of each Ball(1)/Ball(2) component's summed atom pieces.
    """
    n = body.dim
    k = static["G"].shape[1]
    c = sol[:k] - sol[k : 2 * k]
    lam = sol[2 * k :]
    pieces = []
    for g, cw, j in zip(static["G"].T, c, static["seg_owner"]):
        if cw != 0.0:
            pieces.append([j, cw * g, abs(cw)])
    u = z - static["G"] @ c
    cover = v_mat @ lam
    share = np.divide(u, cover, out=np.zeros(n), where=cover > 0.0)
    balls = {}
    for col in np.nonzero(lam > 0.0)[0]:
        v = v_mat[:, col]
        vec = lam[col] * v * share
        if not np.any(vec != 0.0):
            continue
        j = owner[col]
        if col >= static["n_box"]:
            balls[j] = balls.get(j, 0.0) + vec
        else:
            sup = v > 0.0
            pieces.append([j, vec, float((np.abs(vec[sup]) / v[sup]).max())])
    for j in sorted(balls):
        pieces.append([j, balls[j], component_value(body.components[j], balls[j], n)])
    resid = z - sum((p[1] for p in pieces), np.zeros(n))
    rnorm = float(np.sqrt(resid @ resid))
    hi = sum(p[2] for p in pieces)
    if rnorm > 0.0:
        hi += rnorm / inradius_lower(body)
    return hi, pieces


def _dual_nlp(body: HullBody, z: np.ndarray, y0: np.ndarray):
    """Numerically maximize <z, y> over the dual body {h_K(y) <= 1}.

    Sign-symmetric bodies reduce to the positive orthant aligned with z;
    otherwise y splits as p - q with p, q >= 0, which represents the
    same feasible set because every row is monotone in |y|.  The result
    is a search direction only: callers certify it through the exact
    support function, so residual solver infeasibility cannot leak into
    the reported bounds.
    """
    n = body.dim
    lin_rows = []
    quads = []
    segs = []
    ub_abs = np.full(n, np.inf)
    for comp in body.components:
        if isinstance(comp, SignedPoints):
            if comp.unconditional:
                lin_rows.extend(np.abs(g) for g in comp.points)
            else:
                segs.extend(comp.points)
        else:
            sup = np.arange(n) if comp.support is None else comp.support
            if comp.p == 1.0:
                ub_abs[sup] = np.minimum(ub_abs[sup], 1.0 / comp.radius)
            elif comp.p == math.inf:
                # h(y) = r * sum_S |y_i| for the radius-r inf-ball
                row = np.zeros(n)
                row[sup] = comp.radius
                lin_rows.append(row)
            else:
                quads.append((sup, 1.0 / comp.radius**2))

    sym = not segs
    if sym:
        s = np.where(z >= 0.0, 1.0, -1.0)
        c = np.abs(z)
        to_y = lambda u: s * u
        hi_bnd = np.where(np.isfinite(ub_abs), ub_abs, np.inf)
        bounds = [(0.0, b if math.isfinite(b) else None) for b in ub_abs]
        mats = [np.stack(lin_rows)] if lin_rows else []
        w0 = np.clip(np.abs(y0), 0.0, hi_bnd)
    else:
        c = np.concatenate([z, -z])
        to_y = lambda w: w[:n] - w[n:]
        hi_bnd = np.where(np.isfinite(ub_abs), ub_abs, np.inf)
        bounds = [(0.0, b if math.isfinite(b) else None) for b in ub_abs] * 2
        mats = []
        if lin_rows:
            r_abs = np.stack(lin_rows)
            mats.append(np.concatenate([r_abs, r_abs], axis=1))
        if segs:
            g_mat = np.stack(segs)
            g_w = np.concatenate([g_mat, -g_mat], axis=1)
            mats.append(np.concatenate([g_w, -g_w], axis=0))
        w0 = np.concatenate(
            [
                np.clip(np.maximum(y0, 0.0), 0.0, hi_bnd),
                np.clip(np.maximum(-y0, 0.0), 0.0, hi_bnd),
            ]
        )

    cons = []
    if mats:
        rows = np.concatenate(mats, axis=0)
        cons.append(
            {
                "type": "ineq",
                "fun": lambda w, rows=rows: 1.0 - rows @ w,
                "jac": lambda w, rows=rows: -rows,
            }
        )
    for sup, rr in quads:
        if sym:

            def f(u, sup=sup, rr=rr):
                v = u[sup]
                return rr - v @ v

            def j(u, sup=sup):
                g = np.zeros(u.size)
                g[sup] = -2.0 * u[sup]
                return g

        else:

            def f(w, sup=sup, rr=rr):
                v = w[:n][sup] - w[n:][sup]
                return rr - v @ v

            def j(w, sup=sup):
                g = np.zeros(w.size)
                v = w[:n][sup] - w[n:][sup]
                g[sup] = -2.0 * v
                g[n + sup] = 2.0 * v
                return g

        cons.append({"type": "ineq", "fun": f, "jac": j})

    res = minimize(
        lambda w: -float(c @ w),
        w0,
        jac=lambda w: -c,
        bounds=bounds,
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-14},
    )
    if not np.all(np.isfinite(res.x)):
        return None
    return to_y(res.x)


def gauge(body: HullBody, x, tol: float = 1e-6, max_rounds: int = 60) -> GaugeResult:
    """Certified gauge bracket of x with respect to body.

    Raises GaugeToleranceError (carrying the best lo/hi) if the relative
    gap cannot be closed within max_rounds column-generation rounds, and
    GaugeSolverError (carrying the solver status and the best lo/hi) if
    the LP solver stops without an optimum.
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
    # vertices then come out exact; only the LP works on the unit vector z
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
        return hi_best - lo_best <= tol * max(hi_best, 1e-12)

    if math.isfinite(hi_best) and gap_ok():
        return finish(0)

    static = _covering_lp(body)
    b2_owner = static["b2_owner"]
    b2_index = {j: b for b, j in enumerate(b2_owner)}
    atoms, atom_owner, seen = [], [], set()

    def ball2_norms(y):
        return static["b2_radius"] * np.sqrt(static["b2_mask"] @ (y * y))

    def push_atom(b, y_src):
        # the atom r |y_S| / ||y_S|| of the b-th Ball(2): the column whose
        # dual constraint r <|y|, d> <= 1 is most violated by y
        d = np.abs(y_src) * static["b2_mask"][b]
        nrm = float(np.sqrt(d @ d))
        if nrm <= 0.0:
            return False
        d /= nrm
        key = (b, tuple(np.round(d, 12)))
        if key in seen:
            return False
        seen.add(key)
        atoms.append(static["b2_radius"][b] * d)
        atom_owner.append(b2_owner[b])
        return True

    if b2_owner:
        # seed atoms only for the balls active at the dual optimum: seeding
        # every ball of a cap body bloats the LP and can stall the solver
        active = []
        y0 = y_best if np.any(y_best != 0.0) else z
        y_nlp = _dual_nlp(body, z, y0)
        if y_nlp is not None and np.all(np.isfinite(y_nlp)):
            h = support_function(body, y_nlp)
            if h > 0.0:
                cand = float(x @ y_nlp) / h
                if cand > lo_best:
                    lo_best, y_best = cand, y_nlp / h
                active = np.nonzero(ball2_norms(y_nlp / h) >= 1.0 - 1e-3)[0]
        if len(active):
            for b in active:
                push_atom(b, y_nlp)
        else:
            for b in range(len(b2_owner)):
                push_atom(b, z)

    n = body.dim
    g_mat, touched = static["G"], static["touched"]
    rows_a, rows_b = touched | (z > 0.0), touched | (z < 0.0)
    n_a = int(rows_a.sum())
    b_ub = np.concatenate([-z[rows_a], z[rows_b]])
    for rounds in range(1, max_rounds + 1):
        v_mat = np.hstack([static["V"], np.stack(atoms, axis=1)]) if atoms else static["V"]
        a_ub = np.vstack(
            [
                np.hstack([-g_mat[rows_a], g_mat[rows_a], -v_mat[rows_a]]),
                np.hstack([g_mat[rows_b], -g_mat[rows_b], -v_mat[rows_b]]),
            ]
        )
        res = linprog(
            np.ones(a_ub.shape[1]),
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=(0, None),
            method="highs",
        )
        if res.status != 0:
            raise GaugeSolverError(
                f"gauge LP failed (status {res.status}): {res.message}",
                res.status,
                lo_best,
                hi_best,
            )

        hi_lp, pieces_lp = _split(
            body, static, v_mat, static["owner"] + atom_owner, res.x, z
        )
        if hi_lp * scale < hi_best:
            hi_best = hi_lp * scale
            pieces_best = [[j, vec * scale, val * scale] for j, vec, val in pieces_lp]

        # y = dual of z in  -Gc - V lam <= -z  and  Gc - V lam <= z
        marg = np.asarray(res.ineqlin.marginals, dtype=float)
        y_raw = np.zeros(n)
        y_raw[rows_a] -= marg[:n_a]
        y_raw[rows_b] += marg[n_a:]
        h = support_function(body, y_raw)
        if h > 0.0:
            cand = float(x @ y_raw) / h
            if cand > lo_best:
                lo_best, y_best = cand, y_raw / h

        if gap_ok():
            break

        added = False
        for b in np.nonzero(ball2_norms(y_raw) > 1.0 + 1e-12)[0]:
            added |= push_atom(b, y_raw)
        # the mixture direction of the Euclidean piece in the current
        # decomposition is the exact column the restricted LP is missing
        for j, vec, val in pieces_lp:
            if j in b2_index and val > 1e-15:
                added |= push_atom(b2_index[j], vec)
        if not added:
            break
    else:
        rounds = max_rounds

    if not gap_ok():
        raise GaugeToleranceError(
            f"tolerance not reached: lo={lo_best:.12g}, "
            f"hi={hi_best:.12g}, tol={tol}",
            lo_best,
            hi_best,
        )
    return finish(rounds)
