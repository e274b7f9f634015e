"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own solver paths:
singular values come from characteristic polynomials, gauges from a
membership bisection driven by support-direction separations, 2x2
distance bounds from closed-form norms on a dense map grid,
restricted quadratic forms and norms from gathered submatrices,
step-family norms from mask-built block vectors, a per-level loop or
rational arithmetic, level sums from a loop over every level, zero
widths included, pair sandwiches compared over every step map, and
net text joined from one string per cell index.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from bmbodies.bodies import Ball, SignedPoints


def charpoly_singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values via Faddeev-LeVerrier coefficients of A^T A and
    companion-matrix root finding; no direct SVD anywhere."""
    a = np.asarray(a, dtype=float)
    g = a.T @ a
    k = g.shape[0]
    coeffs = np.empty(k + 1)
    coeffs[0] = 1.0
    mat = np.zeros_like(g)
    for i in range(1, k + 1):
        mat = g @ mat + coeffs[i - 1] * np.eye(k)
        coeffs[i] = -np.trace(g @ mat) / i
    roots = np.roots(coeffs)
    vals = np.clip(roots.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])


def _ball_support_point(c: Ball, y: np.ndarray, n: int):
    ys = y if c.support is None else y[c.support]
    pt_s = np.zeros_like(ys)
    nz = np.linalg.norm(ys)
    if nz > 0:
        p = float(c.p)
        if p == 2.0:
            pt_s = c.radius * ys / nz
        elif p == 1.0:
            j = int(np.argmax(np.abs(ys)))
            pt_s[j] = c.radius * np.sign(ys[j])
        elif math.isinf(p):
            pt_s = c.radius * np.sign(ys)
        else:
            q = p / (p - 1.0)
            w = np.abs(ys) ** (q - 1.0)
            denom = float(np.linalg.norm(ys, ord=q)) ** (q - 1.0)
            pt_s = c.radius * np.sign(ys) * w / denom
    if c.support is None:
        return pt_s
    pt = np.zeros(n)
    pt[c.support] = pt_s
    return pt


def support_point(body, y: np.ndarray):
    """(point, value): a body point attaining the support value at y."""
    y = np.asarray(y, dtype=float)
    n = body.dim
    best_val = -math.inf
    best_pt = np.zeros(n)
    for c in body.components:
        if isinstance(c, Ball):
            pt = _ball_support_point(c, y, n)
            val = float(pt @ y)
            if val > best_val:
                best_val, best_pt = val, pt
        else:
            pts = c.points
            if c.unconditional:
                vals = np.abs(pts) @ np.abs(y)
                i = int(np.argmax(vals))
                pt = np.sign(y) * np.abs(pts[i])
                # zero coordinates of y leave the sign free; keep magnitude
                pt = np.where(y == 0.0, np.abs(pts[i]), pt)
                val = float(pt @ y)
            else:
                raw = pts @ y
                i = int(np.argmax(np.abs(raw)))
                pt = pts[i] * np.sign(raw[i]) if raw[i] != 0 else pts[i]
                val = float(pt @ y)
            if val > best_val:
                best_val, best_pt = val, pt
    return best_pt, best_val


class _ProjectionProposer:
    """Euclidean projection onto the hull via an explicit convex
    combination: one scaled element per box/segment/ball atom plus a
    weight simplex, solved with SLSQP.  Proposes the residual direction
    z - proj(z); every membership decision is still certified by a
    support probe, so this only steers the search."""

    def __init__(self, body):
        n = body.dim
        atoms = []
        for c in body.components:
            if isinstance(c, SignedPoints):
                pts = np.asarray(c.points, dtype=float)
                for g in pts:
                    atoms.append(("box", np.abs(g)) if c.unconditional
                                 else ("seg", g))
            else:
                atoms.append(("ball", c.p, float(c.radius), c.support))
        starts, widths = [], []
        pos = 0
        for a in atoms:
            starts.append(pos)
            if a[0] == "box":
                w = n
            elif a[0] == "seg":
                w = 1
            else:
                w = 2 * n if a[1] == 1.0 else n
            widths.append(w)
            pos += w
        mu0 = pos
        nvar = pos + len(atoms)
        emap = np.zeros((n, nvar))
        bounds = [[None, None]] * pos + [[0.0, 1.0]] * len(atoms)
        bounds = [list(b) for b in bounds]
        g_rows, g_offs = [], []
        quads = []
        for i, a in enumerate(atoms):
            s, mu = starts[i], mu0 + i
            if a[0] == "box":
                for l, hw in enumerate(a[1]):
                    if hw == 0.0:
                        bounds[s + l] = [0.0, 0.0]
                        continue
                    emap[l, s + l] = 1.0
                    for sgn in (1.0, -1.0):
                        row = np.zeros(nvar)
                        row[mu] = hw
                        row[s + l] = sgn
                        g_rows.append(row)
                        g_offs.append(0.0)
            elif a[0] == "seg":
                emap[:, s] = a[1]
                for sgn in (1.0, -1.0):
                    row = np.zeros(nvar)
                    row[mu] = 1.0
                    row[s] = sgn
                    g_rows.append(row)
                    g_offs.append(0.0)
            else:
                _, p, r, sup = a
                on = np.arange(n) if sup is None else np.asarray(sup)
                mask = np.zeros(n, dtype=bool)
                mask[on] = True
                if p == 1.0:
                    row = np.zeros(nvar)
                    row[mu] = r
                    for l in range(n):
                        if mask[l]:
                            emap[l, s + l] = 1.0
                            emap[l, s + n + l] = -1.0
                            bounds[s + l] = [0.0, None]
                            bounds[s + n + l] = [0.0, None]
                            row[s + l] = row[s + n + l] = -1.0
                        else:
                            bounds[s + l] = bounds[s + n + l] = [0.0, 0.0]
                    g_rows.append(row)
                    g_offs.append(0.0)
                else:
                    for l in range(n):
                        if not mask[l]:
                            bounds[s + l] = [0.0, 0.0]
                            continue
                        emap[l, s + l] = 1.0
                        if p == math.inf:
                            for sgn in (1.0, -1.0):
                                row = np.zeros(nvar)
                                row[mu] = r
                                row[s + l] = sgn
                                g_rows.append(row)
                                g_offs.append(0.0)
                    if p == 2.0:
                        quads.append((s, n, mu, r, mask.copy()))
        row = np.zeros(nvar)
        row[mu0:] = -1.0
        g_rows.append(row)
        g_offs.append(1.0)
        self.nvar = nvar
        self.emap = emap
        self.gmat = np.array(g_rows)
        self.goff = np.array(g_offs)
        self.bounds = [tuple(b) for b in bounds]
        self.quads = quads

    def residual(self, z):
        from scipy.optimize import minimize

        e, z = self.emap, np.asarray(z, dtype=float)

        def f(x):
            d = e @ x - z
            return float(d @ d)

        def jac(x):
            return 2.0 * (e.T @ (e @ x - z))

        cons = [{"type": "ineq",
                 "fun": lambda x: self.gmat @ x + self.goff,
                 "jac": lambda x: self.gmat}]
        for s, n, mu, r, mask in self.quads:
            def qf(x, s=s, n=n, mu=mu, r=r, mask=mask):
                w = x[s:s + n][mask]
                return (r * x[mu]) ** 2 - float(w @ w)

            def qj(x, s=s, n=n, mu=mu, r=r, mask=mask):
                g = np.zeros(self.nvar)
                g[s:s + n][mask] = -2.0 * x[s:s + n][mask]
                g[mu] = 2.0 * r * r * x[mu]
                return g

            cons.append({"type": "ineq", "fun": qf, "jac": qj})
        try:
            res = minimize(f, np.zeros(self.nvar), jac=jac, method="SLSQP",
                           bounds=self.bounds, constraints=cons,
                           options={"maxiter": 300, "ftol": 1e-16})
            return z - e @ res.x
        except Exception:
            return None


def _direction_candidates(body, cap: int = 40):
    """Facet-normal guesses and an orthocomplement basis for a hull body.

    Stacks every point generator, solves <p_i, y> = s_i over full-rank
    n-subsets for sign patterns s (first sign fixed by symmetry), and
    returns up to cap normalized solutions plus an orthonormal basis of
    the complement of the generator span (empty when full rank)."""
    n = body.dim
    rows = [np.asarray(c.points, dtype=float)
            for c in body.components if isinstance(c, SignedPoints)]
    if not rows:
        return np.zeros((0, n)), np.zeros((n, 0))
    pts = np.vstack(rows)
    q, r = np.linalg.qr(pts.T, mode="complete")
    diag = np.abs(np.diag(r)) if min(r.shape) else np.zeros(0)
    rank = int(np.sum(diag > 1e-9 * max(1.0, diag.max() if diag.size else 1.0)))
    ortho = q[:, rank:]
    cands = []
    k = pts.shape[0]
    if k >= n:
        for sub in itertools.combinations(range(k), n):
            block = pts[list(sub)]
            if abs(np.linalg.det(block)) < 1e-10:
                continue
            for signs in itertools.product((1.0, -1.0), repeat=n - 1):
                s = np.array((1.0,) + signs)
                y = np.linalg.solve(block, s)
                ny = np.linalg.norm(y)
                if ny > 1e-12:
                    cands.append(y / ny)
                if len(cands) >= cap:
                    break
            if len(cands) >= cap:
                break
    return (np.array(cands) if cands else np.zeros((0, n))), ortho


class OracleGauge:
    """Membership-bisection gauge with a support-separation budget.

    Membership of z is decided by hunting for a direction with positive
    separation margin <z, y> - h(y): a cached candidate sweep (facet
    sign-system solutions, generator-span orthocomplement, point and
    axis directions), then Nelder-Mead polish from the best probes,
    then Polyak level steps.  Bisection on the scale brackets the
    gauge.  queries counts every support evaluation."""

    def __init__(self, body, rng=None, budget: int = 10**4):
        self.body = body
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.budget = budget
        self.queries = 0
        self._cands, self._ortho = _direction_candidates(body)
        self._proj = _ProjectionProposer(body)

    def _probe(self, z, y):
        self.queries += 1
        _, h = support_point(self.body, y)
        return float(z @ y) - h

    def _search_nm(self, z, starts, thr):
        from scipy.optimize import minimize

        best, best_y = -math.inf, starts[0]

        def neg_f(u):
            nu = np.linalg.norm(u)
            if nu < 1e-12:
                return 1e6
            self.queries += 1
            y = u / nu
            _, h = support_point(self.body, y)
            return -(float(z @ y) - h)

        for y0 in starts:
            res = minimize(
                neg_f,
                y0,
                method="Nelder-Mead",
                options={"maxfev": 80, "xatol": 1e-12, "fatol": 1e-15},
            )
            if -res.fun > best:
                best = -res.fun
                best_y = res.x / max(np.linalg.norm(res.x), 1e-30)
            if best > thr:
                break
        return best, best_y

    def _search_polyak(self, z, starts, thr, iters=100):
        # level-projection steps aiming just above the decision
        # threshold; geometric convergence whenever z is separable
        best, best_y = -math.inf, starts[0]
        target = 4.0 * thr
        for y0 in starts:
            y = y0 / np.linalg.norm(y0)
            for _ in range(iters):
                self.queries += 1
                v, h = support_point(self.body, y)
                phi = float(z @ y) - h
                if phi > best:
                    best, best_y = phi, y
                if phi > thr:
                    return best, best_y
                g = z - v
                gn2 = float(g @ g)
                if gn2 < 1e-28:
                    break
                y = y + ((target - phi) / gn2) * g
                ny = np.linalg.norm(y)
                if ny < 1e-14:
                    break
                y /= ny
        return best, best_y

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        n = x.size
        nx = np.linalg.norm(x)
        if nx == 0:
            return 0.0
        axis = np.zeros(n)
        j = int(np.argmax(np.abs(x)))
        axis[j] = math.copysign(1.0, x[j])
        sign_dir = np.where(x == 0.0, 1.0, np.sign(x)) / math.sqrt(n)
        warm = [x / nx]
        probes = [sign_dir, axis]
        if self._ortho.shape[1]:
            res = self._ortho @ (self._ortho.T @ x)
            nr = np.linalg.norm(res)
            if nr > 1e-12 * nx:
                probes.append(res / nr)
        probes.extend(self._cands)

        def member(t):
            z = x / t
            thr = 1e-11 * max(1.0, np.linalg.norm(z))
            # one-query short circuit on the last separating direction
            if self._probe(z, warm[0]) > thr:
                return False
            margins = []
            for y in probes:
                m = self._probe(z, y)
                if m > thr:
                    warm[0] = y
                    return False
                margins.append(m)
            order = np.argsort(margins)[::-1][:3]
            starts = [warm[0]] + [probes[i] for i in order]
            d = self._proj.residual(z)
            if d is not None:
                nd = np.linalg.norm(d)
                if nd > 1e-8 * max(1.0, np.linalg.norm(z)):
                    y = d / nd
                    if self._probe(z, y) > thr:
                        warm[0] = y
                        return False
                    starts.insert(0, y)
            m, y_best = self._search_nm(z, starts, thr)
            if m > thr:
                warm[0] = y_best
                return False
            m2, y2 = self._search_polyak(z, [x / nx, y_best], thr)
            if m2 > thr:
                warm[0] = y2
                return False
            return True

        # invariant: member(t_hi) holds (x/t_hi inside), member(t_lo) fails
        t_hi = 1.0
        for _ in range(60):
            if member(t_hi):
                break
            t_hi *= 2.0
        else:
            raise RuntimeError("no bounded bracket found")
        t_lo = t_hi / 2.0
        for _ in range(80):
            if not member(t_lo):
                break
            t_hi = t_lo
            t_lo /= 2.0
        else:
            return 0.0
        for _ in range(15):
            mid = 0.5 * (t_lo + t_hi)
            if member(mid):
                t_hi = mid
            else:
                t_lo = mid
        return t_hi


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack(
        [np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2
    )


_SIGNS_2 = np.array([[1.0, 1.0], [1.0, -1.0]])


def _op_2x2(t: np.ndarray, p_src, p_dst) -> np.ndarray:
    """Exact operator norms from the p_src ball to the p_dst ball for a
    stack of 2x2 maps; only p in {1, 2, inf} appears."""
    if p_src == 1:
        imgs = np.moveaxis(t, -1, 0)  # two columns
        return np.max([_vec_norm(v, p_dst) for v in imgs], axis=0)
    if p_src == math.inf:
        imgs = np.einsum("...ij,sj->s...i", t, _SIGNS_2)
        return np.max([_vec_norm(imgs[s], p_dst) for s in range(2)], axis=0)
    # p_src == 2
    if p_dst == 2:
        return np.linalg.svd(t, compute_uv=False)[..., 0]
    if p_dst == math.inf:
        return np.sqrt((t * t).sum(axis=-1)).max(axis=-1)
    # sup over the circle of |T u|_1 = max over signs of |T^T s|_2
    imgs = np.einsum("...ji,sj->s...i", t, _SIGNS_2)
    return np.max([np.linalg.norm(imgs[s], axis=-1) for s in range(2)], axis=0)


def _vec_norm(v, p):
    if p == 1:
        return np.abs(v).sum(axis=-1)
    if p == 2:
        return np.sqrt((v * v).sum(axis=-1))
    return np.abs(v).max(axis=-1)


def grid_bm_2x2(p_a, p_b, n_angle: int = 96, n_diag: int = 49) -> float:
    """Dense grid search over invertible 2x2 maps for the smallest
    certified product |T|_{A->B} * |T^{-1}|_{B->A}."""
    thetas = np.linspace(0.0, np.pi, n_angle, endpoint=False)
    ds = np.geomspace(1.0 / 8.0, 8.0, n_diag)
    r1 = _rot(thetas)[:, None, None, :, :]
    r2 = _rot(thetas)[None, :, None, :, :]
    dmats = np.zeros((n_diag, 2, 2))
    dmats[:, 0, 0] = 1.0
    dmats[:, 1, 1] = ds
    dinvs = np.zeros_like(dmats)
    dinvs[:, 0, 0] = 1.0
    dinvs[:, 1, 1] = 1.0 / ds
    d = dmats[None, None, :, :, :]
    t = r1 @ d @ r2
    r1i = np.swapaxes(r1, -1, -2)
    r2i = np.swapaxes(r2, -1, -2)
    tinv = r2i @ dinvs[None, None, :, :, :] @ r1i
    fwd = _op_2x2(t, p_a, p_b)
    bwd = _op_2x2(tinv, p_b, p_a)
    return float((fwd * bwd).min())


def subset_sign_chunks(n: int, m: int, count: int, rng, cells: int):
    """The (subsets, signs) chunks a Monte Carlo run of count trials
    draws from rng: chunks of 4e6 // cells trials, subsets first.  A
    chunk's subsets come from one rng.integers(0, j + 1) call per
    j = n-m .. n-1, then Floyd's rule row by row: take t, or j when t is
    already taken.  Subsets are returned sorted."""
    chunk = max(1, 4_000_000 // cells)
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        steps = range(n - m, n)
        picks = [rng.integers(0, j + 1, size=c).tolist() for j in steps]
        subs = []
        for row in zip(*picks):
            taken = set()
            for j, t in zip(steps, row):
                taken.add(j if t in taken else t)
            subs.append(sorted(taken))
        eps = rng.integers(0, 2, size=(c, m)).astype(float) * 2.0 - 1.0
        yield np.array(subs, dtype=np.int64), eps


def whole_block_draw(n: int, m: int, count: int, rng, cells: int, stat) -> np.ndarray:
    """concentration._draw as it was before row slicing: each chunk draws
    a (c, n) Boolean mask by Floyd's rule on 2-D indices, then its signs,
    and stat is applied once to the whole dense (c, n) array of signed
    indicators, filled by one Boolean-mask assignment."""
    chunk = max(1, 4_000_000 // max(cells, 1))
    out = np.empty(count)
    for done in range(0, count, chunk):
        c = min(chunk, count - done)
        mask = np.zeros((c, n), dtype=bool)
        rows = np.arange(c)
        for j in range(n - m, n):
            t = rng.integers(0, j + 1, size=c)
            mask[rows, np.where(mask[rows, t], j, t)] = True
        eps = rng.integers(0, 2, size=(c, m)).astype(float) * 2.0 - 1.0
        v = np.zeros((c, n))
        v[mask] = eps.ravel()
        out[done : done + c] = stat(v)
    return out


def gathered_quadratic(a, subs, eps) -> tuple:
    """eps^T A_JJ eps per trial, from the gathered m x m submatrices, and
    sum |A_JJ| of each, the scale of its rounding error."""
    sub = a[subs[:, :, None], subs[:, None, :]]
    return np.einsum("ci,cij,cj->c", eps, sub, eps), np.abs(sub).sum(axis=(1, 2))


def gathered_norms(b, subs, eps) -> np.ndarray:
    """|B R_J eps|_2 per trial, from the gathered n x m column blocks."""
    img = np.einsum("ncm,cm->cn", b[:, subs], eps)
    return np.sqrt(np.einsum("cn,cn->c", img, img))


def step_block_vectors(maps, n: int, tau: float) -> np.ndarray:
    """Row per step map: coordinates (s_(l-1), s_l] hold tau^-l and the
    rest are 0, built by a mask loop over the levels."""
    maps = np.asarray(maps)
    rows = np.zeros((maps.shape[0], n))
    coords = np.arange(1, n + 1)
    prev = np.zeros(maps.shape[0], dtype=np.int64)
    for lvl in range(1, maps.shape[1] + 1):
        cur = maps[:, lvl - 1]
        rows[(coords > prev[:, None]) & (coords <= cur[:, None])] = float(tau) ** (-lvl)
        prev = cur
    return rows


def exact_block_norms(body, maps, tau: float) -> list:
    """Norms of the step maps' block vectors in rational arithmetic, for
    lp with p = 1 or 2, top_k and lorentz bodies.

    tau^-l is exact for the float tau; a p = 2 norm is the square root
    of the exact sum of squares, rounded down at 2^-64 relative, far
    below a float ulp.
    """
    if body.kind == "lp":
        weights = [Fraction(1)] * body.dim
        power = {1.0: 1, 2.0: 2}[float(body.param)]
    elif body.kind == "top_k":
        weights = [Fraction(int(j < int(body.param))) for j in range(body.dim)]
        power = 1
    else:
        weights = [Fraction(w) for w in body.param]
        power = 1
    prefix = [Fraction(0), *itertools.accumulate(weights)]
    steps = [Fraction(1) / Fraction(float(tau)) ** (power * lvl) for lvl in range(1, len(maps[0]) + 1)]
    out = []
    for row in np.asarray(maps).tolist():
        ends = [0, *row]
        total = sum((prefix[b] - prefix[a]) * s for a, b, s in zip(ends, ends[1:], steps))
        if power == 2:
            num, den = total.numerator, total.denominator
            total = Fraction(math.isqrt(num * den * 4**64), den * 2**64)
        out.append(total)
    return out


def step_norm(body, step_map, tau: float) -> float:
    """Norm of one step map's block vector, built by a loop over its
    levels and evaluated by the body's own norm."""
    v = np.zeros(body.dim)
    prev = 0
    for lvl, cur in enumerate(step_map, start=1):
        v[prev:cur] = float(tau) ** (-lvl)
        prev = int(cur)
    return body.norm(v)


def full_sandwich(k_body, d_body, family, tau: float) -> tuple:
    """(granted, witness step) of the exact profile sandwich, always
    compared in full: each body's family norms are evaluated on their
    own, equal bodies included, and every step map is checked."""
    tau = float(tau)
    phi_k = k_body.family_norms(family, tau)
    phi_d = d_body.family_norms(family, tau)
    bad = (phi_k > tau * phi_d) | (phi_d > tau * phi_k)
    if not bad.any():
        return True, None
    return False, tuple(int(v) for v in family.maps[int(np.argmax(bad))])


def joined_net_text(net) -> str:
    """The net's text form with each cell row joined from one Python
    string per index: the header, then one line per occupied cell."""
    lines = [f"symnet n={net.n} tau={net.tau:.17g} levels={net.levels} "
             f"profiles={net.profile_count} cells={net.cell_count}\n"]
    lo = int(net.cells.min(initial=0))
    text = np.array([str(v) for v in range(lo, int(net.cells.max(initial=0)) + 1)], dtype=object)
    for cell, body in net.cell_reps:
        idx = np.subtract(net.cells[cell], lo, dtype=np.intp)
        lines.append(f"cell {','.join(text[idx].tolist())} rep {body.tag()}\n")
    return "".join(lines)


def level_count_loop(n: int, tau) -> int:
    """Least positive L with n * tau^-L < 1 - 1/tau, by stepping L up in
    exact integers: n * b^L < (a - b) * a^(L - 1) for tau = a/b.  Its
    integers grow with L, so it suits small level counts only."""
    t = Fraction(tau)
    a, b = t.numerator, t.denominator
    lvl = 1
    lhs, rhs = n * b, a - b
    while lhs >= rhs:
        lvl += 1
        lhs *= b
        rhs *= a
    return lvl


def step_widths_loop(n: int, levels: int) -> np.ndarray:
    """The (levels, count) step widths of the family of n coordinates,
    grown one level at a time: the k-level maps are, for each first step
    a, a followed by the (k-1)-level maps whose first step is at least a.
    Each level copies the whole array, so it suits small levels only."""
    firsts = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    widths = firsts[None, :]
    for _ in range(levels - 1):
        starts = np.searchsorted(widths[0], firsts)
        grown = np.empty((widths.shape[0] + 1, int((widths.shape[1] - starts).sum())),
                         dtype=widths.dtype)
        grown[0] = np.repeat(firsts, widths.shape[1] - starts)
        np.concatenate([widths[:, s:] for s in starts], axis=1, out=grown[1:])
        grown[1] -= grown[0]
        widths = grown
    return widths


def level_sum_every_level(family, coef, weights=None) -> np.ndarray:
    """StepFamily.level_sum with a Python loop over every level, zero
    widths included: the sum it must reproduce bit for bit."""
    out = np.zeros(family.count)
    if weights is None:
        for c, width in zip(coef, family.widths):
            out += c * width
        return out
    weights = np.asarray(weights, dtype=float)
    span = np.zeros((family.n + 1, family.n + 1))
    for a in range(family.n):
        span[a, a + 1 :] = np.cumsum(weights[a:])
    end = np.zeros(family.count, dtype=np.intp)
    for c, width in zip(coef, family.widths):
        start, end = end, end + width
        out += c * span[start, end]
    return out
