"""Primal-dual interior-point solver for small second-order cone programs.

The program is

    maximize <c, x>  s.t.  A x <= f,  r_k ||x[S_k]||_2 <= 1  (k = 1..K),

taken in the standard form G x + s = h with s in a product of
second-order cones Q = {(s0, s1): s0 >= |s1|}: each row of A is a
one-entry block (Q of dimension 1 is the half-line), and constraint k is
the block s_k = (1, r_k x[S_k]).  Its conic dual is

    minimize <f, zl> + sum_k t_k  s.t.  A' zl - sum_k r_k E_k w_k = c,
    zl >= 0,  (t_k, w_k) in Q,

with E_k the embedding of R^{S_k} into R^n.  The method is the
predictor-corrector of CVXOPT's coneqp (Vandenberghe 2010) without
equality constraints: an infeasible start, Nesterov-Todd scaling
W = beta (2 v v' - J) per block, Mehrotra's corrector, and one n x n
normal matrix G' W^-2 G per iteration, to which cone block k adds
(r_k / beta_k)^2 (I + 4 (|v|^2 + 1) v1 v1') on its support.  Block
vectors are stored end to end in one flat array, LP rows first, so every
operation is a handful of numpy calls whatever the block sizes.  polish
turns a late iterate into the exact optimum by Newton's method on its
active constraints.  Nothing here certifies anything: callers turn the
iterates into bounds they recheck themselves.
"""
from __future__ import annotations

import numpy as np

__all__ = ["ConeError", "SocProgram", "iterates", "polish"]

_POLISH_REG = 1e-10  # diagonal regularization of the polishing Newton matrix
_POLISH_TOL = 1e-12  # residual, sign and feasibility slack a polished point may have
_POLISH_STEPS = 4  # Newton steps polish takes at most
_SHIFTS = (0.0, 1e-14, 1e-11)  # relative diagonal shifts tried in turn
_STEP = 0.99  # fraction of the distance to the cone boundary taken
_REFINE_GAP = 1e-4  # refine Newton solves once the relative gap is below this


class ConeError(RuntimeError):
    """The interior-point iteration broke down; status names how."""

    def __init__(self, status: str):
        super().__init__(f"interior-point iteration broke down ({status})")
        self.status = status


class SocProgram:
    """maximize <c, x> s.t. A x <= f and r_k ||x[S_k]|| <= 1."""

    def __init__(self, a, f, supports, radius):
        self.a = np.asarray(a, dtype=float)
        self.nx = nx = self.a.shape[1]
        self.n_lin = n_lin = self.a.shape[0]
        sizes = np.array([1] * n_lin + [1 + len(s) for s in supports], dtype=np.int64)
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        self.bid = np.repeat(np.arange(sizes.size), sizes)
        self.js = -np.ones(int(sizes.sum()))
        self.js[self.starts] = 1.0
        self.e = (self.js > 0.0).astype(float)
        # cone tails: position in the flat array, x index, block and radius
        self.tail = np.nonzero(self.js < 0.0)[0]
        sups = [np.asarray(sup, dtype=np.int64) for sup in supports]
        self.tail_x = np.concatenate(sups) if sups else np.zeros(0, dtype=np.int64)
        self.tail_k = self.bid[self.tail] - n_lin
        self.r = np.asarray(radius, dtype=float).reshape(len(supports))
        self.tail_r = self.r[self.tail_k]
        self.h = self.e.copy()
        self.h[:n_lin] = f
        self.heads_q = self.starts[n_lin:]

    def gx(self, x):
        """G x in the flat block layout."""
        out = np.zeros(self.js.size)
        out[: self.n_lin] = self.a @ x
        out[self.tail] = -self.tail_r * x[self.tail_x]
        return out

    def gtz(self, z):
        """G' z for z in the flat block layout."""
        soc = np.bincount(self.tail_x, weights=self.tail_r * z[self.tail], minlength=self.nx)
        return self.a.T @ z[: self.n_lin] - soc

    def cone_vectors(self, z):
        """(nx, K) array whose column k is r_k E_k w_k for z's block k."""
        out = np.zeros((self.nx, self.r.size))
        out[self.tail_x, self.tail_k] = self.tail_r * z[self.tail]
        return out


def iterates(prog: SocProgram, c, max_iter: int):
    """Yield (iteration, x, s, z, rel) after each of at most max_iter
    interior-point steps, with s and z in the flat block layout; rel is
    the larger of the duality gap and the residuals, relative to the
    objective, a hint for when certifying may pay off.  Raises ConeError
    on a failed factorization or an iterate that leaves the cone."""
    c = np.asarray(c, dtype=float)
    a, h, nx, n_lin = prog.a, prog.h, prog.nx, prog.n_lin
    starts, bid, js, e = prog.starts, prog.bid, prog.js, prog.e
    tail_x, cone_rows = prog.tail_x, prog.tail_k
    off = 1.0 - e
    reduceat = np.add.reduceat
    diag = np.arange(nx)

    def jprod(u, v):
        out = u[starts][bid] * v + v[starts][bid] * u
        out[starts] = reduceat(u * v, starts)
        return out

    def cho_inv(hmat):
        # late iterations make the normal matrix nearly singular; a tiny
        # diagonal shift keeps the factorization, and refinement the step
        bump = float(np.abs(hmat).max(initial=1.0))
        for shift in _SHIFTS:
            try:
                return np.linalg.inv(np.linalg.cholesky(hmat + shift * bump * np.eye(nx)))
            except np.linalg.LinAlgError:
                pass
        raise ConeError("factorization-failed")

    def lowest(u):
        # the smallest eigenvalue u0 - |u1| of each block
        return u[starts] - np.sqrt(reduceat(u * u * off, starts))

    # Mehrotra's start: least squares with W = I, both sides shifted into
    # the cone, then shifted again to balance s'z between them
    h0 = a.T @ a
    h0[diag, diag] += np.bincount(tail_x, weights=prog.tail_r**2, minlength=nx)
    li = cho_inv(h0)
    x = li.T @ (li @ (c + a.T @ h[:n_lin]))
    s = h - prog.gx(x)
    z = -s
    s = s + max(-1.5 * float(lowest(s).min()), 0.0) * e
    z = z + max(-1.5 * float(lowest(z).min()), 0.0) * e
    sz = float(s @ z)
    s, z = s + 0.5 * sz / float(e @ z) * e, z + 0.5 * sz / float(e @ s) * e

    for it in range(max_iter + 1):
        rz = prog.gx(x) + s - h
        rx = prog.gtz(z) - c
        gap = float(s @ z)
        pobj = float(c @ x)
        scale = max(abs(pobj), 1e-12)
        rel = max(gap, abs(float(h @ z) - pobj), float(np.abs(rz).max()),
                  float(np.abs(rx).max())) / scale
        if it:
            yield it, x, s, z, rel
        if it == max_iter:
            return

        # Nesterov-Todd scaling per block: W = beta (2 v v' - J), and
        # lam = W z = W^-1 s
        sdet, zdet = reduceat(s * s * js, starts), reduceat(z * z * js, starts)
        if not (sdet.min() > 0.0 and zdet.min() > 0.0 and s[starts].min() > 0.0):
            raise ConeError("left-cone")
        sn, zn = np.sqrt(sdet), np.sqrt(zdet)
        sb, zb = s / sn[bid], z / zn[bid]
        gam = np.sqrt(0.5 + 0.5 * reduceat(sb * zb, starts))
        wb = (sb + zb * js) / (2.0 * gam[bid])
        v = (wb + e) / np.sqrt(2.0 * wb[starts] + 2.0)[bid]
        jv = v * js
        beta = np.sqrt(sn / zn)
        bb = beta[bid]
        det = sn * zn
        lnorm = np.sqrt(det)[bid]

        def w_apply(u):
            return bb * (2.0 * v * reduceat(v * u, starts)[bid] - u * js)

        def w_inv(u):
            return (2.0 * jv * reduceat(jv * u, starts)[bid] - u * js) / bb

        lam = w_apply(z)
        lam0 = lam[starts][bid]
        lbar = lam / lnorm
        lbar1 = lbar[starts] + 1.0

        def inv_step(ds, dz):
            # 1 / the largest t with lam + t d in the cone for d = ds, dz
            # (ECOS's closed form), or 0 when every t >= 0 is feasible
            d = np.stack([ds, dz])
            ld = reduceat(lbar * d * js, starts, axis=1)
            rho = (d - ((ld + d[:, starts]) / lbar1)[:, bid] * lbar) / lnorm
            rho1 = np.sqrt(reduceat(rho * rho * off, starts, axis=1))
            return max(0.0, float((rho1 - ld / lnorm[starts]).max()))

        hmat = a.T @ (a / (beta[:n_lin] ** 2)[:, None])
        if cone_rows.size:
            rb = prog.r / beta[n_lin:]
            hmat[diag, diag] += np.bincount(tail_x, weights=(rb * rb)[cone_rows], minlength=nx)
            coef = 2.0 * np.sqrt(reduceat(v * v, starts)[n_lin:] + 1.0) * rb
            p = np.zeros((rb.size, nx))
            p[cone_rows, tail_x] = coef[cone_rows] * v[prog.tail]
            hmat += p.T @ p
        li = cho_inv(hmat)
        wrz = w_inv(rz)

        def newton(rx_, wrz_, dc):
            # G' dz = -rx, G dx + ds = -rz, lam o (W dz + W^-1 ds) = dc,
            # given wrz_ = W^-1 rz; returns dx and the scaled W dz, W^-1 ds
            d0 = reduceat(lam * dc * js, starts) / det
            ds = (dc - d0[bid] * lam) / lam0
            ds[starts] = d0
            dx = li.T @ (li @ (-rx_ - prog.gtz(w_inv(wrz_ + ds))))
            dz = w_inv(prog.gx(dx)) + wrz_ + ds
            return dx, dz, ds - dz

        def solve(dc):
            sol = newton(rx, wrz, dc)
            if gap < _REFINE_GAP * scale:
                # one step of iterative refinement on the unreduced system
                dx, dz, ds = sol
                fix = newton(
                    rx + prog.gtz(w_inv(dz)),
                    w_inv(rz + prog.gx(dx) + w_apply(ds)),
                    dc - jprod(lam, dz + ds),
                )
                sol = tuple(u + w for u, w in zip(sol, fix))
            return sol

        lsq = jprod(lam, lam)
        _, dz_a, ds_a = solve(-lsq)
        sigma = (1.0 - min(1.0, 1.0 / max(inv_step(ds_a, dz_a), 1e-300))) ** 3
        dx, dz, ds = solve(-lsq - jprod(ds_a, dz_a) + sigma * gap / starts.size * e)
        t = min(1.0, _STEP / max(inv_step(ds, dz), 1e-300))
        x = x + t * dx
        s = s + t * w_apply(ds)
        z = z + t * w_inv(dz)
        if not np.isfinite(float(x.sum()) + float(z.sum())):
            raise ConeError("non-finite")


def polish(prog: SocProgram, c, x, s, z):
    """Newton's method on the optimality conditions of the constraints
    active at the iterate (x, s, z); returns a polished (x, z), or None
    when the active set does not yield a consistent optimum.

    A row counts as active when its slack is below its multiplier, a
    cone when the distance of s to the cone's boundary is below z0.  On
    that set the optimum solves

        c = A_act' alpha + sum_k nu_k r_k^2 E_k x_S,  A_act x = f_act,
        (r_k^2 |x_S|^2 - 1) / 2 = 0,

    and its multipliers give the dual: alpha on the active rows and
    (t_k, w_k) = nu_k (1, -r_k x_S) on the active cones.  The Newton
    matrix is regularized by +-_POLISH_REG on its diagonal, so faces of
    optima and redundant active rows cost nothing but a smaller step.
    The answer is accepted only when the residuals vanish, the
    multipliers are nonnegative and x satisfies every constraint, each
    up to _POLISH_TOL; a rejected or wrong answer costs a weaker bound,
    never a wrong one, since the caller rechecks what it gets.
    """
    n_lin, nx = prog.n_lin, prog.nx
    act = np.nonzero(s[:n_lin] < z[:n_lin])[0]
    s0, z0 = s[prog.heads_q], z[prog.heads_q]
    s1 = np.sqrt(np.bincount(prog.tail_k, weights=s[prog.tail] ** 2, minlength=z0.size))
    cones = np.nonzero(s0 - s1 < z0)[0]
    on = np.isin(prog.tail_k, cones)
    t_x, t_k = prog.tail_x[on], np.searchsorted(cones, prog.tail_k[on])
    r2 = prog.r[cones] ** 2
    a_act, f_act = prog.a[act], prog.h[act]
    alpha, nu = z[act], z0[cones]
    m, q = act.size, cones.size
    size = nx + m + q
    kkt = np.zeros((size, size))
    kkt[nx : nx + m, :nx] = a_act
    kkt[:nx, nx : nx + m] = a_act.T
    reg = np.concatenate([np.full(nx, _POLISH_REG), np.full(m + q, -_POLISH_REG)])
    diag = np.arange(size)
    scale = max(1.0, float(np.abs(c).max()))
    for _ in range(_POLISH_STEPS + 1):
        grad = np.zeros((q, nx))
        grad[t_k, t_x] = r2[t_k] * x[t_x]
        res = np.concatenate([
            a_act.T @ alpha + grad.T @ nu - c,
            a_act @ x - f_act,
            0.5 * (grad @ x - 1.0),
        ])
        if np.abs(res).max() <= _POLISH_TOL * scale:
            break
        kkt[nx + m :, :nx] = grad
        kkt[:nx, nx + m :] = grad.T
        kkt[diag, diag] = reg
        kkt[diag[:nx], diag[:nx]] += np.bincount(t_x, weights=(nu * r2)[t_k], minlength=nx)
        try:
            step = np.linalg.solve(kkt, -res)
        except np.linalg.LinAlgError:
            return None
        x = x + step[:nx]
        alpha = alpha + step[nx : nx + m]
        nu = nu + step[nx + m :]
    else:
        return None
    slack = prog.h - prog.gx(x)
    cone_norm = np.sqrt(np.bincount(prog.tail_k, weights=slack[prog.tail] ** 2,
                                    minlength=z0.size))
    if (min(alpha.min(initial=0.0), nu.min(initial=0.0)) < -_POLISH_TOL
            or slack[:n_lin].min(initial=0.0) < -_POLISH_TOL
            or (cone_norm - 1.0).max(initial=0.0) > _POLISH_TOL):
        return None
    zp = np.zeros_like(z)
    zp[act] = np.maximum(alpha, 0.0)
    nu = np.maximum(nu, 0.0)
    zp[prog.heads_q[cones]] = nu
    zp[prog.tail[on]] = -(nu * prog.r[cones])[t_k] * x[t_x]
    return x, zp
