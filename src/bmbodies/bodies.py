"""Symmetric convex bodies given as absolute convex hulls of simple pieces.

A HullBody is abs.conv of its components.  Components are either
SignedPoints (a finite generator list, optionally closed under sign
flips coordinatewise) or a Ball (an l_p ball, p in {1, 2, inf}, possibly
restricted to a coordinate subset).  A body stores a Ball(inf) r B_inf^S
as the box of its one generator r 1_S, so no code past the constructor
sees one.  Support functions are exact closed forms; gauges are
certified two-sided and live in gauge.py.

The model bodies: subset_body builds
    abs.conv( unc.conv(indicators of I_1..I_N), sqrt(m) B_1, delta*sqrt(n) B_2 )
with m = round_half_up(delta*n), and cap_body builds the hull of
Euclidean caps sqrt(m) B_2^{I_l} together with delta*sqrt(n) B_2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # randmodel imports this module
    from .randmodel import ModelParams

__all__ = [
    "check_index_set",
    "SignedPoints",
    "Ball",
    "HullBody",
    "support_function",
    "support_many",
    "ball_body",
    "subset_body",
    "cap_body",
    "inradius_lower",
    "circumradius_upper",
    "body_to_dict",
    "body_to_text",
]


@dataclass(frozen=True)
class SignedPoints:
    """Finite generator family; unconditional closes each generator under
    coordinate sign flips (turning it into a box), otherwise each
    generator contributes the segment [-g, g]."""

    points: np.ndarray
    unconditional: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("generator entries must be finite")
        if np.any(np.all(pts == 0.0, axis=1)):
            raise ValueError("zero generators are not allowed")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Ball:
    """l_p ball of given radius, restricted to `support` when not None;
    HullBody stores a Ball(inf) as its box (see HullBody)."""

    p: float
    radius: float
    support: np.ndarray | None = None

    def __post_init__(self):
        p = float(self.p)
        if p not in (1.0, 2.0, math.inf):
            raise ValueError(f"p must be 1, 2 or inf, got {self.p}")
        object.__setattr__(self, "p", p)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.support is not None:
            sup = np.asarray(self.support, dtype=np.int64)
            if sup.size == 0:
                raise ValueError("support must be nonempty when given")
            object.__setattr__(self, "support", sup)


class HullBody:
    """Absolute convex hull of components; immutable once constructed.

    Construction validates shapes and finiteness, stores each Ball(inf)
    r B_inf^S as SignedPoints([r 1_S], unconditional=True), and accepts a
    body exactly when its certified inradius bound (the largest component
    inradius, see inradius_lower) is positive: every bound divided by it
    is then finite.
    """

    __slots__ = ("dim", "components", "_cache")

    def __init__(self, dim: int, components):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        comps = list(components)
        if not comps:
            raise ValueError("a body needs at least one component")
        for i, c in enumerate(comps):
            if isinstance(c, SignedPoints):
                if c.points.shape[1] != dim:
                    raise ValueError(
                        f"generator dimension {c.points.shape[1]} != body dim {dim}"
                    )
            elif isinstance(c, Ball):
                if c.support is not None:
                    check_index_set(c.support, dim)
                if c.p == math.inf:
                    gen = np.zeros((1, dim))
                    gen[0, slice(None) if c.support is None else c.support] = c.radius
                    comps[i] = SignedPoints(gen, unconditional=True)
            else:
                raise TypeError(f"unknown component type {type(c).__name__}")
        comps = tuple(comps)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_cache", {})
        # the helper, not the caching inradius_lower: a new body's cache stays empty
        if not any(_component_inradius(c, dim) > 0.0 for c in comps):
            raise ValueError(
                "body is not full-dimensional: no component family spans R^n"
            )

    def __setattr__(self, name, value):
        raise AttributeError("HullBody is immutable")

    def __reduce__(self):
        # rebuild through __init__: validation runs again and the cache
        # starts empty instead of travelling with the body
        return (type(self), (self.dim, self.components))

    def __repr__(self):
        kinds = []
        for c in self.components:
            if isinstance(c, SignedPoints):
                tag = "unc" if c.unconditional else "pts"
                kinds.append(f"{tag}[{c.points.shape[0]}]")
            else:
                sup = "full" if c.support is None else f"|S|={c.support.size}"
                kinds.append(f"B{c.p:g}(r={c.radius:g},{sup})")
        return f"HullBody(dim={self.dim}, {', '.join(kinds)})"


def _restrict(ys: np.ndarray, support) -> np.ndarray:
    return ys if support is None else ys[:, support]


def _batched_caps(body: HullBody):
    """Ball(2) components with a support as 0/1 support masks (k, n) and
    radii (k,), or None without any; cached on the body, so that a cap
    body's hundreds of caps cost one product in support_many."""
    if "batched_caps" not in body._cache:
        caps = [c for c in body.components
                if isinstance(c, Ball) and c.p == 2.0 and c.support is not None]
        batched = None
        if caps:
            mask = np.zeros((len(caps), body.dim))
            for i, c in enumerate(caps):
                mask[i, c.support] = 1.0
            batched = (mask, np.array([c.radius for c in caps]))
        body._cache["batched_caps"] = batched
    return body._cache["batched_caps"]


def support_many(body: HullBody, ys) -> np.ndarray:
    """Support function h_K evaluated at each row of ys, shape (k,)."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != body.dim:
        raise ValueError(f"direction dimension {ys.shape[1]} != body dim {body.dim}")
    vals = np.zeros(ys.shape[0])
    caps = _batched_caps(body)
    if caps is not None:
        mask, radii = caps
        np.maximum(vals, (np.sqrt((ys * ys) @ mask.T) * radii).max(axis=1), out=vals)
    for c in body.components:
        if isinstance(c, Ball) and c.p == 2.0 and c.support is not None:
            continue  # in caps above
        if isinstance(c, SignedPoints):
            if c.unconditional:
                contrib = (np.abs(ys) @ np.abs(c.points).T).max(axis=1)
            else:
                contrib = np.abs(ys @ c.points.T).max(axis=1)
        elif c.p == 1.0:
            contrib = c.radius * np.abs(_restrict(ys, c.support)).max(axis=1)
        else:
            sub = _restrict(ys, c.support)
            contrib = c.radius * np.sqrt((sub * sub).sum(axis=1))
        np.maximum(vals, contrib, out=vals)
    return vals


def support_function(body: HullBody, y) -> float:
    """Support function h_K(y) = sup_{x in K} <x, y>."""
    return float(support_many(body, np.asarray(y, dtype=float)[None, :])[0])


def ball_body(n: int, p, radius: float = 1.0) -> HullBody:
    """Classical p-ball of the given radius as a one-component hull body."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return HullBody(n, [Ball(p, radius)])


def check_index_set(idx, n: int) -> np.ndarray:
    """Validate a sorted array of distinct 0-based indices below n."""
    a = np.asarray(idx, dtype=np.int64)
    if a.ndim != 1:
        raise ValueError("index set must be 1-D")
    if a.size:
        _subset_family(a, n)
    return a


def _subset_family(subsets, n: int) -> np.ndarray:
    """The family as a (k, m) int64 array, every row checked at once as
    check_index_set checks one (the first bad row reports)."""
    subs = np.atleast_2d(np.asarray(subsets, dtype=np.int64))
    if subs.size == 0:
        raise ValueError("subset family must be nonempty")
    if subs.ndim != 2:
        raise ValueError("index set must be 1-D")
    out_of_range = (subs[:, 0] < 0) | (subs[:, -1] >= n)
    bad = out_of_range | np.any(np.diff(subs, axis=1) <= 0, axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if out_of_range[k]:
            raise ValueError(
                f"indices must lie in [0, {n}), got range [{subs[k, 0]}, {subs[k, -1]}]"
            )
        raise ValueError("indices must be strictly increasing")
    return subs


def subset_body(params: ModelParams, subsets) -> HullBody:
    """Model polytope from a subset family.

    Components: the unconditional hull of the subset indicator vectors,
    sqrt(m) B_1 and delta*sqrt(n) B_2.  Duplicate subsets are allowed.
    """
    n = params.n
    subs = _subset_family(subsets, n)
    gens = np.zeros((subs.shape[0], n))
    np.put_along_axis(gens, subs, 1.0, axis=1)
    comps = [
        SignedPoints(gens, unconditional=True),
        Ball(1.0, math.sqrt(params.m)),
        Ball(2.0, params.delta * math.sqrt(n)),
    ]
    return HullBody(n, comps)


def cap_body(params: ModelParams, subsets) -> HullBody:
    """Hull of Euclidean caps sqrt(m) B_2 restricted to each subset,
    together with the full ball delta*sqrt(n) B_2."""
    n = params.n
    r_cap = math.sqrt(params.m)
    comps = [Ball(2.0, r_cap, support=row) for row in _subset_family(subsets, n)]
    comps.append(Ball(2.0, params.delta * math.sqrt(n)))
    return HullBody(n, comps)


def _component_inradius(c, n: int) -> float:
    """Euclidean inradius of a single component (0 when flat)."""
    if isinstance(c, Ball):
        if c.support is not None and c.support.size < n:
            return 0.0
        if c.p == 1.0:
            return c.radius / math.sqrt(n)
        return c.radius
    pts = c.points
    if c.unconditional:
        k = pts.shape[0]
        # the hull contains the mean box (C_1 + ... + C_k)/k
        mean_profile = np.abs(pts).sum(axis=0) / k
        return float(mean_profile.min())
    # hull contains the scaled zonotope (1/k) sum of segments; a rank
    # below n (matrix_rank's cutoff on the same singular values) is flat
    sv = np.linalg.svd(pts, compute_uv=False)
    if sv.size < n or sv[-1] <= sv[0] * max(pts.shape) * np.finfo(float).eps:
        return 0.0
    return float(sv[-1] / pts.shape[0])


def inradius_lower(body: HullBody) -> float:
    """Certified lower bound on the Euclidean inradius (positive for any
    validated body): gauge(x) <= |x|_2 / inradius_lower."""
    key = "inradius_lower"
    if key not in body._cache:
        body._cache[key] = max(
            _component_inradius(c, body.dim) for c in body.components
        )
    return body._cache[key]


def circumradius_upper(body: HullBody) -> float:
    """Upper bound on the Euclidean circumradius: gauge(x) >= |x|_2 / R."""
    key = "circumradius_upper"
    if key not in body._cache:
        body._cache[key] = max(
            c.radius if isinstance(c, Ball) else float(np.sqrt((c.points**2).sum(axis=1)).max())
            for c in body.components
        )
    return body._cache[key]


# ---------------------------------------------------------------------------
# serialization

def body_to_dict(body: HullBody) -> dict:
    comps = []
    for c in body.components:
        if isinstance(c, SignedPoints):
            comps.append(
                {
                    "kind": "signed_points",
                    "unconditional": bool(c.unconditional),
                    "points": [[float(v) for v in row] for row in c.points],
                }
            )
        else:
            comps.append(
                {
                    "kind": "ball",
                    "p": int(c.p),
                    "radius": float(c.radius),
                    "support": None if c.support is None else [int(i) for i in c.support],
                }
            )
    return {"dim": body.dim, "components": comps}


def body_to_text(body: HullBody) -> str:
    """The body's JSON document on one line, without a trailing newline;
    floats are written as their repr, so they round-trip exactly."""
    return json.dumps(body_to_dict(body))
