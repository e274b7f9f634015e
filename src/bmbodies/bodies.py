"""Symmetric convex bodies given as absolute convex hulls of simple pieces.

A HullBody is abs.conv of its components.  Components are either
SignedPoints (a finite generator list, optionally closed under sign
flips coordinatewise), a Ball (an l_p ball, p in {1, 2, inf}, possibly
restricted to a coordinate subset) or Caps (Euclidean caps r_k B_2^{S_k}).
A body stores a Ball(inf) r B_inf^S as the box of its one generator r 1_S
and its restricted Ball(2)s as the rows of one Caps, so no code past the
constructor sees either.  Support functions are exact closed forms;
gauges are certified two-sided and live in gauge.py.

The model bodies: subset_body builds
    abs.conv( unc.conv(indicators of I_1..I_N), sqrt(m) B_1, delta*sqrt(n) B_2 )
with m = round_half_up(delta*n), and cap_body builds the hull of the
Caps of sqrt(m) B_2^{I_l} together with delta*sqrt(n) B_2.
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
    HullBody stores a Ball(inf) as its box and a restricted Ball(2) as a
    row of its Caps (see HullBody)."""

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


@dataclass(frozen=True)
class Caps:
    """Euclidean caps r_k B_2^{S_k}: radii[k] is r_k, and row k of the (K, n)
    float mask is the 0/1 indicator of S_k.  It has no checks of its own:
    only HullBody (from restricted Ball(2)s) and cap_body build one."""

    radii: np.ndarray
    mask: np.ndarray


class HullBody:
    """Absolute convex hull of components; immutable once constructed.

    Construction validates shapes and finiteness, stores each Ball(inf)
    r B_inf^S as SignedPoints([r 1_S], unconditional=True), joins every
    Caps and restricted Ball(2), in order, into one Caps at the first one's
    place, and accepts a body exactly when its certified inradius bound
    (the largest component inradius, see inradius_lower) is positive:
    every bound divided by it is then finite.
    """

    __slots__ = ("dim", "components", "_cache")

    def __init__(self, dim: int, components):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        comps = []
        for c in components:
            if isinstance(c, Ball):
                ind = np.zeros((1, dim))
                ind[0, slice(None) if c.support is None else check_index_set(c.support, dim)] = 1.0
                if c.p == math.inf:
                    c = SignedPoints(c.radius * ind, unconditional=True)
                elif c.p == 2.0 and c.support is not None:
                    c = Caps(np.array([c.radius]), ind)
            elif not isinstance(c, (SignedPoints, Caps)):
                raise TypeError(f"unknown component type {type(c).__name__}")
            arr = c.points if isinstance(c, SignedPoints) else getattr(c, "mask", None)
            if arr is not None and arr.shape[1] != dim:
                raise ValueError(f"component dimension {arr.shape[1]} != body dim {dim}")
            comps.append(c)
        if not comps:
            raise ValueError("a body needs at least one component")
        at = [i for i, c in enumerate(comps) if isinstance(c, Caps)]
        if len(at) > 1:
            comps[at[0]] = Caps(np.concatenate([comps[i].radii for i in at]),
                                np.vstack([comps[i].mask for i in at]))
            comps = [c for i, c in enumerate(comps) if i not in at[1:]]
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
            elif isinstance(c, Caps):
                kinds.append(f"caps[{c.radii.size}](r<={c.radii.max():g})")
            else:
                sup = "full" if c.support is None else f"|S|={c.support.size}"
                kinds.append(f"B{c.p:g}(r={c.radius:g},{sup})")
        return f"HullBody(dim={self.dim}, {', '.join(kinds)})"


def support_many(body: HullBody, ys) -> np.ndarray:
    """Support function h_K evaluated at each row of ys, shape (k,)."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[1] != body.dim:
        raise ValueError(f"direction dimension {ys.shape[1]} != body dim {body.dim}")
    vals = np.zeros(ys.shape[0])
    for c in body.components:
        if isinstance(c, Caps):
            contrib = (np.sqrt((ys * ys) @ c.mask.T) * c.radii).max(axis=1)
        elif isinstance(c, SignedPoints):
            if c.unconditional:
                contrib = (np.abs(ys) @ np.abs(c.points).T).max(axis=1)
            else:
                contrib = np.abs(ys @ c.points.T).max(axis=1)
        elif c.p == 1.0:
            sub = ys if c.support is None else ys[:, c.support]
            contrib = c.radius * np.abs(sub).max(axis=1)
        else:  # a full Ball(2): the restricted ones are rows of the Caps
            contrib = c.radius * np.sqrt((ys * ys).sum(axis=1))
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
    subs = _subset_family(subsets, n)
    mask = np.zeros((subs.shape[0], n))
    np.put_along_axis(mask, subs, 1.0, axis=1)
    caps = Caps(np.full(subs.shape[0], math.sqrt(params.m)), mask)
    return HullBody(n, [caps, Ball(2.0, params.delta * math.sqrt(n))])


def _component_inradius(c, n: int) -> float:
    """Euclidean inradius of a single component (0 when flat)."""
    if isinstance(c, Caps):
        return float(c.radii[c.mask.all(axis=1)].max(initial=0.0))
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
            c.radius if isinstance(c, Ball)
            else float(c.radii.max()) if isinstance(c, Caps)
            else float(np.sqrt((c.points**2).sum(axis=1)).max())
            for c in body.components
        )
    return body._cache[key]


# ---------------------------------------------------------------------------
# serialization

def body_to_dict(body: HullBody) -> dict:
    comps = []
    for c in body.components:
        if isinstance(c, SignedPoints):
            comps.append({"kind": "signed_points", "unconditional": bool(c.unconditional),
                          "points": c.points.tolist()})
        elif isinstance(c, Caps):
            comps.append({"kind": "caps", "radii": c.radii.tolist(),
                          "supports": [np.flatnonzero(row).tolist() for row in c.mask]})
        else:
            comps.append({"kind": "ball", "p": int(c.p), "radius": float(c.radius),
                          "support": None if c.support is None else c.support.tolist()})
    return {"dim": body.dim, "components": comps}


def body_to_text(body: HullBody) -> str:
    """The body's JSON document on one line, without a trailing newline;
    floats are written as their repr, so they round-trip exactly."""
    return json.dumps(body_to_dict(body))
