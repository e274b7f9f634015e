"""Symmetric convex bodies given as absolute convex hulls of simple pieces.

A HullBody is abs.conv of its components.  Components are either
SignedPoints (a finite generator list, optionally closed under sign
flips coordinatewise) or a Ball (an l_p ball, p in {1, 2, inf}, possibly
restricted to a coordinate subset).  Support functions are exact closed
forms; gauges are certified two-sided and live in gauge.py.

The model bodies: subset_body builds
    abs.conv( unc.conv(indicators of I_1..I_N), sqrt(m) B_1, delta*sqrt(n) B_2 )
with m = round_half_up(delta*n), and cap_body builds the hull of
Euclidean caps sqrt(m) B_2^{I_l} together with delta*sqrt(n) B_2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .randmodel import ModelParams, check_index_set

__all__ = [
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
    "body_from_dict",
    "body_to_text",
    "write_body",
    "read_body",
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
    """l_p ball of given radius, restricted to `support` when not None."""

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

    Construction validates shapes, finiteness, and that some component
    makes the hull full-dimensional (so the gauge is finite everywhere).
    """

    __slots__ = ("dim", "components", "_cache")

    def __init__(self, dim: int, components):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        comps = tuple(components)
        if not comps:
            raise ValueError("a body needs at least one component")
        for c in comps:
            if isinstance(c, SignedPoints):
                if c.points.shape[1] != dim:
                    raise ValueError(
                        f"generator dimension {c.points.shape[1]} != body dim {dim}"
                    )
            elif isinstance(c, Ball):
                if c.support is not None:
                    check_index_set(c.support, dim)
            else:
                raise TypeError(f"unknown component type {type(c).__name__}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_cache", {})
        if not self._full_dimensional():
            raise ValueError(
                "body is not full-dimensional: no component family spans R^n"
            )

    def __setattr__(self, name, value):
        raise AttributeError("HullBody is immutable")

    def __reduce__(self):
        # rebuild through __init__: validation runs again and the cache
        # starts empty instead of travelling with the body
        return (type(self), (self.dim, self.components))

    def _full_dimensional(self) -> bool:
        n = self.dim
        for c in self.components:
            if isinstance(c, Ball):
                if c.support is None or c.support.size == n:
                    return True
            elif c.unconditional:
                covered = np.any(c.points != 0.0, axis=0)
                if covered.all():
                    return True
            else:
                if np.linalg.matrix_rank(c.points) == n:
                    return True
        return False

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


def _dual_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return 2.0


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
        else:
            sub = _restrict(ys, c.support)
            q = _dual_exponent(c.p)
            if q == 1.0:
                contrib = c.radius * np.abs(sub).sum(axis=1)
            elif q == 2.0:
                contrib = c.radius * np.sqrt((sub * sub).sum(axis=1))
            else:
                contrib = c.radius * np.abs(sub).max(axis=1)
        np.maximum(vals, contrib, out=vals)
    return vals


def support_function(body: HullBody, y) -> float:
    """Support function h_K(y) = sup_{x in K} <x, y>."""
    return float(support_many(body, np.asarray(y, dtype=float)[None, :])[0])


def ball_body(n: int, p, radius: float = 1.0) -> HullBody:
    """Classical p-ball as a hull body.

    For p = 1 and p = infinity the inscribed Euclidean ball rides along
    as an extra, geometrically redundant component; operator-norm upper
    bounds out of Euclidean sources read the target's Ball(2) component,
    so the redundancy keeps those certified against this body too.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    comps = [Ball(p, radius)]
    pf = float(p)
    if pf == 1.0:
        comps.append(Ball(2.0, radius / math.sqrt(n)))
    elif pf == math.inf:
        comps.append(Ball(2.0, radius))
    return HullBody(n, comps)


def subset_body(params: ModelParams, subsets) -> HullBody:
    """Model polytope from a subset family.

    Components: the unconditional hull of the subset indicator vectors,
    sqrt(m) B_1 and delta*sqrt(n) B_2.  Duplicate subsets are allowed.
    """
    subs = np.atleast_2d(np.asarray(subsets, dtype=np.int64))
    if subs.size == 0:
        raise ValueError("subset family must be nonempty")
    n = params.n
    gens = np.zeros((subs.shape[0], n))
    for k, row in enumerate(subs):
        check_index_set(row, n)
        gens[k, row] = 1.0
    comps = [
        SignedPoints(gens, unconditional=True),
        Ball(1.0, math.sqrt(params.m)),
        Ball(2.0, params.delta * math.sqrt(n)),
    ]
    return HullBody(n, comps)


def cap_body(params: ModelParams, subsets) -> HullBody:
    """Hull of Euclidean caps sqrt(m) B_2 restricted to each subset,
    together with the full ball delta*sqrt(n) B_2."""
    subs = np.atleast_2d(np.asarray(subsets, dtype=np.int64))
    if subs.size == 0:
        raise ValueError("subset family must be nonempty")
    n = params.n
    r_cap = math.sqrt(params.m)
    comps = []
    for row in subs:
        comps.append(Ball(2.0, r_cap, support=check_index_set(row, n)))
    comps.append(Ball(2.0, params.delta * math.sqrt(n)))
    return HullBody(n, comps)


def _component_inradius(c, n: int) -> float:
    """Euclidean inradius of a single component (0 when flat)."""
    if isinstance(c, Ball):
        if c.support is not None and c.support.size < n:
            return 0.0
        if c.p == 1.0:
            return c.radius / math.sqrt(n)
        return c.radius  # p = 2 and p = inf agree on the inscribed ball
    pts = c.points
    if c.unconditional:
        k = pts.shape[0]
        # the hull contains the mean box (C_1 + ... + C_k)/k
        mean_profile = np.abs(pts).sum(axis=0) / k
        return float(mean_profile.min())
    # hull contains the scaled zonotope (1/k) sum of segments
    k = pts.shape[0]
    if np.linalg.matrix_rank(pts) < n:
        return 0.0
    smin = np.linalg.svd(pts, compute_uv=False)[-1]
    return float(smin / k)


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
        best = 0.0
        for c in body.components:
            if isinstance(c, Ball):
                size = body.dim if c.support is None else c.support.size
                r = c.radius * math.sqrt(size) if c.p == math.inf else c.radius
            else:
                r = float(np.sqrt((c.points**2).sum(axis=1)).max())
            best = max(best, r)
        body._cache[key] = best
    return body._cache[key]


# ---------------------------------------------------------------------------
# serialization: a single text document, decimal numbers at 17 significant
# digits so floats round-trip exactly

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
                    "p": "inf" if c.p == math.inf else int(c.p),
                    "radius": float(c.radius),
                    "support": None if c.support is None else [int(i) for i in c.support],
                }
            )
    return {"dim": body.dim, "components": comps}


def body_from_dict(doc: dict) -> HullBody:
    try:
        dim = int(doc["dim"])
        comps = []
        for c in doc["components"]:
            kind = c["kind"]
            if kind == "signed_points":
                comps.append(
                    SignedPoints(
                        np.asarray(c["points"], dtype=float),
                        unconditional=bool(c["unconditional"]),
                    )
                )
            elif kind == "ball":
                p = math.inf if c["p"] == "inf" else float(c["p"])
                sup = c.get("support")
                comps.append(
                    Ball(p, float(c["radius"]), None if sup is None else np.asarray(sup))
                )
            else:
                raise ValueError(f"unknown component kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"missing body field {exc}") from exc
    return HullBody(dim, comps)


def _emit(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  "{k}": {_emit(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{inner}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return pad + "[" + ", ".join(_emit(v).strip() for v in obj) + "]"
        inner = ",\n".join(_emit(v, indent + 2) for v in obj)
        return f"{pad}[\n{inner}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, float):
        return pad + _fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def body_to_text(body: HullBody) -> str:
    """The body's text document, without a trailing newline."""
    return _emit(body_to_dict(body))


def write_body(body: HullBody, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body_to_text(body))
        fh.write("\n")


def read_body(path) -> HullBody:
    with open(path, "r", encoding="utf-8") as fh:
        return body_from_dict(json.load(fh))
