"""Dense linear algebra: SVD with certified invariants, matrix norms,
and the flat spectral intervals of the paper's pigeonhole lemma.

Everything here works on plain float64 numpy arrays.  Matrices are
square, real, and small (n up to a few hundred); no sparse or complex
support is intended.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PigeonholeError",
    "SvdResult",
    "SpectralInterval",
    "check_matrix",
    "svd",
    "spectral_norm",
    "hs_norm",
    "spectral_interval",
]


class PigeonholeError(RuntimeError):
    """Raised when no admissible flat block exists in a singular spectrum."""


def check_matrix(mat, square: bool = True) -> np.ndarray:
    """Coerce to a finite float64 2-D array, optionally enforcing squareness."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition mat = u @ diag(s) @ v.T.

    s is nonincreasing and nonnegative; u and v hold orthonormal columns.
    """

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def svd(mat) -> SvdResult:
    """Full SVD of a square matrix.  Deterministic for a fixed input."""
    a = check_matrix(mat)
    u, s, vt = np.linalg.svd(a)
    return SvdResult(s=s, u=u, v=vt.T)


def spectral_norm(mat) -> float:
    """Largest singular value."""
    a = check_matrix(mat, square=False)
    return float(np.linalg.norm(a, 2))


def hs_norm(mat) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    a = check_matrix(mat, square=False)
    return float(np.linalg.norm(a))


@dataclass(frozen=True)
class SpectralInterval:
    """A flat block [i1, i2] of a singular spectrum, indices 1-based.

    r = i2 - i1 is the block length; ratio = s[i1]/s[i2] <= 2.  The block
    sits inside [1, floor(n/2)] so every index carries a singular value
    that is at least as large as the median one.
    """

    i1: int
    i2: int
    r: int
    ratio: float

    def __post_init__(self):
        if not (1 <= self.i1 < self.i2):
            raise ValueError(f"need 1 <= i1 < i2, got ({self.i1}, {self.i2})")
        if self.r != self.i2 - self.i1:
            raise ValueError("r must equal i2 - i1")
        if not self.ratio <= 2.0 + 1e-12:
            raise ValueError(f"endpoint ratio {self.ratio} exceeds 2")


def spectral_interval(s, norm_v: float, c0: float = 0.5) -> SpectralInterval:
    """Find a block [i1, i2] in the top half of the spectrum with
    s[i1]/s[i2] <= 2 and length r = max(1, floor(c0*n / max(1, log2 norm_v))).

    s must be nonincreasing with s[floor(n/2)] >= 1 (1-based), norm_v = s[1].
    The scan walks consecutive length-r blocks from the top; if none
    qualifies it retries at stride one, then fails with PigeonholeError.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError("spectrum must be 1-D")
    n = s.shape[0]
    n_half = n // 2
    if n_half < 2:
        raise ValueError(f"need n >= 4 so that an interval fits in [1, n/2], got n={n}")
    if not (0.0 < c0 <= 0.5):
        raise ValueError(f"c0 must lie in (0, 1/2], got {c0}")
    if np.any(np.diff(s) > 1e-9 * max(s[0], 1.0)):
        raise ValueError("spectrum must be nonincreasing")
    if s[n_half - 1] < 1.0 - 1e-12:
        raise ValueError(f"s[n/2] = {s[n_half - 1]} < 1; spectrum not normalized")
    if norm_v < 1.0 - 1e-12:
        raise ValueError(f"norm_v = {norm_v} < 1")

    denom = max(1.0, math.log2(max(norm_v, 1.0)))
    r = max(1, min(n_half - 1, int(math.floor(c0 * n / denom))))

    # chained blocks first (the pigeonhole argument's own walk), then all
    # remaining offsets so a valid block is never missed
    starts = list(range(1, n_half - r + 1, r))
    starts += [i for i in range(1, n_half - r + 1) if i not in starts]
    for i1 in starts:
        i2 = i1 + r
        ratio = s[i1 - 1] / s[i2 - 1]
        if ratio <= 2.0:
            return SpectralInterval(i1=i1, i2=i2, r=r, ratio=float(ratio))
    raise PigeonholeError(
        f"pigeonhole violated: no length-{r} block with endpoint ratio <= 2 "
        f"inside [1, {n_half}] (norm_v={norm_v}, c0={c0})"
    )

