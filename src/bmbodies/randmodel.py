"""Seeded randomness for the subset model: named substreams, uniform
fixed-size subsets, and random bodies.

All sampling goes through numpy Generators backed by Philox, a
counter-based PRNG with 128-bit state.  A substream is addressed by a
master seed plus a hierarchical name such as "separate/0/body/3"; the name
is hashed into the seed material, so any worker can reconstruct any
stream independently of scheduling order.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies

__all__ = [
    "ModelParams",
    "BodySample",
    "round_half_up",
    "substream",
    "sample_subsets",
    "sample_body",
]


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent generator for (seed, name).

    The name is SHA-256 hashed into 32-bit words that join the master seed
    as entropy for a SeedSequence, so distinct names give statistically
    independent Philox streams and equal names reproduce bit-identically.
    """
    if not (0 <= seed < 2**64):
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 32, 4)]
    ss = np.random.SeedSequence([seed] + words)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the random subset model.

    n is the ambient dimension, delta the subset density, n_subsets the
    number of subsets drawn.  m = round_half_up(delta * n) is the subset
    size.
    """

    n: int
    delta: float
    n_subsets: int
    m: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if self.n_subsets < 1:
            raise ValueError(f"n_subsets must be >= 1, got {self.n_subsets}")
        m = round_half_up(self.delta * self.n)
        if m < 1:
            raise ValueError(
                f"delta*n rounds to {m}; subsets would be empty (n={self.n}, delta={self.delta})"
            )
        object.__setattr__(self, "m", m)


def sample_subsets(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count iid uniform m-subsets as a (count, m) sorted index array.

    Uses the random-keys construction (order statistics of n iid uniforms
    per row), which is exchangeable and hence exactly uniform over
    m-subsets.
    """
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    keys = rng.random((count, n))
    picked = np.argpartition(keys, m - 1, axis=1)[:, :m]
    return np.sort(picked, axis=1).astype(np.int64)


@dataclass(frozen=True)
class BodySample:
    """A sampled hull body together with its subsets and coverage flag."""

    body: object
    subsets: np.ndarray  # (n_subsets, m) sorted indices
    covers_all: bool


def sample_body(params: ModelParams, rng: np.random.Generator) -> BodySample:
    """Draw the subset family and build the model body.

    covers_all reports whether the union of the subsets is the whole
    coordinate set; the theorem conditions on that event (failure
    probability at most n*(1-delta)^n_subsets) but sampling never rejects.
    """
    subsets = sample_subsets(params.n, params.m, params.n_subsets, rng)
    covered = np.zeros(params.n, dtype=bool)
    covered[subsets.ravel()] = True
    # through the module, where bench/tracer.py wraps subset_body
    body = bodies.subset_body(params, subsets)
    return BodySample(body=body, subsets=subsets, covers_all=bool(covered.all()))
