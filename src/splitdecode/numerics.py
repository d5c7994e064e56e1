"""Seeded float64 matrices and stable softmax statistics.

Matrices are plain 2-D ``numpy.ndarray`` objects of dtype float64.
Randomness comes from ``philox_rng``: numpy's Philox 4x64 counter-based
generator seeded through ``SeedSequence``, which gives identical streams
on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "EmptyPartitionError",
    "SoftmaxStats",
    "philox_rng",
    "seeded_matrix",
    "stable_softmax_stats",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class EmptyPartitionError(ValueError):
    """An operation that needs at least one score/row got none."""


def philox_rng(seed) -> np.random.Generator:
    """The package's one random generator: Philox 4x64 keyed via
    SeedSequence(seed), seed being an int or a list of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def seeded_matrix(seed: int, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic rows x cols matrix of N(0, scale^2) entries.

    Stream: Philox 4x64 keyed via SeedSequence(seed); the same seed yields
    the same matrix on any platform. scale=0 gives the zero matrix.
    """
    if rows < 0 or cols < 0:
        raise DimensionError("matrix dimensions must be non-negative")
    return philox_rng(seed).standard_normal((rows, cols)) * float(scale)


@dataclass(frozen=True)
class SoftmaxStats:
    """Stable softmax of a score vector plus its merge-relevant statistics.

    gamma is the softmax denominator relative to the running max m:
    gamma = sum(exp(s_i - m)). weights sum to 1.
    """

    weights: np.ndarray
    gamma: float
    m: float


def stable_softmax_stats(scores) -> SoftmaxStats:
    """Softmax weights, denominator gamma and max m, overflow-safe.

    Raises EmptyPartitionError for an empty score vector; callers that
    partition scores handle that case via their own sentinel.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise EmptyPartitionError("cannot take softmax statistics of zero scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    m = float(np.max(s))
    e = np.exp(s - m)
    gamma = float(np.sum(e))
    return SoftmaxStats(weights=e / gamma, gamma=gamma, m=m)
