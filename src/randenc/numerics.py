"""Dense linear algebra, seeded initialization, and elementwise math shared by the encoders.

Everything is float64 end to end. The random source is pinned to numpy's
PCG64 so that a (seed, documented draw order) pair fully determines every
encoder's parameters.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "SeededRng",
    "uniform_init",
    "xavier_uniform_init",
    "softmax_rows",
    "layer_norm",
    "SpectralRadiusEstimate",
    "spectral_radius",
    "sigmoid",
]

LAYER_NORM_EPS = 1e-5


class SeededRng:
    """Seeded random source (numpy PCG64, pinned).

    Two instances built from the same seed yield identical draw sequences.
    Encoder builders consume draws in a documented order, so a
    (kind, seed, dims, hyperparameters) tuple reconstructs weights
    bit-exactly. An instance is single-owner: never share one across
    concurrent tasks.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        """Uniform draw, cells filled in C (row-major) order."""
        return self._gen.uniform(low, high, size=shape)

    def bernoulli_mask(self, shape, density: float) -> np.ndarray:
        """Boolean mask, True with probability ``density``; one draw per cell."""
        return self._gen.random(size=shape) < density

    def permutation(self, n: int) -> np.ndarray:
        """Shuffled arange(n)."""
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        """Integer draws in [low, high)."""
        return self._gen.integers(low, high, size=shape)


def uniform_init(rng: SeededRng, rows: int, cols: int, d: int) -> np.ndarray:
    """Matrix with entries uniform in [-1/sqrt(d), 1/sqrt(d)], d = fan-in."""
    if d < 1:
        raise ValueError(f"invalid fan-in d={d}; need d >= 1")
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid shape {rows}x{cols}; need rows, cols >= 1")
    bound = 1.0 / math.sqrt(d)
    return rng.uniform(-bound, bound, (rows, cols))


def xavier_uniform_init(rng: SeededRng, rows: int, cols: int) -> np.ndarray:
    """Matrix with entries uniform in +-sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"invalid shape {rows}x{cols}; need rows, cols >= 1")
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, (rows, cols))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-d array (attention weights); unchecked,
    shift-invariant per row."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def layer_norm(v) -> np.ndarray:
    """Normalize the last axis to zero mean and unit population variance.

    Gain is 1 and bias is 0; eps sits inside the square root, so constant
    input maps to exact zeros.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("layer_norm expects a non-empty input")
    centred = v - v.mean(axis=-1, keepdims=True)
    var = (centred**2).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LAYER_NORM_EPS)


class SpectralRadiusEstimate(NamedTuple):
    value: float
    iterations: int  # always 0; kept because the perfbench tracer reads it


def spectral_radius(m) -> SpectralRadiusEstimate:
    """Largest eigenvalue modulus of a square matrix, from the dense
    eigensolver (LAPACK via np.linalg.eigvals)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("spectral_radius needs a non-empty matrix")
    return SpectralRadiusEstimate(float(np.max(np.abs(np.linalg.eigvals(m)))), 0)


def sigmoid(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), overflow-safe for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)
