"""Sector geometry behind the anisotropic weights.

The frequency lattice Z^2 is split into four sectors indexed by sign pairs
sigma in {-1, +1}^2.  A quadrant weight assigns each lattice point n the value
exp(<n, v>) where the apex vector v depends only on the sector of n; the
composition operator of a hyperbolic word is bounded on the induced weighted
Fourier space when the word's degree matrix moves each sector strictly inside
the weight's decay region.

The weight has one form, ``QuadrantWeight.log_weight_array``, over integer
arrays of lattice points.  Sector membership is decided on m = P^T n with an
explicit boundary convention (see ``_sigma_arrays``), chosen so that
reindexing n -> A^T n matches replacing the basis P by A P exactly
(including boundary lattice points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

Sigma = Tuple[int, int]

# canonical sector order: the two same-sign sectors first, then the mixed ones
SIGMAS: Tuple[Sigma, ...] = ((-1, -1), (1, 1), (-1, 1), (1, -1))

_KEY_OF_SIGMA = {(-1, -1): "--", (1, 1): "++", (-1, 1): "-+", (1, -1): "+-"}


def sigma_key(sigma: Sigma) -> str:
    """Two-character key ('--', '++', '-+', '+-') used in JSON reports."""
    try:
        return _KEY_OF_SIGMA[tuple(sigma)]
    except KeyError:
        raise ValueError(f"not a sign pair: {sigma!r}") from None


def ell(sigma: Sigma) -> int:
    """Sector parity: +1 for same-sign sectors, -1 for mixed ones."""
    return sigma[0] * sigma[1]


def same_sign_sectors() -> Tuple[Sigma, Sigma]:
    return ((-1, -1), (1, 1))


def mixed_sectors() -> Tuple[Sigma, Sigma]:
    return ((-1, 1), (1, -1))


def _as_basis(basis) -> np.ndarray:
    if basis is None:
        return np.eye(2, dtype=np.int64)
    arr = np.asarray(basis, dtype=np.int64)
    if arr.shape != (2, 2):
        raise ValueError("basis must be a 2x2 integer matrix")
    det = int(arr[0, 0]) * int(arr[1, 1]) - int(arr[0, 1]) * int(arr[1, 0])
    if abs(det) != 1:
        raise ValueError(f"basis must be unimodular, det = {det}")
    return arr


def _sigma_arrays(p: np.ndarray, n1: np.ndarray, n2: np.ndarray):
    """Sector sign pairs (s1, s2) of the lattice points n relative to the basis P.

    The four sectors tile Z^2 with this boundary convention on m = P^T n:
    nonneg quadrant (origin included) -> (-1, -1); nonpos quadrant minus the
    origin -> (+1, +1); fourth quadrant open -> (-1, +1); second quadrant
    open -> (+1, -1).
    """
    m1 = p[0, 0] * n1 + p[1, 0] * n2
    m2 = p[0, 1] * n1 + p[1, 1] * n2
    nonneg = (m1 >= 0) & (m2 >= 0)
    nonpos = (m1 <= 0) & (m2 <= 0) & ~nonneg
    fourth = (m1 > 0) & (m2 < 0)
    s1 = np.where(nonneg | fourth, -1.0, 1.0)
    s2 = np.where(nonneg | nonpos, s1, -s1)
    return s1, s2


def _pair(value, name: str) -> Tuple[float, float]:
    pair = (float(value[0]), float(value[1]))
    if not all(math.isfinite(v) for v in pair):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return pair


@dataclass(frozen=True)
class QuadrantWeight:
    """Sector-wise exponential weight on the frequency lattice.

    Stores the signed apex scales directly: ``d_same`` applies on the two
    same-sign sectors and ``d_mixed`` on the mixed ones; the apex of sector
    sigma is v = P diag(sigma) d.  ``standard(alpha, gamma)`` builds the
    weight that grows like exp(alpha |n|) along the same-sign sectors and
    decays like exp(-gamma |n|) along the mixed ones, which is the form the
    composition operator of a forward-hyperbolic word is compact on.
    """

    basis: Tuple[Tuple[int, int], Tuple[int, int]]
    d_same: Tuple[float, float]
    d_mixed: Tuple[float, float]

    def __init__(self, basis, d_same, d_mixed):
        p = _as_basis(basis)
        object.__setattr__(self, "basis", ((int(p[0, 0]), int(p[0, 1])), (int(p[1, 0]), int(p[1, 1]))))
        object.__setattr__(self, "d_same", _pair(d_same, "d_same"))
        object.__setattr__(self, "d_mixed", _pair(d_mixed, "d_mixed"))

    @classmethod
    def standard(cls, alpha, gamma, basis=None) -> "QuadrantWeight":
        """Weight with growth rates alpha > 0 (same-sign) and decay gamma > 0 (mixed)."""
        alpha = _pair(alpha, "alpha")
        gamma = _pair(gamma, "gamma")
        if min(alpha) <= 0 or min(gamma) <= 0:
            raise ValueError("alpha and gamma must be strictly positive")
        return cls(basis if basis is not None else np.eye(2, dtype=np.int64), alpha, (-gamma[0], -gamma[1]))

    @property
    def alpha(self) -> Tuple[float, float]:
        return self.d_same

    @property
    def gamma(self) -> Tuple[float, float]:
        return (-self.d_mixed[0], -self.d_mixed[1])

    def log_weight_array(self, n1, n2) -> np.ndarray:
        """Log weight <n, P diag(sigma) d> over integer arrays n1, n2.

        sigma is the sector of n under the boundary convention of
        ``_sigma_arrays``, and d is ``d_same`` on the same-sign sectors and
        ``d_mixed`` on the mixed ones.
        """
        p = np.array(self.basis, dtype=np.int64)
        n1 = np.asarray(n1, dtype=np.int64)
        n2 = np.asarray(n2, dtype=np.int64)
        s1, s2 = _sigma_arrays(p, n1, n2)
        same = s1 * s2 > 0
        d1 = np.where(same, self.d_same[0], self.d_mixed[0])
        d2 = np.where(same, self.d_same[1], self.d_mixed[1])
        pf = p.astype(float)
        v1 = pf[0, 0] * s1 * d1 + pf[0, 1] * s2 * d2
        v2 = pf[1, 0] * s1 * d1 + pf[1, 1] * s2 * d2
        return n1 * v1 + n2 * v2


# ---------------------------------------------------------------------------
# Distinguished tori of the sector domains
# ---------------------------------------------------------------------------


def torus_radii(sigma: Sigma, delta, basis=None) -> Tuple[float, float]:
    """Radii of the distinguished torus of the sector domain: exp(P diag(sigma) delta)."""
    if basis is None:
        return (math.exp(sigma[0] * float(delta[0])), math.exp(sigma[1] * float(delta[1])))
    p = _as_basis(basis).astype(float)
    v = p @ np.array([sigma[0] * float(delta[0]), sigma[1] * float(delta[1])])
    return (math.exp(v[0]), math.exp(v[1]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sample_torus(radii, count: int) -> np.ndarray:
    """Low-discrepancy sample of a 2-torus with the given radii.

    Returns a (count, 2) complex array; the angle pairs follow a golden-ratio
    lattice so even modest counts cover the torus without axis-aligned gaps.
    """
    if count < 1:
        raise ValueError("count must be positive")
    j = np.arange(count)
    t1 = 2.0 * math.pi * (j + 0.5) / count
    t2 = 2.0 * math.pi * ((j * _GOLDEN + 0.25) % 1.0)
    out = np.empty((count, 2), dtype=complex)
    out[:, 0] = float(radii[0]) * np.exp(1j * t1)
    out[:, 1] = float(radii[1]) * np.exp(1j * t2)
    return out
