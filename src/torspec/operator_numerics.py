"""Truncated composition-operator matrices on weighted Fourier modes.

The independent verification route: sample the word on a torus grid, take
FFTs of the transformed monomials to get matrix columns in the weighted
basis, and diagonalize the truncation.  Grid resolution is doubled until the
matrix stabilizes, so analytic tails are under control rather than assumed.
Also provides the dual transfer-operator assembly, spectrum bookkeeping
(sorting, matching against closed-form predictions, trace powers), a
Hilbert-Schmidt margin diagnostic, and flat-file export.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .cone_geometry import QuadrantWeight
from .map_algebra import _extended_in, _walk, inverse, orientation

_BAND_LIMIT = 16
_TOL = 1e-8
_MAX_DOUBLINGS = 3


class TruncationSizeError(ValueError):
    """Band too large to assemble without an explicit override.

    Assembly time and memory, not the dense eigensolve, grow fast with the
    band.  For U(1,0.4) . U(1,0.3) at band 16 (2-core machine, one BLAS
    thread) assembly up to grid 256 took 5.8 s and the eigensolve of the
    snapped matrix, 18% nonzero, took 0.09 s.
    """


@dataclass(frozen=True)
class AssembledOperator:
    matrix: np.ndarray
    band: int
    grid: int
    kind: str
    max_change: float
    converged: bool


def _grid_points(grid: int) -> Tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * np.pi * np.arange(grid) / grid
    ring = np.exp(1j * angles)
    return ring[:, None] * np.ones((1, grid)), np.ones((grid, 1)) * ring[None, :]


def _assemble_at_grid(word, weight, band, grid, kind, omega):
    z1, z2 = _grid_points(grid)
    # every atom maps the torus to itself, so no point is ever at infinity here
    values, masks, _ = _extended_in((z1, z2))
    (t1, t2), _, jac = _walk(word, values, masks, jacobian=kind == "transfer")
    symbol = None
    if jac is not None:
        (j11, j12), (j21, j22) = jac
        symbol = omega * (j11 * j22 - j12 * j21) * (z1 * z2) / (t1 * t2)
    width = 2 * band + 1
    modes = np.arange(-band, band + 1)
    log_nu = weight.log_weight_array(
        np.repeat(modes, width), np.tile(modes, width)
    ).reshape(width, width)
    nu = np.exp(log_nu)
    rows = np.ix_(modes % grid, modes % grid)
    matrix = np.empty((width * width, width * width), dtype=complex)
    for i1, n1 in enumerate(modes):
        p1 = t1 ** n1
        for i2, n2 in enumerate(modes):
            values = p1 * t2 ** n2
            if symbol is not None:
                values = values * symbol
            # index first: only (2 band + 1)^2 of the grid^2 coefficients are kept
            col = np.fft.fft2(values)[rows] / grid ** 2 * (nu / nu[i1, i2])
            matrix[:, i1 * width + i2] = col.reshape(-1)
    return matrix


def assemble_operator(
    word,
    weight: QuadrantWeight,
    band: int,
    kind: str = "composition",
    force: bool = False,
) -> AssembledOperator:
    """Matrix of the (transfer or composition) operator on the mode band.

    Modes n with max(|n1|, |n2|) <= band are ordered lexicographically by
    (n1, n2).  The starting grid max(8*band, 64) is doubled, at most three
    times, until the matrix moves by less than 1e-8; a matrix that never
    settles is returned with a warning rather than silently trusted.  Bands
    above 16 need force=True: assembly time and memory grow fast beyond that
    (the dense eigensolve stays cheap).

    Entries smaller than the certified resolution of the doubling pass are
    snapped to exact zero.  Mode-permutation truncations (automorphisms) are
    otherwise drowned in FFT noise that blocks the eigensolver's exact graph
    deflation and smears their nilpotent part into spurious eigenvalues.
    """
    if band < 1:
        raise ValueError("band must be positive")
    if band > _BAND_LIMIT and not force:
        raise TruncationSizeError(
            f"band {band} exceeds {_BAND_LIMIT}: assembly time and memory grow fast "
            "with the band; pass --force (force=True) to assemble it anyway"
        )
    if kind not in ("composition", "transfer"):
        raise ValueError("kind must be 'composition' or 'transfer'")
    omega = orientation(word)
    if kind == "transfer":
        word = inverse(word)
        weight = weight.dual()
    grid = max(8 * band, 64)
    current = _assemble_at_grid(word, weight, band, grid, kind, omega)
    max_change = np.inf
    converged = False
    for _ in range(_MAX_DOUBLINGS):
        grid *= 2
        refined = _assemble_at_grid(word, weight, band, grid, kind, omega)
        max_change = float(np.max(np.abs(refined - current)))
        current = refined
        if max_change < _TOL:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"operator matrix still moving by {max_change:.3e} at grid {grid}",
            RuntimeWarning,
        )
    floor = min(max(1e-13, 2.0 * max_change if converged else 0.0), _TOL)
    current[np.abs(current) < floor] = 0.0
    return AssembledOperator(current, band, grid, kind, max_change, converged)


# ---------------------------------------------------------------------------
# Spectrum bookkeeping
# ---------------------------------------------------------------------------


def _sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    args = np.mod(np.angle(values), 2.0 * np.pi)
    order = np.lexsort((values.imag, values.real, args, -np.abs(values)))
    return values[order]


def operator_spectrum(operator) -> np.ndarray:
    """Eigenvalues of an assembled operator, largest modulus first."""
    matrix = operator.matrix if isinstance(operator, AssembledOperator) else np.asarray(operator)
    return _sort_eigenvalues(np.linalg.eigvals(matrix))


def numeric_trace_power(operator, k: int) -> complex:
    matrix = operator.matrix if isinstance(operator, AssembledOperator) else np.asarray(operator)
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    return complex(np.trace(np.linalg.matrix_power(matrix, int(k))))


@dataclass(frozen=True)
class MatchReport:
    pairs: Tuple[Tuple[complex, complex, float], ...]
    unmatched_predicted: Tuple[complex, ...]
    unmatched_computed: Tuple[complex, ...]
    max_rel_err: float


def match_spectra(predicted, computed, floor: float = 0.0) -> MatchReport:
    """Greedily pair predicted eigenvalues with computed ones.

    `predicted` is a sequence of enumeration entries (value, multiplicity) or
    bare complex numbers; values of modulus below `floor` are ignored on the
    predicted side and reported unmatched on the computed side.  Pairing runs
    through predictions by decreasing modulus, each taking the closest
    still-unused computed eigenvalue.
    """
    flat: list = []
    for item in predicted:
        if hasattr(item, "multiplicity"):
            flat.extend([complex(item.value)] * item.multiplicity)
        else:
            flat.append(complex(item))
    flat = [v for v in flat if abs(v) >= floor]
    flat.sort(key=lambda v: -abs(v))
    pool = list(np.asarray(computed, dtype=complex))
    pairs = []
    missing = []
    worst = 0.0
    for p in flat:
        if not pool:
            missing.append(p)
            continue
        dist = [abs(p - c) for c in pool]
        i = int(np.argmin(dist))
        c = pool.pop(i)
        rel = abs(p - c) / max(abs(p), 1e-300)
        worst = max(worst, rel)
        pairs.append((p, c, rel))
    leftovers = tuple(c for c in pool if abs(c) >= floor)
    return MatchReport(tuple(pairs), tuple(missing), leftovers, worst)


def hs_margin(weight: QuadrantWeight, matrix, band: int = 60) -> float:
    """Largest per-mode growth rate of the mode-permutation column weights.

    For the automorphism with integer matrix `matrix`, mode n is sent to
    matrix^T n and the matrix entry has modulus nu(matrix^T n)/nu(n); the
    truncation-independent Hilbert-Schmidt criterion is that the maximum over
    nonzero modes of log of that ratio per unit L1 norm stays negative.
    """
    m = np.asarray(matrix, dtype=np.int64)
    if m.shape != (2, 2):
        raise ValueError("matrix must be 2x2")
    modes = np.arange(-band, band + 1)
    n1 = np.repeat(modes, modes.size)
    n2 = np.tile(modes, modes.size)
    keep = (n1 != 0) | (n2 != 0)
    n1, n2 = n1[keep], n2[keep]
    image1 = m[0, 0] * n1 + m[1, 0] * n2
    image2 = m[0, 1] * n1 + m[1, 1] * n2
    phi = weight.log_weight_array(image1, image2) - weight.log_weight_array(n1, n2)
    return float(np.max(phi / (np.abs(n1) + np.abs(n2))))


# ---------------------------------------------------------------------------
# Flat-file export
# ---------------------------------------------------------------------------


def write_spectrum_csv(path, values: Sequence[complex], plot_data: bool = False) -> None:
    """Spectrum as CSV; plot_data adds rank/sqrt-rank/-log columns instead.

    `path` may also be an open text stream.
    """
    values = np.asarray(values, dtype=complex)
    if hasattr(path, "write"):
        _spectrum_rows(path, values, plot_data)
    else:
        with open(path, "w") as fh:
            _spectrum_rows(fh, values, plot_data)


def _spectrum_rows(fh, values, plot_data: bool) -> None:
    if plot_data:
        fh.write("index,modulus,sqrt_index,neglog\n")
        for i, v in enumerate(values, start=1):
            mod = abs(v)
            neglog = -np.log(mod) + 0.0 if mod > 0.0 else np.inf
            fh.write("%d,%.17g,%.17g,%.17g\n" % (i, mod, np.sqrt(float(i)), neglog))
    else:
        fh.write("re,im,modulus\n")
        for v in values:
            fh.write("%.17g,%.17g,%.17g\n" % (v.real, v.imag, abs(v)))
