"""Truncated composition-operator matrices on weighted Fourier modes.

The independent verification route: sample the word on a torus grid, take
the band's discrete Fourier coefficients of the transformed monomials (two
small DFT-matrix products per row block of the grid) to get matrix columns
in the weighted basis, and diagonalize the truncation.  Grid resolution is
doubled until the matrix stabilizes, so analytic tails are under control
rather than assumed.
Also provides the dual transfer-operator assembly, spectrum bookkeeping
(sorting, matching against closed-form predictions, trace powers) and
flat-file export.
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
# relative modulus difference below which two eigenvalues sort as tied
_TIE_REL = 1e-12
_MAX_DOUBLINGS = 3
# grid points walked at once; fixes the assembly's working memory
_BLOCK_POINTS = 1 << 15


class TruncationSizeError(ValueError):
    """Band too large to assemble without an explicit override.

    Assembly time and memory, not the dense eigensolve, grow fast with the
    band.  For U(1,0.4) . U(1,0.3) at band 16 (2-core machine, one BLAS
    thread) assembly up to grid 256 took 0.7 s and the eigensolve of the
    snapped matrix, 18% nonzero, took 0.1 s.
    """


@dataclass(frozen=True)
class AssembledOperator:
    matrix: np.ndarray
    band: int
    grid: int
    kind: str
    max_change: float
    converged: bool


def _grid_points(grid: int, rows: slice = slice(None)) -> Tuple[np.ndarray, np.ndarray]:
    """The torus grid's coordinate arrays, restricted to a slice of its rows."""
    angles = 2.0 * np.pi * np.arange(grid) / grid
    ring = np.exp(1j * angles)
    z1 = ring[rows, None] * np.ones((1, grid))
    return z1, np.ones((z1.shape[0], 1)) * ring[None, :]


def _accumulate(matrix, columns, v, ratio, left, right):
    """Add the band coefficients of v, v ratio, v ratio^2, ... to the columns; v is overwritten."""
    for i, column in enumerate(columns):
        if i:
            v *= ratio
        matrix[:, column] += (left @ (v @ right)).reshape(-1)


def _assemble_at_grid(word, weight, band, grid, kind, omega):
    """Band Fourier coefficients of the transformed monomials at one grid.

    Column n holds the coefficients k of V_n = s t1^n1 t2^n2, where t =
    word(z) on the grid; the symbol s is 1 for `composition` and, for
    `transfer`, omega times the Jacobian determinant of the word in angle
    coordinates (`assemble_operator` passes the inverse word).  They
    are E V_n E^T / grid^2 with E[k, x] = exp(-2 pi i k x / grid), a sum
    over grid rows, so the grid is walked in blocks of about _BLOCK_POINTS
    points and only the band's coefficients are ever formed.  Both kinds sum
    only the columns n >= 0 (lexicographically) and mirror the rest.
    """
    width = 2 * band + 1
    modes = np.arange(-band, band + 1)
    dft = np.exp(-2j * np.pi * (np.outer(modes, np.arange(grid)) % grid) / grid)
    matrix = np.zeros((width * width, width * width), dtype=complex)
    step = max(1, _BLOCK_POINTS // grid)
    for start in range(0, grid, step):
        rows = slice(start, min(start + step, grid))
        z1, z2 = _grid_points(grid, rows)
        # every atom maps the torus to itself, so no point is ever at infinity here
        values, masks, _ = _extended_in((z1, z2))
        (t1, t2), _, jac = _walk(word, values, masks, jacobian=kind == "transfer")
        # powers by recurrence outward from the symbol: exact ones for
        # `composition`, so that its column 0 is the exact constant
        p1 = np.ones_like(t1)
        if jac is not None:
            (j11, j12), (j21, j22) = jac
            # the determinant of the real lifted derivative; rounding is all
            # that makes its imaginary part nonzero
            p1.real = (omega * (j11 * j22 - j12 * j21) * (z1 * z2) / (t1 * t2)).real
        left, right = dft[:, rows], dft.T
        t2_inverse = np.conj(t2)
        v = np.empty_like(t1)
        for n1 in range(band + 1):
            if n1:
                p1 *= t1
            column = (n1 + band) * width + band  # mode (n1, 0)
            np.copyto(v, p1)
            _accumulate(matrix, range(column, column + band + 1), v, t2, left, right)
            if n1:
                np.multiply(p1, t2_inverse, out=v)
                _accumulate(
                    matrix, range(column - 1, column - band - 1, -1), v, t2_inverse,
                    left, right,
                )
    # t^-1 = conj(t) on the torus and the symbol is real there, so V_-n =
    # conj(V_n) and coefficient k of column -n is conj(coefficient -k of
    # column n): the columns before mode (0, 0) are mirrored from those after
    centre = width * width // 2
    np.conjugate(matrix[::-1, :centre:-1], out=matrix[:, :centre])
    matrix /= grid ** 2
    nu = np.exp(weight.log_weight_array(np.repeat(modes, width), np.tile(modes, width)))
    matrix *= nu[:, None]
    matrix /= nu
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
    settles is returned with a warning rather than silently trusted.  Each
    grid computes only the band's coefficients, walking the grid in row
    blocks of a fixed size, so a pass costs about (2 band + 1)^3 grid^2
    complex multiply-adds and holds the matrix plus one block.  Bands above
    16 need force=True: assembly time grows like band^5 and the matrix like
    band^4 (the dense eigensolve stays cheap).

    Entries smaller than the certified resolution of the doubling pass are
    snapped to exact zero.  Mode-permutation truncations (automorphisms) are
    otherwise drowned in rounding noise that blocks the eigensolver's exact
    graph deflation and smears their nilpotent part into spurious eigenvalues.
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
        current -= refined
        max_change = float(np.max(np.abs(current)))
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
    """Largest modulus first; a modulus tie is ordered by argument in [0, 2 pi).

    Moduli within a relative _TIE_REL of the largest one not yet placed tie
    with it, so rounding noise in the last bits cannot swap the members of a
    conjugate pair.  An imaginary part below _TIE_REL |v| counts as zero, so
    a near-real value has argument 0 or pi rather than almost 2 pi.
    """
    moduli = np.abs(values)
    group = np.empty(values.size, dtype=np.int64)
    count, lead = -1, 0.0
    for i in np.argsort(-moduli, kind="stable"):
        if count < 0 or lead - moduli[i] > _TIE_REL * lead:
            count, lead = count + 1, moduli[i]
        group[i] = count
    imag = np.where(np.abs(values.imag) < _TIE_REL * moduli, 0.0, values.imag)
    args = np.mod(np.arctan2(imag, values.real), 2.0 * np.pi)
    return values[np.lexsort((values.imag, values.real, args, group))]


def operator_spectrum(operator) -> np.ndarray:
    """Eigenvalues of an assembled operator: largest modulus first, ties by argument."""
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
