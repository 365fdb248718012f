"""Sector fixed points and their multipliers.

Each of the four sign sectors carries one distinguished fixed point of the
word (forward word on the same-sign sectors, inverse word on the mixed ones;
the square of the map when the classification is reflecting).  The points may
have coordinates 0 or infinity, and orbits converging to them may pass
through infinity, so everything here runs in per-coordinate projective
charts: coordinate i stores either z_i (chart bit 0) or 1/z_i (chart bit 1),
whichever has modulus at most one.  Every generator atom acts on stored
values with an exact finite derivative in these charts, which removes all
0 * inf chain-rule breakdowns; the multipliers are read off the composed
chart Jacobian, whose eigenvalues agree with the intrinsic multipliers of
the fixed point.

The chart engine is the chart column of the word interpreter
(`map_algebra._ACTIONS`); this module only builds its states and iterates.
The column runs on Python complex scalars, not on the arrays `_walk` uses.
numpy's complex multiply and divide round differently from Python's: on
20000 random pairs from the unit box, 9265 products and 8664 quotients
differed in their last bits (numpy 2.4).  Running the engine on arrays would
move the last digits of every multiplier, and with them every reported
eigenvalue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cone_geometry import SIGMAS, ell as sector_parity
from .dynamics_checks import CertificationError, MappingCase, resolve_cases
from .map_algebra import (
    _CHART,
    INF,
    MapWord,
    _interpret,
    _Walk,
    inverse,
    simplify,
    word_power,
)


class FixedPointError(RuntimeError):
    """The orbit did not settle on a fixed point at the required accuracy."""


@dataclass(frozen=True)
class FixedPointRecord:
    """One sector's fixed point.

    ``point`` is in the original coordinates (components may be 0 or INF).
    ``multipliers`` are the derivative eigenvalues of the map the point is
    fixed under: the word itself (ell=+1) or its inverse (ell=-1), squared
    when the case is "ER".
    """

    sigma: Tuple[int, int]
    ell: int
    case: str
    point: tuple
    multipliers: Tuple[complex, complex]
    residual: float


@dataclass(frozen=True)
class FixedPointData:
    records: Tuple[FixedPointRecord, ...]
    cases: MappingCase

    def record(self, sigma) -> FixedPointRecord:
        sigma = (int(sigma[0]), int(sigma[1]))
        for rec in self.records:
            if rec.sigma == sigma:
                return rec
        raise KeyError(f"no record for sector {sigma}")


# ---------------------------------------------------------------------------
# Chart passes
# ---------------------------------------------------------------------------

_STEP_TOL = 1e-14
_RESIDUAL_TOL = 1e-12
_MAX_ITER = 200


def _chart_pass(word: MapWord, start: _Walk, jacobian: bool) -> _Walk:
    """The state one pass of the word takes `start` to, with its Jacobian if asked."""
    jac = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)] if jacobian else None
    state = _Walk(list(start.w), list(start.inf), jac)
    _interpret(state, word.atoms, _CHART)
    return state


def _extended(state: _Walk) -> tuple:
    """The state's point in extended coordinates (components may be 0 or INF)."""
    return tuple(v if b == 0 else (INF if v == 0 else 1 / v) for v, b in zip(state.w, state.inf))


def _chordal(v1: complex, b1: int, v2: complex, b2: int) -> float:
    # projective pairs (a : b); the chordal metric is chart-independent
    a1, a2 = (v1, 1 + 0j) if b1 == 0 else (1 + 0j, v1)
    c1, c2 = (v2, 1 + 0j) if b2 == 0 else (1 + 0j, v2)
    num = abs(a1 * c2 - a2 * c1)
    den = math.sqrt((abs(a1) ** 2 + abs(a2) ** 2) * (abs(c1) ** 2 + abs(c2) ** 2))
    return num / den


def _state_distance(s1: _Walk, s2: _Walk) -> float:
    return max(_chordal(s1.w[i], s1.inf[i], s2.w[i], s2.inf[i]) for i in (0, 1))


def _reconcile_charts(end: _Walk, start: _Walk) -> None:
    """Flip end charts back to the start charts where the boundary allows it."""
    for i in (0, 1):
        if end.inf[i] == start.inf[i]:
            continue
        v = end.w[i]
        if abs(abs(v) - 1.0) > 1e-6 or v == 0:
            raise FixedPointError(
                "orbit returned in a different chart away from the unit circle"
            )
        if end.jac is not None:
            end.jac[i] *= -1.0 / (v * v)
        end.w[i] = 1 / v
        end.inf[i] ^= 1


def _eigenpair(jac) -> Tuple[complex, complex]:
    (j11, j12), (j21, j22) = jac
    tr = complex(j11 + j22)
    det = complex(j11 * j22 - j12 * j21)
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    if abs(tr + disc) >= abs(tr - disc):
        big = (tr + disc) / 2.0
    else:
        big = (tr - disc) / 2.0
    if big == 0:
        return (0j, 0j)
    return (big, det / big)


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def _case_for_sector(cases: MappingCase, sigma) -> Tuple[int, str]:
    lvl = sector_parity(sigma)
    entry = cases.forward if lvl == 1 else cases.backward
    if entry.case not in ("EP", "ER"):
        raise CertificationError(f"no certified case for sector {sigma}")
    return lvl, entry.case


def _reduced_power(word, lvl: int, case: str) -> MapWord:
    """The simplified map one sector direction iterates: the word or its inverse, squared if the case is "ER"."""
    active = word if lvl == 1 else inverse(word)
    return simplify(word_power(active, 1 if case == "EP" else 2))


def sector_fixed_point(word, sigma, cases: MappingCase) -> FixedPointRecord:
    """Locate the fixed point of one sector and compute its multipliers.

    The active map is the word for a same-sign sector, the inverse word for a
    mixed one, squared if the certified case is "ER".  It is iterated from
    the sector's corner, stored as 0 in the chart that holds it;
    hyperbolicity certified by the case entry makes that orbit converge.  The
    Jacobian of one final pass in the chart coordinates gives the multipliers.
    """
    sigma = (int(sigma[0]), int(sigma[1]))
    if sigma not in SIGMAS:
        raise ValueError(f"not a sign sector: {sigma!r}")
    lvl, case = _case_for_sector(cases, sigma)
    return _sector_record(_reduced_power(word, lvl, case), sigma, lvl, case)


def _sector_record(reduced: MapWord, sigma, lvl: int, case: str) -> FixedPointRecord:
    """`sector_fixed_point` of the sector's simplified active map `reduced`."""
    state = _Walk([0j, 0j], [(1 + sigma[0]) // 2, (1 + sigma[1]) // 2], None)
    converged = False
    for _ in range(_MAX_ITER):
        nxt = _chart_pass(reduced, state, jacobian=False)
        step = _state_distance(nxt, state)
        state = nxt
        if step < _STEP_TOL:
            converged = True
            break
    if not converged:
        raise FixedPointError(
            f"no convergence for sector {sigma} after {_MAX_ITER} iterations"
        )

    final = _chart_pass(reduced, state, jacobian=True)
    _reconcile_charts(final, state)
    residual = _state_distance(final, state)
    if residual > _RESIDUAL_TOL:
        raise FixedPointError(
            f"fixed-point residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e} "
            f"for sector {sigma}"
        )

    multipliers = _eigenpair(final.jac)
    return FixedPointRecord(sigma, lvl, case, _extended(final), multipliers, residual)


def all_fixed_point_data(word, cases: Optional[MappingCase] = None) -> FixedPointData:
    """Fixed-point records for all four sectors, in the canonical sector order.

    Each direction's active map is simplified once, for both of its sectors.
    """
    if cases is None:
        cases = resolve_cases(word)
    reduced = {}
    records = []
    for sigma in SIGMAS:
        lvl, case = _case_for_sector(cases, sigma)
        if lvl not in reduced:
            reduced[lvl] = _reduced_power(word, lvl, case)
        records.append(_sector_record(reduced[lvl], sigma, lvl, case))
    return FixedPointData(tuple(records), cases)


def _conj_inv(value):
    if value is INF:
        return 0j
    if value == 0:
        return INF
    return (1 / value).conjugate()


def _point_deviation(p, q) -> float:
    out = 0.0
    for a, b in zip(p, q):
        va, ba = (a, 0) if a is not INF else (0j, 1)
        vb, bb = (b, 0) if b is not INF else (0j, 1)
        out = max(out, _chordal(va, ba, vb, bb))
    return out


def _multiset_deviation(xs, ys) -> float:
    direct = max(abs(xs[0] - ys[0]), abs(xs[1] - ys[1]))
    crossed = max(abs(xs[0] - ys[1]), abs(xs[1] - ys[0]))
    return min(direct, crossed)


def verify_conjugate_pairs(data: FixedPointData, tol: float = 1e-10) -> float:
    """Check the reflection pairing between opposite sectors.

    For the non-reflecting case the fixed points of opposite sectors are
    related by coordinatewise conj(1/z) (with 0 and infinity exchanged) and
    the multipliers by complex conjugation.  Returns the largest deviation;
    raises ValueError if it exceeds tol, or if either direction is a
    reflecting ("ER") case, where the pairing does not apply.
    """
    worst = 0.0
    for sa, sb in (((-1, -1), (1, 1)), ((-1, 1), (1, -1))):
        ra = data.record(sa)
        rb = data.record(sb)
        if ra.case != "EP" or rb.case != "EP":
            raise ValueError(
                "conjugate pairing applies to the non-reflecting case only"
            )
        reflected = tuple(_conj_inv(v) for v in rb.point)
        worst = max(worst, _point_deviation(ra.point, reflected))
        conj_mults = tuple(m.conjugate() for m in rb.multipliers)
        worst = max(worst, _multiset_deviation(ra.multipliers, conj_mults))
    if worst > tol:
        raise ValueError(f"conjugate-pair deviation {worst:.3e} exceeds {tol:.0e}")
    return worst
