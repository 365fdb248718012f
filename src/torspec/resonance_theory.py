"""Closed-form resonance spectra from fixed-point multipliers.

A certified hyperbolic word contributes resonances through two families: the
attracting fixed point of the word itself (same-sign sectors) and the
attracting fixed point of the inverse word (mixed sectors).  With contracting
multiplier pairs lambda and mu at those points, the composition operator on a
compatible quadrant-weighted space has eigenvalue 1, monomial products of the
lambda's over nonnegative lattice exponents, and orientation-signed monomial
products of the mu's over strictly positive exponents; reflecting ("ER")
classifications replace a family by plus/minus square roots.  Everything
downstream of that description is exact bookkeeping: enumeration with a
cutoff, trace formulas, a truncated spectral determinant with a tail bound,
polynomial decay exponents, and the eigenvalue counting function.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .cone_geometry import QuadrantWeight
from .dynamics_checks import MappingCase
from .fixed_points import FixedPointData, all_fixed_point_data
from .map_algebra import orientation
from .operator_numerics import _TIE_REL, _sort_order

_GROUP_TOL = 1e-12
_MAX_ENUMERATED = 2_000_000


@dataclass(frozen=True)
class SpectrumModel:
    """Everything the closed-form spectrum depends on.

    ``same_sign_multipliers`` belong to the sector (-1, -1) fixed point of the
    word (its square in the reflecting case), ``mixed_multipliers`` to the
    sector (-1, +1) fixed point of the inverse word (ditto).  Both pairs must
    be strictly contracting.
    """

    omega: int
    forward_case: str
    backward_case: str
    same_sign_multipliers: Tuple[complex, complex]
    mixed_multipliers: Tuple[complex, complex]

    def __post_init__(self):
        if self.omega not in (1, -1):
            raise ValueError("omega must be +1 or -1")
        for name in ("forward_case", "backward_case"):
            if getattr(self, name) not in ("EP", "ER"):
                raise ValueError(f"{name} must be 'EP' or 'ER'")
        for pair_name in ("same_sign_multipliers", "mixed_multipliers"):
            pair = tuple(complex(v) for v in getattr(self, pair_name))
            if max(abs(v) for v in pair) >= 1.0:
                raise ValueError(f"{pair_name} must be strictly contracting")
            object.__setattr__(self, pair_name, pair)


@dataclass(frozen=True)
class EigenvalueEntry:
    value: complex
    multiplicity: int


def spectrum_model_from_word(word, cases: Optional[MappingCase] = None) -> SpectrumModel:
    """Build the spectrum model from numerically located sector fixed points."""
    data = all_fixed_point_data(word, cases=cases)
    return spectrum_model_from_fixed_points(data, orientation(word))


def spectrum_model_from_fixed_points(data: FixedPointData, omega: int) -> SpectrumModel:
    return SpectrumModel(
        omega=omega,
        forward_case=data.cases.forward.case,
        backward_case=data.cases.backward.case,
        same_sign_multipliers=data.record((-1, -1)).multipliers,
        mixed_multipliers=data.record((-1, 1)).multipliers,
    )


# ---------------------------------------------------------------------------
# Closed forms for the twisted-shear family
# ---------------------------------------------------------------------------


def _psi_subproducts(ks: Sequence[int], params: Sequence[complex]) -> Tuple[complex, complex]:
    odd = 1 + 0j
    even = 1 + 0j
    for i, (k, a) in enumerate(zip(ks, params), start=1):
        if i % 2 == 1:
            odd *= complex(a) ** int(k)
        else:
            even *= complex(a) ** int(k)
    return odd, even


def psi_cases(n: int, s: int) -> Tuple[str, str]:
    """Forward and backward classification of the n-block twisted-shear word."""
    forward = "EP" if s == 0 else "ER"
    backward = "EP" if (n + s) % 2 == 0 else "ER"
    return forward, backward


def closed_form_multipliers_psi(
    ks: Sequence[int], params: Sequence[complex], s: int = 0
) -> Dict[Tuple[int, int], Tuple[complex, complex]]:
    """Sector multipliers of the twisted-shear word, without any iteration.

    Between the odd-index and even-index exponent subproducts P_o and P_e the
    four sectors split into four regimes by the parity of the block count and
    the antipode flag; reflecting sectors store the multipliers of the squared
    map.  Validated against the chart-engine fixed points.
    """
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    n = len(ks)
    if n == 0 or len(params) != n:
        raise ValueError("need equally many exponents and parameters")
    po, pe = _psi_subproducts(ks, params)
    out: Dict[Tuple[int, int], Tuple[complex, complex]] = {}
    if s == 0 and n % 2 == 1:
        v = cmath.sqrt(po * pe)
        out[(-1, -1)] = (v, -v)
        out[(1, 1)] = (v.conjugate(), -v.conjugate())
        mixed = (po * pe, (po * pe).conjugate())
        out[(-1, 1)] = mixed
        out[(1, -1)] = mixed
    elif s == 0:
        out[(-1, -1)] = (po, pe)
        out[(1, 1)] = (po.conjugate(), pe.conjugate())
        out[(-1, 1)] = (po.conjugate(), pe)
        out[(1, -1)] = (po, pe.conjugate())
    elif n % 2 == 1:
        same = (po.conjugate() * pe, po * pe.conjugate())
        out[(-1, -1)] = same
        out[(1, 1)] = same
        w = cmath.sqrt(po * pe.conjugate())
        out[(-1, 1)] = (w, -w)
        out[(1, -1)] = (w.conjugate(), -w.conjugate())
    else:
        pair = (abs(po) ** 2 + 0j, abs(pe) ** 2 + 0j)
        for sigma in ((-1, -1), (1, 1), (-1, 1), (1, -1)):
            out[sigma] = pair
    return out


def spectrum_model_psi(ks: Sequence[int], params: Sequence[complex], s: int = 0) -> SpectrumModel:
    """Closed-form spectrum model of the twisted-shear word."""
    mults = closed_form_multipliers_psi(ks, params, s)
    forward, backward = psi_cases(len(ks), s)
    return SpectrumModel(
        omega=(-1) ** len(ks),
        forward_case=forward,
        backward_case=backward,
        same_sign_multipliers=mults[(-1, -1)],
        mixed_multipliers=mults[(-1, 1)],
    )


# ---------------------------------------------------------------------------
# Eigenvalue enumeration
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """Monomials pair[0]^n1 pair[1]^n2 and their conjugates ("EP"), or their
    plus/minus square roots ("ER").  ``omega`` signs the EP values (None: no
    sign); exponents run over n1, n2 >= 1 if ``positive_only``, else over the
    nonnegative lattice without the origin."""

    pair: Tuple[complex, complex]
    case: str
    omega: Optional[int]
    positive_only: bool

    @property
    def moduli(self) -> Tuple[float, float]:
        """Moduli whose monomials give the family's eigenvalue moduli."""
        r1, r2 = (abs(v) for v in self.pair)
        if self.case == "ER":
            r1, r2 = math.sqrt(r1), math.sqrt(r2)
        return r1, r2


def _families(model: SpectrumModel) -> Tuple[_Family, _Family]:
    """The same-sign family of the word, then the mixed family of its inverse."""
    return (
        _Family(model.same_sign_multipliers, model.forward_case, None, False),
        _Family(model.mixed_multipliers, model.backward_case, model.omega, True),
    )


def _lattice_values(pair, threshold: float, positive_only: bool) -> List[complex]:
    """Products c1^n1 c2^n2 with modulus >= threshold (exponents as in `_Family`)."""
    c1, c2 = pair
    r1, r2 = abs(c1), abs(c2)
    eff = threshold * (1.0 - _TIE_REL)
    out: List[complex] = []
    if positive_only and (r1 == 0.0 or r2 == 0.0):
        return out
    start = 1 if positive_only else 0
    n1 = start
    while True:
        lead = c1 ** n1
        if abs(lead) < eff:
            break
        n2 = start
        value = lead * c2 ** n2
        while abs(value) >= eff:
            if not (n1 == 0 and n2 == 0):
                out.append(value)
                if len(out) > _MAX_ENUMERATED:
                    raise ValueError("cutoff enumerates too many eigenvalues")
            n2 += 1
            if r2 == 0.0:
                break
            value = lead * c2 ** n2
        n1 += 1
        if r1 == 0.0:
            break
    return out


def _snap(values: List[complex]) -> np.ndarray:
    """The values with each part below a relative 5e-13 of the modulus set to 0.0.

    A relative snap collapses conjugate-pair noise without flattening the
    tail.  The modulus is `np.hypot` of the parts, as `abs` of a Python
    complex is, and the parts are stored apart, so each kept part and the
    sign of its zero stay as they were.
    """
    values = np.array(values, dtype=complex).reshape(-1)
    re, im = values.real, values.imag
    scale = np.hypot(re, im)
    snapped = np.empty_like(values)
    snapped.real = np.where(np.abs(re) < 5e-13 * scale, 0.0, re)
    snapped.imag = np.where(np.abs(im) < 5e-13 * scale, 0.0, im)
    return snapped


def enumerate_eigenvalues(model: SpectrumModel, cutoff: float) -> Tuple[EigenvalueEntry, ...]:
    """All predicted eigenvalues of modulus >= cutoff, grouped with multiplicity.

    The list starts with the simple eigenvalue 1; the rest are ordered as
    `operator_spectrum` orders a computed spectrum: by decreasing modulus,
    moduli within a relative 1e-12 tied and a tie ordered by argument in
    [0, 2*pi).  A value closer than a relative 1e-12 to an entry of its
    modulus-tie group is then merged into that entry, so rounding noise
    never splits the copies of one eigenvalue, even where they straddle the
    argument seam at 0 and so are not adjacent.
    """
    if not (0.0 < cutoff <= 1.0):
        raise ValueError("cutoff must lie in (0, 1]")
    values: List[complex] = []
    for fam in _families(model):
        if fam.case == "EP":
            for v in _lattice_values(fam.pair, cutoff, fam.positive_only):
                w = v.conjugate()
                if fam.omega is not None:
                    # sign only a signed family: 1 * v can flip a signed zero
                    v, w = fam.omega * v, fam.omega * w
                values += (v, w)
        else:
            for v in _lattice_values(fam.pair, cutoff * cutoff, fam.positive_only):
                w = cmath.sqrt(v)
                values += (w, -w)

    snapped = _snap(values)
    order, groups = _sort_order(snapped)
    merged, counts = [1.0 + 0j], [1]
    current, start = -1, 1
    for v, group in zip(snapped[order].tolist(), groups[order].tolist()):
        if group != current:
            current, start = group, len(merged)
        # the first entry of the tie group within the tolerance: two values
        # that close can sit apart in their group, on either side of the
        # argument seam at 0
        for i in range(start, len(merged)):
            u = merged[i]
            if abs(v - u) <= _GROUP_TOL * max(abs(v), abs(u)):
                counts[i] += 1
                break
        else:
            merged.append(v)
            counts.append(1)
    return tuple(map(EigenvalueEntry, merged, counts))


# ---------------------------------------------------------------------------
# Traces and the spectral determinant
# ---------------------------------------------------------------------------


def _lattice_sum(a: complex, b: complex, positive_only: bool) -> complex:
    """Sum of a^n1 b^n2 over the exponents of a family (see `_Family`)."""
    if positive_only:
        return a * b / ((1.0 - a) * (1.0 - b))
    return 1.0 / ((1.0 - a) * (1.0 - b)) - 1.0


def closed_trace(model: SpectrumModel, k: int) -> complex:
    """Exact trace of the k-th operator power, summed over both families."""
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    k = int(k)
    total = 1.0 + 0j
    for fam in _families(model):
        a, b = fam.pair
        if fam.case == "EP":
            both = _lattice_sum(a ** k, b ** k, fam.positive_only) + _lattice_sum(
                a.conjugate() ** k, b.conjugate() ** k, fam.positive_only
            )
            total += both if fam.omega is None else fam.omega ** k * both
        elif k % 2 == 0:
            # odd powers of the two square roots cancel
            total += 2.0 * _lattice_sum(a ** (k // 2), b ** (k // 2), fam.positive_only)
    return total


def _family_abs_totals(model: SpectrumModel) -> float:
    """Exact sum of |v| over every family eigenvalue (eigenvalue 1 excluded)."""
    return sum(2.0 * _lattice_sum(*fam.moduli, fam.positive_only) for fam in _families(model))


def spectral_determinant(model: SpectrumModel, z: complex, cutoff: float = 1e-8) -> Tuple[complex, float]:
    """Truncated spectral determinant prod(1 - z v) with a tail estimate.

    The product runs over the enumerated eigenvalues of modulus >= cutoff
    (including the leading eigenvalue 1); the returned error term is the
    first-order bound |z| times the exact absolute mass of the discarded
    eigenvalues.
    """
    z = complex(z)
    value = 1.0 + 0j
    head = 0.0
    for entry in enumerate_eigenvalues(model, cutoff):
        value *= (1.0 - z * entry.value) ** entry.multiplicity
        head += entry.multiplicity * abs(entry.value)
    tail = max(0.0, _family_abs_totals(model) - (head - 1.0))
    return value, abs(z) * tail


# ---------------------------------------------------------------------------
# Decay exponents and counting
# ---------------------------------------------------------------------------


def _family_moduli(model: SpectrumModel) -> List[Tuple[float, float]]:
    """Moduli per family and twin (conjugate or sign): same, same, mixed, mixed."""
    same, mixed = _families(model)
    return [same.moduli, same.moduli, mixed.moduli, mixed.moduli]


def decay_classification(model: SpectrumModel) -> Tuple[int, Optional[float]]:
    """Stretched-exponential decay dimension d and rate eta of |lambda_n|.

    d = 2 when some family has two nonzero moduli (decay exp(-eta sqrt(n))
    with the two-dimensional rate), d = 1 when only single-axis families from
    the forward fixed point survive, d = 0 when the whole spectrum is the
    single eigenvalue 1 (monomial words); eta is None in the last case.
    """
    families = _family_moduli(model)
    planar = [f for f in families if f[0] > 0.0 and f[1] > 0.0]
    if planar:
        s = sum(1.0 / (math.log(f1) * math.log(f2)) for f1, f2 in planar)
        return 2, (0.5 * s) ** -0.5
    axis = [c for fam in families[:2] for c in fam if c > 0.0]
    if axis:
        return 1, 1.0 / sum(1.0 / abs(math.log(c)) for c in axis)
    return 0, None


def _count_quadrant(p: float, q: float, r: float) -> int:
    """Lattice points (n1, n2) != (0, 0) with n_i >= 0 and p^n1 q^n2 >= r.

    Near-ties within a relative 1e-12 on the log scale count as inside.
    """
    if not (0.0 <= p < 1.0 and 0.0 <= q < 1.0):
        raise ValueError("moduli must lie in [0, 1)")
    if r <= 0.0:
        raise ValueError("threshold must be positive")
    if math.isinf(r):
        return 0
    lr = math.log(r)
    eps = _TIE_REL * max(1.0, abs(lr))
    bound = lr - eps
    count = 0
    counted_origin = False
    n1 = 0
    while True:
        base = 0.0 if n1 == 0 else n1 * math.log(p) if p > 0.0 else -math.inf
        if base < bound:
            break
        if q == 0.0:
            n2_max = 0
        else:
            n2_max = int(math.floor((bound - base) / math.log(q)))
        count += n2_max + 1
        if n1 == 0:
            counted_origin = True
        n1 += 1
        if p == 0.0:
            break
    if counted_origin:
        count -= 1
    return count


def counting_function(model: SpectrumModel, r: float) -> int:
    """Number of predicted eigenvalues with modulus >= r, counted with multiplicity.

    Includes the eigenvalue 1 whenever r <= 1.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    families = _family_moduli(model)
    total = 1
    total += 2 * _count_quadrant(families[0][0], families[0][1], r)
    g1, g2 = families[2]
    corner = g1 * g2
    if corner > 0.0:
        origin = 1 if corner >= r * (1.0 - _TIE_REL) else 0
        total += 2 * (origin + _count_quadrant(g1, g2, r / corner))
    return total


def leading_moduli(model: SpectrumModel, count: int):
    """Moduli of the largest `count` predicted eigenvalues, repeats expanded."""
    if count < 1:
        raise ValueError("count must be positive")
    cutoff = 1e-4
    while True:
        entries = enumerate_eigenvalues(model, cutoff)
        total = sum(e.multiplicity for e in entries)
        if total >= count:
            break
        if cutoff < 1e-280:
            raise ValueError("spectrum too sparse for the requested rank")
        cutoff *= 1e-2
    moduli = np.repeat(
        [abs(e.value) for e in entries], [e.multiplicity for e in entries]
    )
    return moduli[:count]


def fit_stretched_rate(moduli, lo_rank: int, hi_rank: int) -> Tuple[float, float]:
    """Affine fit of -log(modulus) against sqrt(rank) over a rank window.

    Ranks are 1-based positions in the modulus-sorted sequence; returns the
    fitted slope (the stretched-exponential rate) and the intercept.  Raises
    ValueError if a modulus in the window is not positive and finite.
    """
    moduli = np.asarray(moduli, dtype=float)
    if not (1 <= lo_rank < hi_rank <= len(moduli)):
        raise ValueError("rank window out of range")
    window = moduli[lo_rank - 1 : hi_rank]
    bad = np.flatnonzero(~(np.isfinite(window) & (window > 0)))
    if bad.size:
        rank = lo_rank + int(bad[0])
        raise ValueError(f"modulus at rank {rank} is {float(window[bad[0]])}, not positive and finite")
    ranks = np.arange(lo_rank, hi_rank + 1, dtype=float)
    y = -np.log(window)
    slope, intercept = np.polyfit(np.sqrt(ranks), y, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Inclusion between two quadrant weights
# ---------------------------------------------------------------------------


def embedding_gaps(alpha, gamma, alpha_out, gamma_out) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Per-quadrant log-slope gaps of the inclusion between two weights.

    The target weight must grow strictly faster on same-sign quadrants
    (alpha_out > alpha) and fall strictly slower on mixed ones
    (gamma_out < gamma), otherwise the inclusion is not compact.  All rates
    must be finite.
    """
    if not all(math.isfinite(float(v)) for rates in (alpha, gamma, alpha_out, gamma_out) for v in rates):
        raise ValueError("weight rates must be finite")
    same = tuple(float(b) - float(a) for a, b in zip(alpha, alpha_out))
    mixed = tuple(float(a) - float(b) for a, b in zip(gamma, gamma_out))
    if min(same) <= 0.0 or min(mixed) <= 0.0:
        raise ValueError("weight gaps must be strictly positive")
    return same, mixed


def embedding_eta_formula(alpha, gamma, alpha_out, gamma_out) -> float:
    """Closed-form stretched-exponential rate of the inclusion singular values."""
    same, mixed = embedding_gaps(alpha, gamma, alpha_out, gamma_out)
    s = 1.0 / (same[0] * same[1]) + 1.0 / (mixed[0] * mixed[1])
    return s ** -0.5


def embedding_singular_values(alpha, gamma, alpha_out, gamma_out, band: int):
    """Singular values exp(-<gap, |n|>) over the L1 ball of radius `band`.

    Each Fourier mode n contributes one singular value: the identity-basis
    quadrant weight with the same-sign and mixed gaps as its scales, so the
    sector of n (axes count as same-sign) follows the weight's own
    convention.  Returned sorted decreasing; the ball holds
    2*band^2 + 2*band + 1 modes.
    """
    same, mixed = embedding_gaps(alpha, gamma, alpha_out, gamma_out)
    if band < 1:
        raise ValueError("band must be positive")
    modes = np.arange(-band, band + 1)
    n1, n2 = np.repeat(modes, modes.size), np.tile(modes, modes.size)
    ball = np.abs(n1) + np.abs(n2) <= band
    log_values = QuadrantWeight(None, same, mixed).log_weight_array(n1[ball], n2[ball])
    return np.exp(np.sort(log_values)[::-1])
