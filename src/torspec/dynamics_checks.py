"""Hyperbolicity certificates for torus-map words.

Three sampled certificates are provided:

* ``check_psec`` -- strict invariance of the constant same-sign / mixed-sign
  cone pairs under the lifted derivative, forward and backward, with a
  quantitative expansion margin;
* ``classify_mapping`` -- how the word (or its inverse) moves the
  distinguished tori of the sector domains: deeper into the same sectors
  (case "EP"), into the reflected sectors (case "ER"), or neither ("FAIL");
* ``find_connecting_torus`` -- a torus inside a mixed-sector domain whose
  image lands inside a prescribed same-sign sector domain.

``auto_weight`` turns the classification into a concrete quadrant weight the
word's composition operator is compact on, by tuning the sector scales.

All certificates are sampled on finite grids: a "passed" verdict is numerical
evidence with an explicit margin, not interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cone_geometry import (
    QuadrantWeight,
    mixed_sectors,
    same_sign_sectors,
    sample_torus,
    torus_radii,
)
from .map_algebra import (
    IndeterminatePointError,
    MapWord,
    concat,
    evaluate,
    inverse,
    lifted_jacobian,
    linear_part,
    simplify,
)


class CertificationError(RuntimeError):
    """No certificate could be produced for the requested property."""


@dataclass(frozen=True)
class CaseEntry:
    """Outcome of one direction of the mapping classification.

    ``ell`` is +1 for the word on the same-sign sectors, -1 for the inverse
    word on the mixed sectors.  ``case`` is "EP" (tori pushed deeper into
    their own sectors), "ER" (pushed into the reflected sectors), or "FAIL".
    ``t`` is the certified scale: the torus of scale t*delta maps into the
    domain of scale t*Delta, with the stated margin on log-radii.
    """

    ell: int
    case: str
    delta: Tuple[float, float]
    Delta: Tuple[float, float]
    t: float
    margin: float


@dataclass(frozen=True)
class MappingCase:
    forward: CaseEntry
    backward: CaseEntry


@dataclass(frozen=True)
class CertificateReport:
    """Sampled cone-invariance certificate."""

    passed: bool
    margin: float
    grid: int
    witnesses: Tuple[dict, ...]
    criterion: Optional[str]


@dataclass(frozen=True)
class ConnectorReport:
    """Certificate that a torus in one sector domain maps into another."""

    passed: bool
    sigma: Tuple[int, int]
    sigma_tilde: Tuple[int, int]
    q: Tuple[float, float]
    t: Optional[float]
    margin: Optional[float]
    reason: Optional[str]


def _log_abs(values: np.ndarray) -> np.ndarray:
    # evaluate returns points at infinity as complex infinity: log|inf| = inf
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _angle_grid(grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cell-centre angles of a grid x grid torus sample, x1 varying slowest."""
    angles = 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    return np.meshgrid(angles, angles, indexing="ij")


def _positive_pair(value, name: str) -> Tuple[float, float]:
    pair = (float(value[0]), float(value[1]))
    if not all(math.isfinite(v) and v > 0 for v in pair):
        raise ValueError(f"{name} must be a pair of positive reals, got {value!r}")
    return pair


_T_SEARCH = tuple(0.5 * 2.0 ** (-j) for j in range(12))


def classify_mapping(
    word,
    ell: int,
    delta,
    Delta,
    samples: int = 128,
    t_search: bool = False,
) -> CaseEntry:
    """Classify how the word moves the distinguished sector tori.

    For ell = +1 the word itself is sampled on the tori of the two same-sign
    sector domains at scale t*delta; for ell = -1 the inverse word is sampled
    on the mixed-sector tori.  Case "EP" requires every image point to lie in
    the domain of the same sector at the larger scale t*Delta, case "ER" the
    domain of the opposite sector.  With t_search the scale t is halved from
    0.5 until one case certifies; otherwise only t = 1 is tried.

    The margin is the worst slack, over sectors, sample points, and
    coordinates, of the image log-radius beyond the target threshold.
    """
    if ell not in (1, -1):
        raise ValueError("ell must be +1 or -1")
    delta = _positive_pair(delta, "delta")
    Delta = _positive_pair(Delta, "Delta")
    if not (Delta[0] > delta[0] and Delta[1] > delta[1]):
        raise ValueError("Delta must exceed delta componentwise")
    sectors = same_sign_sectors() if ell == 1 else mixed_sectors()
    active = MapWord(word) if not isinstance(word, MapWord) else word
    if ell == -1:
        active = inverse(active)

    last = None
    for t in _T_SEARCH if t_search else (1.0,):
        margin_ep = math.inf
        margin_er = math.inf
        threshold = np.array([[t * Delta[0]], [t * Delta[1]]])
        for sigma in sectors:
            z = sample_torus(torus_radii(sigma, (t * delta[0], t * delta[1])), samples)
            try:
                img = evaluate(active, (z[:, 0], z[:, 1]))
            except IndeterminatePointError:
                margin_ep = margin_er = -math.inf
                continue
            signed = np.array(sigma)[:, None] * _log_abs(np.stack(img))
            margin_ep = min(margin_ep, float(np.min(signed - threshold)))
            margin_er = min(margin_er, float(np.min(-signed - threshold)))
        if margin_ep > 0:
            return CaseEntry(ell, "EP", delta, Delta, t, margin_ep)
        if margin_er > 0:
            return CaseEntry(ell, "ER", delta, Delta, t, margin_er)
        last = CaseEntry(ell, "FAIL", delta, Delta, t, max(margin_ep, margin_er))
    return last


def classify_pair(word, delta, Delta, samples: int = 128, t_search: bool = False) -> MappingCase:
    """Classification of the word (forward) and its inverse (backward)."""
    return MappingCase(
        forward=classify_mapping(word, 1, delta, Delta, samples, t_search),
        backward=classify_mapping(word, -1, delta, Delta, samples, t_search),
    )


# ---------------------------------------------------------------------------
# Cone-field certificate
# ---------------------------------------------------------------------------

_SIGN_TOL = 1e-12
_MAX_WITNESSES = 16


# flip @ J @ flip with flip = diag(1, -1): the mixed-sign cone seen as the same-sign one
_FLIP_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _sign_normalize(mats: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per 2x2 matrix of the stack: whether it is sign-definite, and its nonnegative form."""
    positive = (mats >= -_SIGN_TOL).all(axis=(-2, -1))
    negative = (mats <= _SIGN_TOL).all(axis=(-2, -1))
    return positive | negative, mats * np.where(positive, 1.0, -1.0)[..., None, None]


def _edge_margin(mats: np.ndarray) -> np.ndarray:
    # expansion of the cone edge vector (1, 1), per matrix
    image = mats.sum(axis=-1)
    return np.minimum(image[..., 0] - 1.0, image[..., 1] - 1.0)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    positive = den > 0.0
    signed_inf = np.where(num > 0, math.inf, -math.inf)
    return np.where(positive, num / np.where(positive, den, 1.0), signed_inf)


def _family_criterion(mats: np.ndarray) -> Optional[str]:
    # sufficient conditions for uniform cone expansion of a nonnegative family
    if mats[..., 0, 0].min() >= 1.0:
        return "first-diagonal-expansion"
    if mats[..., 1, 1].min() >= 1.0:
        return "second-diagonal-expansion"
    s1 = float(_ratio(1.0 - mats[..., 0, 0], mats[..., 0, 1]).max())
    s2 = float(_ratio(1.0 - mats[..., 1, 1], mats[..., 1, 0]).max())
    if s1 <= 0.0 or s2 <= 0.0 or (s1 != math.inf and s2 != math.inf and s1 * s2 < 1.0):
        return "cross-product-contraction"
    return None


def check_psec(word, grid: int = 64) -> CertificateReport:
    """Sampled certificate of strict invariant cone pairs with expansion.

    At each of grid^2 torus points the lifted derivative of the word must map
    the same-sign cone strictly inside itself and expand its edge vector, and
    the lifted derivative of the inverse word must do the same for the
    mixed-sign cone.  Returns the worst margin and up to 16 witnesses of
    failure; ``criterion`` names the first uniform-expansion test the forward
    family satisfies, when one does.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    word = MapWord(word) if not isinstance(word, MapWord) else word
    x1, x2 = _angle_grid(grid)

    # each family is reduced to what the report needs before the next is built
    ok_f, fwd = _sign_normalize(lifted_jacobian(word, (x1, x2)))
    m_f = _edge_margin(fwd)
    criterion = _family_criterion(fwd) if ok_f.all() else None
    del fwd
    ok_b, bwd = _sign_normalize(lifted_jacobian(inverse(word), (x1, x2)) * _FLIP_SIGNS)
    m_b = _edge_margin(bwd)

    sign_ok = bool(ok_f.all() and ok_b.all())
    worst = min(float(m_f.min()), float(m_b.min())) if sign_ok else -math.inf
    # witnesses in the order a point-by-point scan meets them: point, then side;
    # a point whose forward cone breaks is not checked backward
    events = []
    sides = (("forward", ok_f, m_f, True), ("backward", ok_b, m_b, ok_f))
    for slot, (side, ok, margin, checked) in enumerate(sides):
        for p in np.flatnonzero(checked & (~ok | (margin <= 0)))[:_MAX_WITNESSES]:
            x = (float(x1.flat[p]), float(x2.flat[p]))
            if ok.flat[p]:
                found = {"x": x, "kind": side + "-margin", "value": float(margin.flat[p])}
            else:
                found = {"x": x, "kind": side + "-cone-broken", "value": None}
            events.append((int(p), slot, found))
    events.sort(key=lambda event: event[:2])
    witnesses = tuple(found for _, _, found in events[:_MAX_WITNESSES])
    criterion = criterion if sign_ok else None
    return CertificateReport(sign_ok and worst > 0, worst, grid, witnesses, criterion)


# ---------------------------------------------------------------------------
# Connecting torus
# ---------------------------------------------------------------------------


def find_connecting_torus(
    word,
    sigma_tilde,
    sigma,
    delta_tilde,
    Delta,
    samples: int = 128,
    jac_grid: int = 24,
) -> ConnectorReport:
    """Search for a torus inside the mixed domain that maps into a same-sign domain.

    The torus is parameterized by its log-radii t*q.  The direction q is
    proposed from the entry bounds of the word's (sign-normalized) lifted
    derivative family; t is then halved from 1 until both fixed-threshold
    conditions hold: sigma_tilde_i (t q)_i > delta_tilde_i, and every sampled
    image point lies in the sigma domain at scale Delta.  Thresholds are not
    rescaled with t, so the search can exhaust honestly.
    """
    sigma = (int(sigma[0]), int(sigma[1]))
    sigma_tilde = (int(sigma_tilde[0]), int(sigma_tilde[1]))
    if sigma not in same_sign_sectors():
        raise ValueError("sigma must be a same-sign sector")
    if sigma_tilde not in mixed_sectors():
        raise ValueError("sigma_tilde must be a mixed sector")
    delta_tilde = _positive_pair(delta_tilde, "delta_tilde")
    Delta = _positive_pair(Delta, "Delta")
    word = MapWord(word) if not isinstance(word, MapWord) else word

    ok, mats = _sign_normalize(lifted_jacobian(word, _angle_grid(jac_grid)))
    if not ok.all():
        return ConnectorReport(
            False, sigma, sigma_tilde, (0.0, 0.0), None, None,
            "jacobian-not-sign-definite",
        )
    lo, hi = float(mats.min()), float(mats.max())

    dbar = 1.05 * max(delta_tilde[0], delta_tilde[1], Delta[0], Delta[1])
    ratio = max(1.0, (1.0 + hi) / max(lo, 1e-3))
    if sigma == (1, 1):
        q = (-dbar, dbar * ratio) if sigma_tilde == (-1, 1) else (dbar * ratio, -dbar)
    else:
        q = (dbar, -dbar * ratio) if sigma_tilde == (1, -1) else (-dbar * ratio, dbar)

    t = 1.0
    while t >= 1e-4:
        u = (t * q[0], t * q[1])
        if sigma_tilde[0] * u[0] > delta_tilde[0] and sigma_tilde[1] * u[1] > delta_tilde[1]:
            z = sample_torus((math.exp(u[0]), math.exp(u[1])), samples)
            try:
                img = evaluate(word, (z[:, 0], z[:, 1]))
            except IndeterminatePointError:
                margin = -math.inf
            else:
                signed = np.array(sigma)[:, None] * _log_abs(np.stack(img))
                margin = float(np.min(signed - np.array(Delta)[:, None]))
            if margin > 0:
                return ConnectorReport(True, sigma, sigma_tilde, q, t, margin, None)
        t /= 2.0
    return ConnectorReport(False, sigma, sigma_tilde, q, None, None, "search-exhausted")


# ---------------------------------------------------------------------------
# Automatic weight tuning
# ---------------------------------------------------------------------------

_FALLBACK_SHAPES = ((0.2, 0.2), (0.2, 0.15), (0.15, 0.2), (0.2, 0.1), (0.1, 0.2))


def _perron_shape(mat: np.ndarray) -> Optional[Tuple[float, float]]:
    """Dominant-eigenvector direction of a sign-definite matrix, scaled to max 0.2."""
    m = np.asarray(mat, dtype=float)
    if (m < 0).any():
        if (m <= 0).all():
            m = -m
        else:
            return None
    vals, vecs = np.linalg.eig(m)
    if np.abs(vals.imag).max() > 1e-9:
        return None
    i = int(np.argmax(vals.real))
    v = np.abs(vecs[:, i].real)
    if v.min() < 1e-9 * v.max():
        return None
    v = 0.2 * v / v.max()
    return (float(v[0]), float(v[1]))


def _tune_direction(word, ell: int, shapes, samples: int) -> CaseEntry:
    entry = None
    for shape in shapes:
        delta = shape
        Delta = (1.05 * shape[0], 1.05 * shape[1])
        entry = classify_mapping(word, ell, delta, Delta, samples=samples, t_search=True)
        if entry.case != "FAIL":
            return entry
    return entry


def resolve_cases(word, samples: int = 128) -> MappingCase:
    """Certified forward and backward case entries, tuning the sector shapes.

    For words with no disk-automorphism factors the trial shapes start from
    the dominant eigendirections of the degree matrix (and of its
    sign-conjugated inverse); otherwise a short list of fixed shapes is
    scanned, each with a halving scale search.  Raises CertificationError if
    either direction stays unclassified.
    """
    word = MapWord(word) if not isinstance(word, MapWord) else word
    reduced = simplify(word)
    shapes_f: List[Tuple[float, float]] = list(_FALLBACK_SHAPES)
    shapes_b: List[Tuple[float, float]] = list(_FALLBACK_SHAPES)
    if all(atom.kind != "G" for atom in reduced):
        a = linear_part(reduced)
        det = int(a[0, 0]) * int(a[1, 1]) - int(a[0, 1]) * int(a[1, 0])
        adj = np.array([[int(a[1, 1]), -int(a[0, 1])], [-int(a[1, 0]), int(a[0, 0])]])
        a_inv = det * adj  # det is +-1
        shape_f = _perron_shape(a)
        shape_b = _perron_shape(np.diag([1, -1]) @ a_inv @ np.diag([-1, 1]))
        if shape_f is not None:
            shapes_f.insert(0, shape_f)
        if shape_b is not None:
            shapes_b.insert(0, shape_b)
    fwd = _tune_direction(word, 1, shapes_f, samples)
    bwd = _tune_direction(word, -1, shapes_b, samples)
    if fwd.case == "FAIL" or bwd.case == "FAIL":
        failed = "forward" if fwd.case == "FAIL" else "backward"
        raise CertificationError(
            f"could not certify the {failed} sector mapping for this word; "
            "supply explicit weight scales or check hyperbolicity"
        )
    return MappingCase(fwd, bwd)


def auto_weight(word, samples: int = 128) -> Tuple[QuadrantWeight, MappingCase]:
    """Tune a standard quadrant weight adapted to the word.

    The same-sign scales alpha come from the certified forward classification,
    the mixed scales gamma from the certified backward one (scale t times the
    trial shape in each direction).  Words expanding along mixed-sign
    directions are out of scope and raise CertificationError.
    """
    cases = resolve_cases(word, samples)
    fwd, bwd = cases.forward, cases.backward
    alpha = (fwd.t * fwd.delta[0], fwd.t * fwd.delta[1])
    gamma = (bwd.t * bwd.delta[0], bwd.t * bwd.delta[1])
    return QuadrantWeight.standard(alpha, gamma), cases


def is_area_preserving(word, grid: int = 64, tol: float = 1e-10) -> Tuple[bool, float]:
    """Whether |det of the lifted derivative| is 1 everywhere, with worst deviation."""
    word = MapWord(word) if not isinstance(word, MapWord) else word
    det = np.linalg.det(lifted_jacobian(word, _angle_grid(grid)))
    worst = max(0.0, float(np.max(np.abs(np.abs(det) - 1.0))))
    return worst <= tol, worst


def verify_reversing_symmetry(word, h, samples: int = 256, tol: float = 1e-10) -> bool:
    """Sampled test of h^-1 . word . h = inverse(word) on the torus."""
    word = MapWord(word) if not isinstance(word, MapWord) else word
    h = MapWord(h) if not isinstance(h, MapWord) else h
    conjugated = concat(inverse(h), word, h)
    inv = inverse(word)
    z = np.exp(2j * math.pi * np.random.default_rng(373).random((samples, 2)))
    lhs = np.stack(evaluate(conjugated, (z[:, 0], z[:, 1])))
    rhs = np.stack(evaluate(inv, (z[:, 0], z[:, 1])))
    # a point sent to infinity on either side must land on exactly the same point
    at_inf = (np.isinf(lhs) | np.isinf(rhs)).any(axis=0)
    if (lhs != rhs)[:, at_inf].any():
        return False
    finite = ~at_inf
    worst = float(np.max(np.abs(lhs[:, finite] - rhs[:, finite]), initial=0.0))
    return worst <= tol
