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

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    """Cell-centre angles of a grid x grid torus sample, open: an x1 column and an x2 row."""
    angles = 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    return np.meshgrid(angles, angles, indexing="ij", sparse=True)


def _positive_pair(value, name: str) -> Tuple[float, float]:
    pair = (float(value[0]), float(value[1]))
    if not all(math.isfinite(v) and v > 0 for v in pair):
        raise ValueError(f"{name} must be a pair of positive reals, got {value!r}")
    return pair


def _torus_samples(radii, unit: np.ndarray) -> np.ndarray:
    """The points `unit` of a unit-radius `sample_torus`, scaled per radii pair, concatenated.

    The angles of `sample_torus` do not depend on the radii, and scaling the
    unit sample is the product `sample_torus` forms, so the points are the
    same bit for bit; a subset of the unit sample's rows gives the same rows
    of each torus sample.
    """
    return (np.array(radii, dtype=float)[:, None, :] * unit).reshape(-1, 2)


def _signed_log_images(word, tori, unit: np.ndarray) -> Optional[np.ndarray]:
    """sigma_i log|image_i| of the word at the `unit` points of each (radii, sigma) torus.

    One evaluate call covers every torus.  Returns shape (len(tori), 2,
    len(unit)), or None when any sample point is indeterminate.
    """
    z = _torus_samples([radii for radii, _ in tori], unit)
    try:
        img = evaluate(word, (z[:, 0], z[:, 1]))
    except IndeterminatePointError:
        return None
    logs = _log_abs(np.stack(img)).reshape(2, len(tori), len(unit)).swapaxes(0, 1)
    return np.array([sigma for _, sigma in tori])[:, :, None] * logs


_T_SEARCH = tuple(0.5 * 2.0 ** (-j) for j in range(12))
# the prefilter walks every (samples // 16)-th sample point of each torus
_PREFILTER_POINTS = 16


def _margins(active, sectors, candidates, unit: np.ndarray) -> List[Tuple[float, float]]:
    """(EP, ER) margins of each candidate at the `unit` points of its tori, all in one evaluate call.

    A candidate ((delta, Delta), t) samples the sector tori of scale t*delta
    against the thresholds t*Delta.  If any point is indeterminate the
    candidates are walked one at a time, so a candidate is refused (margins
    -inf) only for its own points.
    """
    tori = [(torus_radii(s, (t * delta[0], t * delta[1])), s) for (delta, _), t in candidates for s in sectors]
    signed = _signed_log_images(active, tori, unit)
    if signed is None:
        if len(candidates) == 1:
            return [(-math.inf, -math.inf)]
        return [m for c in candidates for m in _margins(active, sectors, [c], unit)]
    signed = signed.reshape(len(candidates), len(sectors), 2, len(unit))
    threshold = np.array([(t * Delta[0], t * Delta[1]) for (_, Delta), t in candidates])[:, None, :, None]
    # worst slack per sector, then over sectors, dropping a NaN sector
    ep = np.fmin.reduce((signed - threshold).min(axis=(2, 3)), axis=1, initial=math.inf)
    er = np.fmin.reduce((-signed - threshold).min(axis=(2, 3)), axis=1, initial=math.inf)
    return list(zip(ep.tolist(), er.tolist()))


def _search(active, sectors, candidates, samples: int, prefilter: bool) -> Tuple[int, Tuple[float, float]]:
    """The first candidate whose tori certify, as (index, (EP, ER) margins).

    The first candidate is walked alone on all samples, since most words
    certify there.  Without `prefilter` every other candidate is then walked
    on all samples in one call.  With it, every other candidate is first
    walked on a fixed strided 16 of the samples and dropped where both of
    its margins are already <= 0: a margin is a minimum over the points, and
    the strided points are rows of the full sample, so more points can only
    lower it.  The first survivor is walked alone on all samples, then the
    rest in one call.  If none certifies, the last candidate walked on all
    samples is returned with its margins.
    """
    unit = sample_torus((1.0, 1.0), samples)

    def groups():
        yield [0]
        rest = list(range(1, len(candidates)))
        if prefilter and rest:
            coarse = unit[:: max(samples // _PREFILTER_POINTS, 1)]
            margins = _margins(active, sectors, [candidates[i] for i in rest], coarse)
            rest = [i for i, m in zip(rest, margins) if max(m) > 0]
            yield rest[:1]
            rest = rest[1:]
        yield rest

    walked = None
    for group in groups():
        if not group:
            continue
        for i, margins in zip(group, _margins(active, sectors, [candidates[i] for i in group], unit)):
            walked = (i, margins)
            if max(margins) > 0:
                return walked
    return walked


def _case_entry(ell: int, candidate, margins: Tuple[float, float]) -> CaseEntry:
    (delta, Delta), t = candidate
    margin_ep, margin_er = margins
    if margin_ep > 0:
        return CaseEntry(ell, "EP", delta, Delta, t, margin_ep)
    if margin_er > 0:
        return CaseEntry(ell, "ER", delta, Delta, t, margin_er)
    return CaseEntry(ell, "FAIL", delta, Delta, t, max(margin_ep, margin_er))


def _direction(word, ell: int):
    """The word walked in direction ell and the sectors it is sampled on."""
    if ell == 1:
        return word, same_sign_sectors()
    return inverse(word), mixed_sectors()


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
    0.5 until one case certifies; otherwise only t = 1 is tried.  The first
    scale is sampled on its own, since most words certify there; if it
    fails, every smaller scale is sampled in one evaluate call and the first
    that certifies is taken, or the last failure.  A scale with an
    indeterminate sample point is refused; when the joint call meets one,
    the smaller scales are sampled one at a time, so only that scale is.

    The margin is the worst slack, over sectors, sample points, and
    coordinates, of the image log-radius beyond the target threshold.
    """
    if ell not in (1, -1):
        raise ValueError("ell must be +1 or -1")
    delta = _positive_pair(delta, "delta")
    Delta = _positive_pair(Delta, "Delta")
    if not (Delta[0] > delta[0] and Delta[1] > delta[1]):
        raise ValueError("Delta must exceed delta componentwise")
    candidates = [((delta, Delta), t) for t in (_T_SEARCH if t_search else (1.0,))]
    i, margins = _search(*_direction(word, ell), candidates, samples, prefilter=False)
    return _case_entry(ell, candidates[i], margins)


# ---------------------------------------------------------------------------
# Cone-field certificate
# ---------------------------------------------------------------------------

_SIGN_TOL = 1e-12
_MAX_WITNESSES = 16


def _sign_normalize(jac: np.ndarray, flip: bool = False) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Per 2x2 matrix J (flip J flip if asked), made nonnegative in place: whether it is sign-definite, and its planes."""
    if flip:
        jac[..., (0, 1), (1, 0)] *= -1.0
    planes = [jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]]
    positive = np.logical_and.reduce([p >= -_SIGN_TOL for p in planes])
    negative = np.logical_and.reduce([p <= _SIGN_TOL for p in planes])
    jac *= np.where(positive, 1.0, -1.0)[..., None, None]
    return positive | negative, planes


def _edge_margin(n11, n12, n21, n22) -> np.ndarray:
    # expansion of the cone edge vector (1, 1), per point
    return np.minimum(n11 + n12 - 1.0, n21 + n22 - 1.0)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    positive = den > 0.0
    signed_inf = np.where(num > 0, math.inf, -math.inf)
    return np.where(positive, num / np.where(positive, den, 1.0), signed_inf)


def _family_criterion(n11, n12, n21, n22) -> Optional[str]:
    # sufficient conditions for uniform cone expansion of a nonnegative family
    if n11.min() >= 1.0:
        return "first-diagonal-expansion"
    if n22.min() >= 1.0:
        return "second-diagonal-expansion"
    s1 = float(_ratio(1.0 - n11, n12).max())
    s2 = float(_ratio(1.0 - n22, n21).max())
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
    family satisfies, when one does.  Each family is one `lifted_jacobian` call
    on the open angle grid, tested elementwise on its four entry planes.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    x1, x2 = _angle_grid(grid)

    # each family is reduced to what the report needs before the next is built
    ok_f, fwd = _sign_normalize(lifted_jacobian(word, (x1, x2)))
    m_f = _edge_margin(*fwd)
    criterion = _family_criterion(*fwd) if ok_f.all() else None
    del fwd
    # flip J flip with flip = diag(1, -1): the mixed-sign cone seen as the same-sign one
    ok_b, bwd = _sign_normalize(lifted_jacobian(inverse(word), (x1, x2)), flip=True)
    m_b = _edge_margin(*bwd)

    sign_ok = bool(ok_f.all() and ok_b.all())
    worst = min(float(m_f.min()), float(m_b.min())) if sign_ok else -math.inf
    # witnesses in the order a point-by-point scan meets them: point, then side;
    # a point whose forward cone breaks is not checked backward
    events = []
    sides = (("forward", ok_f, m_f, True), ("backward", ok_b, m_b, ok_f))
    for slot, (side, ok, margin, checked) in enumerate(sides):
        for p in np.flatnonzero(checked & (~ok | (margin <= 0)))[:_MAX_WITNESSES]:
            i, j = np.unravel_index(p, (grid, grid))
            x = (float(x1[i, 0]), float(x2[0, j]))
            if ok.flat[p]:
                found = {"x": x, "kind": side + "-margin", "value": float(margin.flat[p])}
            else:
                found = {"x": x, "kind": side + "-cone-broken", "value": None}
            events.append((int(p), slot, found))
    events.sort(key=lambda event: event[:2])
    witnesses = tuple(found for _, _, found in events[:_MAX_WITNESSES])
    return CertificateReport(sign_ok and worst > 0, worst, grid, witnesses, criterion if sign_ok else None)


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
    image point lies in the sigma domain at scale Delta; a scale whose radii
    overflow is refused like one whose images miss the domain.  Thresholds
    are not rescaled with t, so the search can exhaust honestly.
    """
    sigma = (int(sigma[0]), int(sigma[1]))
    sigma_tilde = (int(sigma_tilde[0]), int(sigma_tilde[1]))
    if sigma not in same_sign_sectors():
        raise ValueError("sigma must be a same-sign sector")
    if sigma_tilde not in mixed_sectors():
        raise ValueError("sigma_tilde must be a mixed sector")
    delta_tilde = _positive_pair(delta_tilde, "delta_tilde")
    Delta = _positive_pair(Delta, "Delta")

    ok, planes = _sign_normalize(lifted_jacobian(word, _angle_grid(jac_grid)))
    if not ok.all():
        return ConnectorReport(
            False, sigma, sigma_tilde, (0.0, 0.0), None, None,
            "jacobian-not-sign-definite",
        )
    lo, hi = min(float(p.min()) for p in planes), max(float(p.max()) for p in planes)

    dbar = 1.05 * max(delta_tilde[0], delta_tilde[1], Delta[0], Delta[1])
    ratio = max(1.0, (1.0 + hi) / max(lo, 1e-3))
    if sigma == (1, 1):
        q = (-dbar, dbar * ratio) if sigma_tilde == (-1, 1) else (dbar * ratio, -dbar)
    else:
        q = (dbar, -dbar * ratio) if sigma_tilde == (1, -1) else (-dbar * ratio, dbar)

    unit = sample_torus((1.0, 1.0), samples)
    t = 1.0
    while t >= 1e-4:
        u = (t * q[0], t * q[1])
        if sigma_tilde[0] * u[0] > delta_tilde[0] and sigma_tilde[1] * u[1] > delta_tilde[1]:
            try:
                radii = (math.exp(u[0]), math.exp(u[1]))
            except OverflowError:  # a radius beyond the float range is refused like images off the domain
                signed = None
            else:
                signed = _signed_log_images(word, [(radii, sigma)], unit)
            margin = -math.inf if signed is None else float(np.min(signed - np.array(Delta)[:, None]))
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


def resolve_cases(word, samples: int = 128) -> MappingCase:
    """Certified forward and backward case entries, tuning the sector shapes.

    For words with no disk-automorphism factors the trial shapes start from
    the dominant eigendirections of the degree matrix (and of its
    sign-conjugated inverse); otherwise a short list of fixed shapes is
    scanned, each with the halving scale search of `classify_mapping`.  Each
    direction is one `_search` over every (shape, scale) pair, shape first:
    its prefilter drops only pairs that cannot certify, so the first pair
    that certifies is the one a scan shape by shape would take.  Raises
    CertificationError at the first direction, forward then backward, that
    stays unclassified.
    """
    reduced = simplify(word)
    shapes_f: List[Tuple[float, float]] = list(_FALLBACK_SHAPES)
    shapes_b: List[Tuple[float, float]] = list(_FALLBACK_SHAPES)
    if all(atom.kind != "G" for atom in reduced):
        shape_f = _perron_shape(linear_part(reduced))
        shape_b = _perron_shape(np.diag([1, -1]) @ linear_part(inverse(reduced)) @ np.diag([-1, 1]))
        if shape_f is not None:
            shapes_f.insert(0, shape_f)
        if shape_b is not None:
            shapes_b.insert(0, shape_b)
    entries = []
    for ell, name, shapes in ((1, "forward", shapes_f), (-1, "backward", shapes_b)):
        # shape first, then rung: the order of a scale search per shape
        scales = [(shape, (1.05 * shape[0], 1.05 * shape[1])) for shape in shapes]
        candidates = list(itertools.product(scales, _T_SEARCH))
        i, margins = _search(*_direction(word, ell), candidates, samples, prefilter=True)
        entry = _case_entry(ell, candidates[i], margins)
        if entry.case == "FAIL":
            raise CertificationError(
                f"could not certify the {name} sector mapping for this word; "
                "supply explicit weight scales or check hyperbolicity"
            )
        entries.append(entry)
    return MappingCase(*entries)


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
    det = np.linalg.det(lifted_jacobian(word, _angle_grid(grid)))
    worst = max(0.0, float(np.max(np.abs(np.abs(det) - 1.0))))
    return worst <= tol, worst


def verify_reversing_symmetry(word, h, samples: int = 256, tol: float = 1e-10) -> bool:
    """Sampled test of h^-1 . word . h = inverse(word) on the torus."""
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
