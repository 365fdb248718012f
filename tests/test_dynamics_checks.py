"""Mapping-case classification, cone certificates, connecting tori, weight tuning."""

import math

import numpy as np
import pytest

from torspec.dynamics_checks import (
    CertificateReport,
    CertificationError,
    auto_weight,
    check_psec,
    classify_mapping,
    classify_pair,
    find_connecting_torus,
    is_area_preserving,
    verify_reversing_symmetry,
)
from torspec.map_algebra import (
    MapWord,
    atom_F,
    atom_G,
    atom_R,
    inverse,
    lifted_jacobian,
    parse_word,
    psi_word,
    xi_word,
)

CAT3 = parse_word("F . F . R")  # degree matrix [[2, 1], [1, 0]]
PSI2 = psi_word((1, 1), (0.5, 0.3))

SQ2 = math.sqrt(2.0)
PERRON_FWD = (0.2, 0.2 * (SQ2 - 1.0))
PERRON_BWD = (0.2 * (SQ2 - 1.0), 0.2)


def test_classify_forward_cat_with_adapted_shape():
    entry = classify_mapping(CAT3, 1, PERRON_FWD, tuple(1.05 * d for d in PERRON_FWD))
    assert entry.case == "EP"
    assert entry.t == 1.0
    # exact for a monomial word: min_i((A delta)_i - Delta_i)
    expected = 0.2 * (1.0 - 1.05 * (SQ2 - 1.0))
    assert entry.margin == pytest.approx(expected, rel=1e-9)


def test_classify_backward_cat_is_reflecting():
    entry = classify_mapping(CAT3, -1, PERRON_BWD, tuple(1.05 * d for d in PERRON_BWD))
    assert entry.case == "ER"
    assert entry.margin == pytest.approx(0.2 * (1.0 - 1.05 * (SQ2 - 1.0)), rel=1e-9)


def test_classify_rejects_bad_scales():
    with pytest.raises(ValueError):
        classify_mapping(CAT3, 1, (0.2, 0.2), (0.19, 0.21))
    with pytest.raises(ValueError):
        classify_mapping(CAT3, 1, (0.0, 0.2), (0.1, 0.3))
    with pytest.raises(ValueError):
        classify_mapping(CAT3, 2, (0.1, 0.1), (0.2, 0.2))


def test_equal_shape_cannot_certify_cat():
    # the image log-radius in coordinate 2 equals the input coordinate-1 radius,
    # so any equal-scale pair fails by exactly 5 percent of the scale
    entry = classify_mapping(CAT3, 1, (0.2, 0.2), (0.21, 0.21))
    assert entry.case == "FAIL"
    assert entry.margin == pytest.approx(-0.01, abs=1e-12)
    searched = classify_mapping(CAT3, 1, (0.2, 0.2), (0.21, 0.21), t_search=True)
    assert searched.case == "FAIL"


def test_classify_psi_both_directions():
    pair = classify_pair(PSI2, (0.2, 0.2), (0.21, 0.21), samples=96, t_search=True)
    assert pair.forward.case == "EP"
    assert pair.backward.case == "EP"
    assert pair.forward.margin > 0
    assert pair.backward.margin > 0


def test_classify_psi_with_antipode_reflects():
    word = psi_word((1, 1), (0.5, 0.3), s=1)
    entry = classify_mapping(word, 1, (0.2, 0.2), (0.21, 0.21), samples=96, t_search=True)
    assert entry.case == "ER"


def test_psec_fails_for_cat():
    report = check_psec(parse_word("F . R"), grid=12)
    assert not report.passed
    assert report.witnesses
    kinds = {w["kind"] for w in report.witnesses}
    assert kinds  # at least one failure mode recorded


def test_psec_passes_for_psi_pair():
    report = check_psec(PSI2, grid=16)
    assert report.passed
    assert report.margin > 0
    assert report.criterion == "first-diagonal-expansion"
    assert report.witnesses == ()


def test_psec_single_block_sits_on_the_edge():
    report = check_psec(psi_word((1,), (0.5,)), grid=12)
    assert not report.passed
    assert report.margin <= 0


# --- per-point references for the whole-grid certificates ------------------


def _reference_sign_normalize(mat):
    if (mat >= -1e-12).all():
        return mat
    if (mat <= 1e-12).all():
        return -mat
    return None


def _reference_edge_margin(mat):
    image = mat @ np.array([1.0, 1.0])
    return float(min(image[0] - 1.0, image[1] - 1.0))


def _reference_family_criterion(mats):
    a = min(float(m[0, 0]) for m in mats)
    d = min(float(m[1, 1]) for m in mats)
    if a >= 1.0:
        return "first-diagonal-expansion"
    if d >= 1.0:
        return "second-diagonal-expansion"

    def ratio(num, den):
        if den <= 0.0:
            return math.inf if num > 0 else -math.inf
        return num / den

    s1 = max(ratio(1.0 - float(m[0, 0]), float(m[0, 1])) for m in mats)
    s2 = max(ratio(1.0 - float(m[1, 1]), float(m[1, 0])) for m in mats)
    if s1 <= 0.0 or s2 <= 0.0 or (s1 != math.inf and s2 != math.inf and s1 * s2 < 1.0):
        return "cross-product-contraction"
    return None


def _reference_check_psec(word, grid):
    """check_psec as a loop over grid points, one scalar lifted_jacobian each."""
    inv = inverse(word)
    flip = np.diag([1.0, -1.0])
    angles = 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    worst = math.inf
    witnesses = []
    forward_family = []
    sign_ok = True

    def witness(x, kind, value):
        if len(witnesses) < 16:
            witnesses.append({"x": (float(x[0]), float(x[1])), "kind": kind, "value": value})

    for x1 in angles:
        for x2 in angles:
            x = (x1, x2)
            fwd = _reference_sign_normalize(lifted_jacobian(word, x))
            if fwd is None:
                sign_ok = False
                witness(x, "forward-cone-broken", None)
                continue
            forward_family.append(fwd)
            m_f = _reference_edge_margin(fwd)
            if m_f <= 0:
                witness(x, "forward-margin", m_f)
            worst = min(worst, m_f)
            bwd = _reference_sign_normalize(flip @ lifted_jacobian(inv, x) @ flip)
            if bwd is None:
                sign_ok = False
                witness(x, "backward-cone-broken", None)
                continue
            m_b = _reference_edge_margin(bwd)
            if m_b <= 0:
                witness(x, "backward-margin", m_b)
            worst = min(worst, m_b)

    criterion = _reference_family_criterion(forward_family) if sign_ok and forward_family else None
    passed = sign_ok and worst > 0
    if not sign_ok:
        worst = -math.inf
    return CertificateReport(passed, worst, grid, tuple(witnesses), criterion)


def _reference_area_deviation(word, grid):
    angles = 2.0 * math.pi * (np.arange(grid) + 0.5) / grid
    worst = 0.0
    for x1 in angles:
        for x2 in angles:
            det = np.linalg.det(lifted_jacobian(word, (x1, x2)))
            worst = max(worst, abs(abs(det) - 1.0))
    return worst


@pytest.mark.parametrize(
    "text",
    [
        "U(1,0.5)",
        "I11 . U(2,0.4-0.1i)",
        "U(1,0.5) . U(1,0.3)",
        "U(2,0.3+0.2i) . U(1,-0.45)",
        "U(1,0.4) . U(2,-0.2i) . U(1,0.35)",
        "F . R",
        "F . Finv . R . G(0.3, 0.1)",
        "Finv . R . G(0.3, 0.1)",
        "F . R . F . G(0.5,0.2) . Finv",
    ],
)
def test_grid_certificates_match_pointwise_loops(text):
    word = parse_word(text)
    assert check_psec(word, grid=20) == _reference_check_psec(word, 20)
    worst = _reference_area_deviation(word, 12)
    assert is_area_preserving(word, grid=12) == (worst <= 1e-10, worst)


def test_connecting_torus_for_psi():
    report = find_connecting_torus(
        PSI2, sigma_tilde=(-1, 1), sigma=(1, 1),
        delta_tilde=(0.05, 0.05), Delta=(0.1, 0.1), samples=96, jac_grid=12,
    )
    assert report.passed
    assert report.t == 1.0
    assert report.margin > 0
    # the found torus really sits inside the mixed domain
    assert -report.q[0] > 0.05 and report.q[1] > 0.05


def test_connecting_torus_exhausts_on_degenerate_request():
    report = find_connecting_torus(
        PSI2, sigma_tilde=(-1, 1), sigma=(1, 1),
        delta_tilde=(5.0, 5.0), Delta=(0.01, 0.01), samples=48, jac_grid=8,
    )
    assert not report.passed
    assert report.reason == "search-exhausted"


def test_connecting_torus_cat_is_consistent_with_degree_matrix():
    a = np.array([[2.0, 1.0], [1.0, 0.0]])
    # reachable mixed sector: certificate claim must match the exact monomial image
    good = find_connecting_torus(
        CAT3, sigma_tilde=(1, -1), sigma=(1, 1),
        delta_tilde=(0.05, 0.05), Delta=(0.1, 0.1), samples=48, jac_grid=8,
    )
    assert good.passed
    u = good.t * np.array(good.q)
    assert u[0] > 0.05 and -u[1] > 0.05
    image = a @ u
    assert min(image[0] - 0.1, image[1] - 0.1) == pytest.approx(good.margin, rel=1e-9)
    # unreachable mixed sector: image coordinate 2 equals input coordinate 1,
    # which is negative throughout the (-1, +1) domain, so the search must exhaust
    bad = find_connecting_torus(
        CAT3, sigma_tilde=(-1, 1), sigma=(1, 1),
        delta_tilde=(0.05, 0.05), Delta=(0.1, 0.1), samples=48, jac_grid=8,
    )
    assert not bad.passed
    assert bad.reason == "search-exhausted"


def test_connecting_torus_validates_sectors():
    with pytest.raises(ValueError):
        find_connecting_torus(PSI2, (1, 1), (1, 1), (0.1, 0.1), (0.1, 0.1))
    with pytest.raises(ValueError):
        find_connecting_torus(PSI2, (-1, 1), (-1, 1), (0.1, 0.1), (0.1, 0.1))


def test_auto_weight_cat():
    weight, case = auto_weight(CAT3, samples=64)
    assert case.forward.case == "EP"
    assert case.backward.case == "ER"
    assert weight.alpha[0] == pytest.approx(0.1)
    assert weight.alpha[1] == pytest.approx(0.1 * (SQ2 - 1.0), rel=1e-6)
    assert weight.gamma[0] == pytest.approx(0.1 * (SQ2 - 1.0), rel=1e-6)
    assert weight.gamma[1] == pytest.approx(0.1)


def test_auto_weight_psi():
    weight, case = auto_weight(PSI2, samples=64)
    assert case.forward.case == "EP"
    assert case.backward.case == "EP"
    assert min(weight.alpha) > 0 and min(weight.gamma) > 0


def test_auto_weight_rejects_parabolic_word():
    with pytest.raises(CertificationError):
        auto_weight(parse_word("F"), samples=16)


def test_area_preservation_families():
    ok, dev = is_area_preserving(psi_word((1, 2), (0.5, -0.3j), 1), grid=16)
    assert ok and dev < 1e-10
    ok, dev = is_area_preserving(xi_word((1, 1), 0.5), grid=16)
    assert not ok and dev > 0.1
    # automorphism words have an exactly integer lifted derivative
    ok, dev = is_area_preserving(CAT3, grid=8)
    assert ok and dev == 0.0


def test_reversing_symmetry():
    h = parse_word("I01 . R")
    assert verify_reversing_symmetry(parse_word("U(2,0.4) . U(2,0.4)"), h)
    k, a = 2, 0.3
    tka = MapWord((atom_F(),) * k + (atom_R(), atom_G(a, -a)) + (atom_F(),) * k + (atom_R(),))
    assert verify_reversing_symmetry(tka, h)
    # the cat word is not an involution, so conjugating by the identity fails
    assert not verify_reversing_symmetry(CAT3, MapWord(()))
