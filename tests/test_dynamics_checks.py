"""Mapping-case classification, cone certificates, connecting tori, weight tuning."""

import math
import tracemalloc

import numpy as np
import pytest

from torspec import dynamics_checks, map_algebra
from torspec.cone_geometry import mixed_sectors, same_sign_sectors, sample_torus, torus_radii
from torspec.dynamics_checks import (
    CaseEntry,
    CertificateReport,
    CertificationError,
    MappingCase,
    auto_weight,
    check_psec,
    classify_mapping,
    find_connecting_torus,
    is_area_preserving,
    resolve_cases,
    verify_reversing_symmetry,
)
from torspec.gl2z import build_homotopic_map
from torspec.map_algebra import (
    IndeterminatePointError,
    MapWord,
    atom_F,
    atom_G,
    atom_R,
    evaluate,
    inverse,
    lifted_jacobian,
    linear_part,
    parse_word,
    psi_word,
    simplify,
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
    forward = classify_mapping(PSI2, 1, (0.2, 0.2), (0.21, 0.21), samples=96, t_search=True)
    backward = classify_mapping(PSI2, -1, (0.2, 0.2), (0.21, 0.21), samples=96, t_search=True)
    assert forward.case == "EP"
    assert backward.case == "EP"
    assert forward.margin > 0
    assert backward.margin > 0


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


@pytest.mark.parametrize("grid", (16, 32, 64))
def test_psec_passes_by_second_diagonal_expansion(grid):
    report = check_psec(parse_word("Finv . U(3,-0.48) . U(3,0.59) . U(2,-0.45) . F"), grid=grid)
    assert report.passed
    assert report.criterion == "second-diagonal-expansion"


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
        "F . R . G(0.3,0.2)",
    ],
)
def test_grid_certificates_match_pointwise_loops(text):
    word = parse_word(text)
    for grid in (20, 21):
        assert check_psec(word, grid=grid) == _reference_check_psec(word, grid)
    worst = _reference_area_deviation(word, 12)
    assert is_area_preserving(word, grid=12) == (worst <= 1e-10, worst)


@pytest.mark.parametrize("text", ["U(1,0.5)", "U(1,0.4) . U(2,-0.2i) . U(1,0.35)"])
def test_certificate_peak_memory(text):
    # the lifted walk runs on one grid line until a shear mixes the
    # coordinates, and the report is reduced one entry plane at a time
    word = parse_word(text)
    grid = 256
    tracemalloc.start()
    try:
        check_psec(word, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * grid * grid * 8


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


@pytest.mark.parametrize("sigma_tilde", [(-1, 1), (1, -1)])
def test_connecting_torus_into_the_negative_corner(sigma_tilde):
    report = find_connecting_torus(
        PSI2, sigma_tilde=sigma_tilde, sigma=(-1, -1),
        delta_tilde=(0.05, 0.05), Delta=(0.1, 0.1), samples=96, jac_grid=12,
    )
    assert report.passed and report.margin > 0
    assert all(s * q > 0.05 for s, q in zip(sigma_tilde, report.q))


def test_connecting_torus_refuses_a_jacobian_of_mixed_sign():
    report = find_connecting_torus(parse_word("I10 . U(1,0.5) . U(1,0.3)"), (-1, 1), (1, 1), (0.1, 0.1), (0.2, 0.2))
    assert not report.passed
    assert report.reason == "jacobian-not-sign-definite"


def test_connecting_torus_refuses_radii_beyond_the_float_range():
    # a sign-normalised Jacobian entry of 0 makes q = (-0.21, 819.15), whose
    # radius e^819 overflows at t = 1; the search halves on to exhaustion
    report = find_connecting_torus(parse_word("U(1,0.5)"), (-1, 1), (1, 1), (0.1, 0.1), (0.2, 0.2))
    assert report.q[1] > math.log(np.finfo(float).max)
    assert not report.passed
    assert report.reason == "search-exhausted"


def test_connecting_torus_validates_sectors():
    with pytest.raises(ValueError):
        find_connecting_torus(PSI2, (1, 1), (1, 1), (0.1, 0.1), (0.1, 0.1))
    with pytest.raises(ValueError):
        find_connecting_torus(PSI2, (-1, 1), (-1, 1), (0.1, 0.1), (0.1, 0.1))


def test_perron_shape_refuses_mixed_signs_and_a_zero_component():
    assert dynamics_checks._perron_shape(np.array([[2, -1], [-1, 1]])) is None
    # a Jordan block: the dominant eigenvector (1, 0) has a zero component
    assert dynamics_checks._perron_shape(np.array([[1, 1], [0, 1]])) is None


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


# --- per-sector references for the weight tuning ---------------------------


def _reference_classify_mapping(word, ell, delta, Delta, samples=128, t_search=False):
    """classify_mapping with one evaluate call and one log-radius test per sector."""
    delta, Delta = tuple(map(float, delta)), tuple(map(float, Delta))
    sectors = same_sign_sectors() if ell == 1 else mixed_sectors()
    active = word if ell == 1 else inverse(word)
    last = None
    for t in [0.5 * 2.0 ** (-j) for j in range(12)] if t_search else [1.0]:
        margin_ep = margin_er = math.inf
        threshold = np.array([[t * Delta[0]], [t * Delta[1]]])
        for sigma in sectors:
            z = sample_torus(torus_radii(sigma, (t * delta[0], t * delta[1])), samples)
            try:
                img = evaluate(active, (z[:, 0], z[:, 1]))
            except IndeterminatePointError:
                margin_ep = margin_er = -math.inf
                continue
            with np.errstate(divide="ignore"):
                signed = np.array(sigma)[:, None] * np.log(np.abs(np.stack(img)))
            margin_ep = min(margin_ep, float(np.min(signed - threshold)))
            margin_er = min(margin_er, float(np.min(-signed - threshold)))
        if margin_ep > 0:
            return CaseEntry(ell, "EP", delta, Delta, t, margin_ep)
        if margin_er > 0:
            return CaseEntry(ell, "ER", delta, Delta, t, margin_er)
        last = CaseEntry(ell, "FAIL", delta, Delta, t, max(margin_ep, margin_er))
    return last


def _reference_resolve_cases(word, samples=128):
    """resolve_cases that tunes both directions in full, then judges them."""
    shapes = {1: list(dynamics_checks._FALLBACK_SHAPES), -1: list(dynamics_checks._FALLBACK_SHAPES)}
    reduced = simplify(word)
    if all(atom.kind != "G" for atom in reduced):
        a = linear_part(reduced)
        det = int(a[0, 0]) * int(a[1, 1]) - int(a[0, 1]) * int(a[1, 0])
        a_inv = det * np.array([[int(a[1, 1]), -int(a[0, 1])], [-int(a[1, 0]), int(a[0, 0])]])
        for ell, mat in ((1, a), (-1, np.diag([1, -1]) @ a_inv @ np.diag([-1, 1]))):
            shape = dynamics_checks._perron_shape(mat)
            if shape is not None:
                shapes[ell].insert(0, shape)
    entries = {}
    for ell in (1, -1):
        for shape in shapes[ell]:
            entry = _reference_classify_mapping(
                word, ell, shape, (1.05 * shape[0], 1.05 * shape[1]), samples, t_search=True
            )
            if entry.case != "FAIL":
                break
        entries[ell] = entry
    for ell, name in ((1, "forward"), (-1, "backward")):
        if entries[ell].case == "FAIL":
            return name
    return MappingCase(entries[1], entries[-1])


TUNING_WORDS = [
    psi_word((1,), (0.5,)),
    PSI2,
    psi_word((2, 1, 1), (0.4, -0.2j, 0.35)),
    parse_word("I11 . U(2,0.4) . U(1,0.1)"),
    CAT3,
    build_homotopic_map([[1, 1], [2, 1]], "stretched", eta=1.0).word,
    build_homotopic_map([[2, 1], [1, 1]], "stretched", eta=1.0).word,
    build_homotopic_map([[0, 1], [-1, 3]], "exponential", eta=1.0).word,  # backward fails
    parse_word("F"),  # forward fails
    build_homotopic_map([[1, -1], [-1, 0]], "stretched", eta=1.0).word,  # mixed sign, forward fails
    build_homotopic_map([[-3, -2], [-5, -3]], "stretched", eta=1.0).word,  # mixed sign, backward fails
    # one block: forward certifies at the second shape, backward at the third
    build_homotopic_map([[1, 1], [1, 0]], "stretched", eta=1.0).word,
]


@pytest.mark.parametrize("index", range(len(TUNING_WORDS)))
def test_tuning_matches_per_sector_reference(index):
    word = TUNING_WORDS[index]
    for shape in ((0.2, 0.2), (0.2, 0.1)):
        Delta = (1.05 * shape[0], 1.05 * shape[1])
        for ell in (1, -1):
            for t_search in (False, True):
                got = classify_mapping(word, ell, shape, Delta, samples=64, t_search=t_search)
                assert got == _reference_classify_mapping(word, ell, shape, Delta, 64, t_search)
    expected = _reference_resolve_cases(word, samples=64)
    if isinstance(expected, MappingCase):
        assert resolve_cases(word, samples=64) == expected
    else:
        with pytest.raises(CertificationError, match=f"could not certify the {expected} sector"):
            resolve_cases(word, samples=64)


UU9 = parse_word("U(1,0.9) . U(1,0.9)")

# (word, ell, shape, t): no word of TUNING_WORDS certifies below the first rung
LOWER_RUNGS = [
    *((UU9, ell, (s, s), t) for s, t in ((2.0, 0.25), (4.0, 0.125), (8.0, 0.0625)) for ell in (1, -1)),
    (parse_word("U(1,0.8) . U(2,-0.5i)"), -1, (8.0, 4.0), 0.25),
]


@pytest.mark.parametrize("word, ell, shape, t", LOWER_RUNGS)
def test_tuning_below_the_first_rung_matches_reference(word, ell, shape, t):
    Delta = (1.05 * shape[0], 1.05 * shape[1])
    got = classify_mapping(word, ell, shape, Delta, samples=64, t_search=True)
    assert got.case == "EP" and got.t == t
    assert got == _reference_classify_mapping(word, ell, shape, Delta, 64, t_search=True)


@pytest.mark.parametrize("refused, t", [(0.25, 0.0625), (0.0625, 0.03125)])
def test_indeterminate_rung_is_refused_alone(monkeypatch, refused, t):
    # every call that samples the refused rung's tori raises, as a pole there would
    shape = (8.0, 8.0)
    Delta = (1.05 * shape[0], 1.05 * shape[1])
    radii = [torus_radii(s, (refused * shape[0], refused * shape[1]))[0] for s in same_sign_sectors()]
    plain = map_algebra.evaluate
    calls = []

    def evaluate_refusing(word, z):
        calls.append(len(z[0]))
        if np.isclose(np.abs(z[0])[:, None], radii, rtol=1e-12, atol=0.0).any():
            raise IndeterminatePointError("patched", 0)
        return plain(word, z)

    monkeypatch.setattr(dynamics_checks, "evaluate", evaluate_refusing)
    got = classify_mapping(UU9, 1, shape, Delta, samples=64, t_search=True)
    # rung 1, the joint walk of the other eleven rungs, then one walk per rung
    assert calls == [2 * 64, 22 * 64] + [2 * 64] * 11
    monkeypatch.setitem(globals(), "evaluate", evaluate_refusing)
    assert got == _reference_classify_mapping(UU9, 1, shape, Delta, 64, t_search=True)
    assert got.case == "EP" and got.t == t


def test_indeterminate_candidate_in_the_prefilter_is_refused_alone(monkeypatch):
    # every call that samples the certifying candidate's tori raises, as a pole there would
    word = TUNING_WORDS[-1]
    expected = resolve_cases(word, samples=64)
    refused = expected.forward
    pairs = [torus_radii(s, (refused.t * refused.delta[0], refused.t * refused.delta[1])) for s in same_sign_sectors()]
    plain = map_algebra.evaluate
    calls = []

    def evaluate_refusing(active, z):
        calls.append(len(z[0]))
        moduli = np.abs(np.stack(z, axis=1))[:, None, :]
        if np.isclose(moduli, pairs, rtol=1e-12, atol=0.0).all(axis=2).any():
            raise IndeterminatePointError("patched", 0)
        return plain(active, z)

    monkeypatch.setattr(dynamics_checks, "evaluate", evaluate_refusing)
    got = resolve_cases(word, samples=64)
    # the first candidate, the joint prefilter walk of the other 59, then one prefilter walk per candidate
    assert calls[:61] == [2 * 64, 59 * 2 * 16] + [2 * 16] * 59
    assert got.forward != refused
    monkeypatch.setitem(globals(), "evaluate", evaluate_refusing)
    assert got == _reference_resolve_cases(word, samples=64)


def test_ladder_samples_are_per_torus_samples_bit_for_bit():
    sectors = (*same_sign_sectors(), *mixed_sectors())
    for shape in (PERRON_FWD, (8.0, 4.0), (0.15, 0.2)):
        radii = [
            torus_radii(s, (t * shape[0], t * shape[1])) for t in dynamics_checks._T_SEARCH for s in sectors
        ]
        for samples in (1, 64, 128, 257):
            unit = sample_torus((1.0, 1.0), samples)
            got = dynamics_checks._torus_samples(radii, unit)
            assert got.tobytes() == np.concatenate([sample_torus(r, samples) for r in radii]).tobytes()
            # the prefilter's strided points are the same rows of every torus sample
            stride = max(samples // dynamics_checks._PREFILTER_POINTS, 1)
            coarse = dynamics_checks._torus_samples(radii, unit[::stride])
            assert coarse.tobytes() == np.concatenate([sample_torus(r, samples)[::stride] for r in radii]).tobytes()


def test_tuning_stops_at_the_failed_forward_direction(monkeypatch):
    word = parse_word("F")
    plain = map_algebra.evaluate
    walked = []

    def recorder(active, z):
        walked.append(active)
        return plain(active, z)

    monkeypatch.setattr(dynamics_checks, "evaluate", recorder)
    with pytest.raises(CertificationError, match="forward"):
        resolve_cases(word, samples=16)
    # only the word itself is walked: nothing is tuned backward
    assert walked and all(active == word for active in walked)
    assert inverse(word) not in walked


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
