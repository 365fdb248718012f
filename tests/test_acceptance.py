"""Full-scale end-to-end runs, one test per stated guarantee.

Each test exercises a complete pipeline (closed-form prediction, truncated
operator, reduction, synthesis, or embedding) at its production size, with
the tolerances the package promises.  Runtime budgets are asserted where the
guarantee includes one.
"""

import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from torspec.dynamics_checks import (
    auto_weight,
    check_psec,
    is_area_preserving,
    verify_reversing_symmetry,
)
from torspec.fixed_points import all_fixed_point_data, verify_conjugate_pairs
from torspec.gl2z import random_hyperbolic, reduce
from torspec.map_algebra import (
    MapWord,
    atom_F,
    atom_G,
    atom_R,
    concat,
    inverse,
    parse_word,
    psi_word,
    xi_word,
)
from torspec.operator_numerics import (
    assemble_operator,
    match_spectra,
    numeric_trace_power,
    operator_spectrum,
)
from torspec.resonance_theory import (
    SpectrumModel,
    closed_form_multipliers_psi,
    closed_trace,
    counting_function,
    decay_classification,
    embedding_eta_formula,
    embedding_singular_values,
    enumerate_eigenvalues,
    fit_stretched_rate,
    leading_moduli,
    psi_cases,
    spectrum_model_from_word,
)

PSI = psi_word((1, 1), (0.5, 0.3))


def test_cat_map_truncation_is_trivial():
    start = time.monotonic()
    word = parse_word("F . F . R")
    weight, cases = auto_weight(word)
    operator = assemble_operator(word, weight, band=10)
    values = operator_spectrum(operator)
    assert abs(values[0] - 1.0) < 1e-10
    assert np.max(np.abs(values[1:])) < 1e-8

    model = spectrum_model_from_word(word, cases)
    entries = enumerate_eigenvalues(model, 1e-3)
    assert [(e.value, e.multiplicity) for e in entries] == [(1.0 + 0.0j, 1)]
    assert decay_classification(model) == (0, None)
    assert time.monotonic() - start < 30.0


def test_twisted_shear_truncation_matches_closed_form():
    start = time.monotonic()
    weight, cases = auto_weight(PSI)
    model = spectrum_model_from_word(PSI, cases)
    entries = enumerate_eigenvalues(model, 1e-3)
    # conjugate doubling everywhere; values hit by both families stack to 4
    assert entries[0].value == 1.0 and entries[0].multiplicity == 1
    assert all(e.multiplicity in (2, 4) for e in entries[1:])

    operator = assemble_operator(PSI, weight, band=12)
    computed = operator_spectrum(operator)
    report = match_spectra(entries, computed, floor=1e-3)
    assert not report.unmatched_predicted
    assert report.max_rel_err < 1e-6
    assert all(abs(v) < 2e-3 for v in report.unmatched_computed)
    assert time.monotonic() - start < 300.0


@pytest.fixture(scope="module")
def band24():
    """The closed-form model of PSI and its band-24 operator, shared by the tests that need the large band."""
    weight, cases = auto_weight(PSI)
    return spectrum_model_from_word(PSI, cases), assemble_operator(PSI, weight, band=24, force=True)


def test_trace_identity(band24):
    # the k = 1 trace tail converges slowest and needs the larger band
    model, operator = band24
    for k in range(1, 6):
        numeric = numeric_trace_power(operator, k)
        closed = closed_trace(model, k)
        assert abs(numeric - closed) < 1e-6


def test_operator_decay_fit(band24):
    # the paper's stretched-exponential law on the operator itself: over the
    # ranks the truncation verifies (from rank 10 to the first computed
    # modulus that misses the prediction by a relative 1e-6), the operator's
    # fit is the closed-form fit on that window, and near eta; at band 24
    # that window ends at rank 721, modulus 3.1e-8, and the fit is 0.37%
    # above eta
    model, operator = band24
    computed = np.abs(operator_spectrum(operator))
    predicted = leading_moduli(model, computed.size)
    verified = int(np.argmax(np.abs(computed - predicted) > 1e-6 * predicted))
    assert verified > 500
    slope, _ = fit_stretched_rate(computed, 10, verified)
    closed, _ = fit_stretched_rate(predicted, 10, verified)
    assert abs(slope - closed) <= 1e-6
    _, eta = decay_classification(model)
    assert abs(slope / eta - 1.0) <= 0.01


def test_multiplier_catalogue_randomized():
    rng = np.random.default_rng(20260819)
    both_preserving = 0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        s = int(rng.integers(0, 2))
        ks = tuple(int(rng.integers(1, 4)) for _ in range(n))
        params = tuple(
            (0.15 + 0.45 * rng.random()) * np.exp(2j * np.pi * rng.random()) for _ in range(n)
        )
        word = psi_word(ks, params, s)
        data = all_fixed_point_data(word)
        for sigma, pair in closed_form_multipliers_psi(ks, params, s).items():
            got = data.record(sigma).multipliers
            straight = max(abs(got[0] - pair[0]), abs(got[1] - pair[1]))
            swapped = max(abs(got[0] - pair[1]), abs(got[1] - pair[0]))
            assert min(straight, swapped) < 1e-10
        if psi_cases(n, s) == ("EP", "EP"):
            assert verify_conjugate_pairs(data, tol=1e-10) < 1e-10
            both_preserving += 1
    assert both_preserving >= 2


def test_matrix_reduction_bulk():
    start = time.monotonic()
    import random

    rng = random.Random(97)
    for _ in range(100):
        m = random_hyperbolic(rng, entry_bound=50)
        form = reduce(m)
        q = np.array(form.conjugator, dtype=np.int64)
        det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        qinv = det * np.array([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]], dtype=np.int64)
        assert (q @ np.array(m) @ qinv == np.array(form.standard_matrix())).all()

    fib = reduce(((2, 1), (1, 1)))
    assert fib.factors == (1, 1)
    assert fib.sign_flips == 0
    assert fib.conjugator == ((1, 0), (0, 1))

    corner = reduce(((3, 1), (-1, 0)))
    assert corner.factors == (1, 1)
    assert corner.conjugator == ((1, 0), (1, 1))
    assert time.monotonic() - start < 10.0


def test_planar_decay_fit_and_counting():
    model = SpectrumModel(
        omega=1,
        forward_case="EP",
        backward_case="EP",
        same_sign_multipliers=(0.5, 0.3),
        mixed_multipliers=(0.5, 0.3),
    )
    d, eta = decay_classification(model)
    assert d == 2
    assert eta == pytest.approx(math.sqrt(math.log(2.0) * math.log(10.0 / 3.0) / 2.0), rel=1e-12)

    moduli = leading_moduli(model, 2000)
    slope, _ = fit_stretched_rate(moduli, 100, 2000)
    assert abs(slope / eta - 1.0) < 0.03

    r = 1e-12
    count = counting_function(model, r)
    ratio = math.log(count) / (2.0 * math.log(abs(math.log(r)) / eta))
    assert abs(ratio - 1.0) < 0.05


def test_cone_certificate_dichotomy():
    multi_block = (
        PSI,
        psi_word((2, 1), (0.4 * np.exp(0.7j), -0.3), 1),
        psi_word((1, 2, 1), (0.3, 0.2, 0.4)),
    )
    for word in multi_block:
        report = check_psec(word, grid=64)
        assert report.passed
        assert report.margin > 0
        assert report.witnesses == ()

    report = check_psec(parse_word("F . R"), grid=64)
    assert not report.passed
    assert len(report.witnesses) >= 1


def test_area_orientation_symmetry():
    ok, dev = is_area_preserving(PSI, grid=64)
    assert ok and dev < 1e-10
    ok, dev = is_area_preserving(psi_word((2, 1), (0.4j, -0.35), 1), grid=32)
    assert ok and dev < 1e-10
    ok, dev = is_area_preserving(xi_word((1, 1), 0.5), grid=32)
    assert not ok and dev > 0.1

    h = parse_word("I01 . R")
    for k, a in ((1, 0.3), (2, 0.5), (3, 0.7)):
        square = parse_word(f"U({k},{a}) . U({k},{a})")
        assert verify_reversing_symmetry(square, h, samples=256, tol=1e-10)
        shear_pair = MapWord(
            (atom_F(),) * k + (atom_R(), atom_G(a, -a)) + (atom_F(),) * k + (atom_R(),)
        )
        assert verify_reversing_symmetry(shear_pair, h, samples=256, tol=1e-10)


def _predicted(word):
    return enumerate_eigenvalues(spectrum_model_from_word(word), 1e-3)


@pytest.mark.parametrize(
    "text, count",
    [("U(1,0.5) . U(1,0.3)", 117), ("U(2,0.4) . U(1,-0.3)", 45), ("I11 . U(1,0.4) . U(2,0.3i)", 43)],
)
def test_area_preserving_maps_predict_their_inverse_spectrum(text, count):
    # C_h and C_(h^-1) have the same spectrum where h preserves area, and
    # conjugating by I01 changes no spectrum
    h = parse_word(text)
    assert is_area_preserving(h, grid=32)[0]
    forward = _predicted(h)
    backward = _predicted(concat(parse_word("I01"), inverse(h), parse_word("I01")))
    assert sum(e.multiplicity for e in forward) == sum(e.multiplicity for e in backward) == count
    assert [e.multiplicity for e in forward] == [e.multiplicity for e in backward]
    for a, b in zip(forward, backward):
        assert abs(a.value - b.value) <= 1e-12 * abs(a.value)


def test_area_changing_map_predicts_another_inverse_spectrum():
    h = parse_word("U(1,0.2) . W(1,0.3)")
    assert not is_area_preserving(h, grid=32)[0]
    counts = [sum(e.multiplicity for e in _predicted(w))
              for w in (h, concat(parse_word("I01"), inverse(h), parse_word("I01")))]
    assert counts == [9, 19]


def test_embedding_rate():
    alpha, gamma = (0.3, 0.3), (0.5, 0.5)
    alpha_out, gamma_out = (0.5, 0.5), (0.3, 0.3)
    values = embedding_singular_values(alpha, gamma, alpha_out, gamma_out, band=60)
    eta = embedding_eta_formula(alpha, gamma, alpha_out, gamma_out)
    assert eta == pytest.approx(1.0 / math.sqrt(50.0))
    slope, _ = fit_stretched_rate(values, 100, 7000)
    assert abs(slope / eta - 1.0) < 0.02


def test_composition_transfer_duality():
    weight, _ = auto_weight(PSI)
    composition = assemble_operator(PSI, weight, band=12)
    transfer = assemble_operator(PSI, weight, band=12, kind="transfer")
    comp_values = operator_spectrum(composition)
    tran_values = operator_spectrum(transfer)
    predicted = [v for v in comp_values if abs(v) >= 1e-3]
    report = match_spectra(predicted, tran_values, floor=1e-3)
    assert not report.unmatched_predicted
    assert report.max_rel_err < 1e-6


def test_property_suites_runtime():
    start = time.monotonic()
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(root / "tests" / "test_map_algebra.py"),
            str(root / "tests" / "test_cone_geometry.py"),
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
