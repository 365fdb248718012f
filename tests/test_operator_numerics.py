"""Truncated operator assembly: structure oracles, matching, duality, export."""

import cmath
import math

import numpy as np
import pytest

from torspec.cone_geometry import QuadrantWeight
from torspec.dynamics_checks import auto_weight
from torspec.map_algebra import (
    atom_I,
    complex_jacobian,
    evaluate,
    linear_part,
    parse_word,
    psi_word,
)
from torspec.operator_numerics import (
    AssembledOperator,
    TruncationSizeError,
    _grid_points,
    assemble_operator,
    hs_margin,
    match_spectra,
    numeric_trace_power,
    operator_spectrum,
    write_spectrum_csv,
)
from torspec.resonance_theory import (
    closed_trace,
    enumerate_eigenvalues,
    spectrum_model_psi,
)

CAT = parse_word("F . F . R")


def _mode_index(n1, n2, band):
    return (n1 + band) * (2 * band + 1) + (n2 + band)


@pytest.fixture(scope="module")
def cat_operator():
    weight, _ = auto_weight(CAT)
    return weight, assemble_operator(CAT, weight, 10)


@pytest.fixture(scope="module")
def psi_operator():
    word = psi_word((1, 1), (0.5, 0.3), 0)
    weight, _ = auto_weight(word)
    return word, weight, assemble_operator(word, weight, 8)


def test_automorphism_matrix_is_mode_permutation(cat_operator):
    weight, op = cat_operator
    assert op.converged and op.max_change < 1e-8
    m = op.matrix
    # one entry per column at the transposed-matrix image mode, or none
    a = linear_part(CAT)
    for n1, n2 in ((1, 0), (0, 1), (-2, 3)):
        img = (a[0][0] * n1 + a[1][0] * n2, a[0][1] * n1 + a[1][1] * n2)
        col = m[:, _mode_index(n1, n2, 10)]
        expected = math.exp(
            weight.log_weight(img) - weight.log_weight((n1, n2))
        )
        assert abs(col[_mode_index(img[0], img[1], 10)] - expected) < 1e-12
        assert np.count_nonzero(col) == 1
    # image mode (15, 10) falls outside the band: empty column
    assert np.count_nonzero(m[:, _mode_index(5, 5, 10)]) == 0
    assert np.count_nonzero(m, axis=0).max() == 1


def test_automorphism_truncation_deflates_exactly(cat_operator):
    _, op = cat_operator
    spec = operator_spectrum(op)
    assert abs(spec[0] - 1.0) < 1e-12
    assert np.abs(spec[1:]).max() < 1e-10


def test_identity_word_gives_identity_matrix():
    weight = QuadrantWeight.standard((0.1, 0.2), (0.15, 0.1))
    op = assemble_operator(parse_word("I00"), weight, 3)
    assert np.allclose(op.matrix, np.eye(49), atol=1e-13)


def test_grid_jacobian_matches_finite_differences():
    # the maps are holomorphic, so a real central difference gives d/dz
    words = [
        psi_word((2, 1), (0.4 + 0.2j, -0.3), 0),
        parse_word("G(0.3, -0.2i) . F . R"),
        parse_word("I10 . Finv . G(0.5i, 0.2) . R . F"),
    ]
    z1, z2 = _grid_points(8)
    h = 1e-6
    for word in words:
        det = np.linalg.det(complex_jacobian(word, (z1, z2)))
        columns = []
        for dz1, dz2 in ((h, 0.0), (0.0, h)):
            plus = evaluate(word, (z1 + dz1, z2 + dz2))
            minus = evaluate(word, (z1 - dz1, z2 - dz2))
            columns.append([(p - m) / (2 * h) for p, m in zip(plus, minus)])
        (a, c), (b, d) = columns
        assert np.abs(det - (a * d - b * c)).max() < 1e-7


def test_closed_form_spectrum_matches_truncation(psi_operator):
    _, _, op = psi_operator
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    rep = match_spectra(
        enumerate_eigenvalues(model, 1e-2), operator_spectrum(op), floor=1e-2
    )
    assert len(rep.pairs) == 51
    assert rep.max_rel_err < 1e-8
    assert not rep.unmatched_predicted
    assert not rep.unmatched_computed


def test_transfer_duality(psi_operator):
    word, weight, op = psi_operator
    dual_side = assemble_operator(word, weight, 8, kind="transfer")
    comp = operator_spectrum(op)
    rep = match_spectra(
        list(comp[np.abs(comp) >= 1e-2]),
        operator_spectrum(dual_side),
        floor=1e-2,
    )
    assert rep.max_rel_err < 1e-8
    assert not rep.unmatched_computed


def test_trace_powers_cat(cat_operator):
    _, op = cat_operator
    for k in (1, 2, 5):
        assert abs(numeric_trace_power(op, k) - 1.0) < 1e-12


def test_trace_powers_match_closed_form():
    word = psi_word((1, 1), (0.5, 0.3), 0)
    weight, _ = auto_weight(word)
    op = assemble_operator(word, weight, 12)
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    # order-1 truncation tail at this band sits near 1e-3; from order 2 on
    # the identity is far inside tolerance
    for k in range(2, 6):
        assert abs(numeric_trace_power(op, k) - closed_trace(model, k)) < 1e-6


def test_match_spectra_bookkeeping():
    rep = match_spectra([1.0, 0.5 + 0j, 0.1j], [1.0 + 1e-9j, 0.5000001], floor=0.0)
    assert len(rep.pairs) == 2
    assert rep.unmatched_predicted == (0.1j,)
    assert rep.max_rel_err < 1e-6
    rep2 = match_spectra([1.0], [1.0, 0.2, 1e-9], floor=1e-3)
    assert rep2.unmatched_computed == (0.2,)


def test_hs_margin_sign():
    weight, _ = auto_weight(CAT)
    m = hs_margin(weight, linear_part(CAT))
    assert -0.06 < m < -0.04
    assert hs_margin(weight, ((1, 0), (0, 1))) == 0.0
    with pytest.raises(ValueError):
        hs_margin(weight, ((1, 0, 0), (0, 1, 0)))


def test_spectrum_csv(tmp_path):
    values = [1.0 + 0j, 0.5 - 0.25j]
    plain = tmp_path / "spec.csv"
    write_spectrum_csv(plain, values)
    lines = plain.read_text().strip().splitlines()
    assert lines[0] == "re,im,modulus"
    re, im, mod = (float(x) for x in lines[2].split(","))
    assert (re, im) == (0.5, -0.25) and mod == abs(0.5 - 0.25j)
    plot = tmp_path / "plot.csv"
    write_spectrum_csv(plot, values, plot_data=True)
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "index,modulus,sqrt_index,neglog"
    row = lines[2].split(",")
    assert int(row[0]) == 2
    assert float(row[3]) == pytest.approx(-math.log(abs(0.5 - 0.25j)), rel=1e-15)


def test_assembly_validation():
    weight = QuadrantWeight.standard((0.1, 0.1), (0.1, 0.1))
    with pytest.raises(TruncationSizeError):
        assemble_operator(CAT, weight, 17)
    with pytest.raises(ValueError):
        assemble_operator(CAT, weight, 0)
    with pytest.raises(ValueError):
        assemble_operator(CAT, weight, 4, kind="adjoint")
    with pytest.raises(ValueError):
        numeric_trace_power(np.eye(3), 0)


def test_spectrum_sort_order():
    m = np.diag([0.5, -0.5, 1.0, 0.5j])
    spec = operator_spectrum(m)
    assert spec[0] == 1.0
    # equal moduli ordered by argument in [0, 2pi)
    assert np.allclose(spec[1:], [0.5, 0.5j, -0.5])
