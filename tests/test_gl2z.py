"""Standard-form reduction, word reassembly, decay-targeted construction."""

import random

import numpy as np
import pytest

from torspec.gl2z import (
    _ATOM_BUDGET,
    HomotopicMap,
    StandardForm,
    TargetInfeasible,
    _build_atom_count,
    build_homotopic_map,
    is_hyperbolic,
    matrix_to_word,
    random_hyperbolic,
    reduce,
)
from torspec.map_algebra import linear_part, parse_word, psi_word, xi_word
from torspec.resonance_theory import (
    decay_classification,
    spectrum_model_from_word,
    spectrum_model_psi,
)


def _mat(m):
    return tuple(tuple(int(v) for v in row) for row in m)


def test_is_hyperbolic():
    assert is_hyperbolic(((2, 1), (1, 1)))
    assert is_hyperbolic(((1, 1), (1, 0)))
    assert is_hyperbolic(((-2, -1), (-1, -1)))
    assert not is_hyperbolic(((1, 1), (0, 1)))
    assert not is_hyperbolic(((0, 1), (1, 0)))
    assert not is_hyperbolic(((0, -1), (1, 0)))
    with pytest.raises(ValueError):
        is_hyperbolic(((2, 0), (0, 2)))
    with pytest.raises(ValueError):
        is_hyperbolic(((1.5, 0), (0, 1)))


def test_reduce_cat_is_identity_conjugation():
    form = reduce(((2, 1), (1, 1)))
    assert form == StandardForm(0, (1, 1), ((1, 0), (0, 1)))


def test_reduce_corner_branch():
    form = reduce(((3, 1), (-1, 0)))
    assert form.sign_flips == 0
    assert form.factors == (1, 1)
    assert form.conjugator == ((1, 0), (1, 1))


def test_reduce_negative_trace():
    form = reduce(((-2, -1), (-1, -1)))
    assert form.sign_flips == 1
    assert form.factors == (1, 1)


def test_reduce_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        reduce(((1, 1), (0, 1)))


def test_reduce_random_reassembly():
    rng = random.Random(7)
    for _ in range(40):
        m = random_hyperbolic(rng)
        form = reduce(m)
        assert all(k >= 1 for k in form.factors)
        q = np.array(form.conjugator)
        qinv = np.round(np.linalg.inv(q)).astype(int)
        lhs = q @ np.array(m) @ qinv
        assert np.array_equal(lhs, np.array(form.standard_matrix()))


def test_matrix_to_word_pins():
    w = matrix_to_word(((2, 1), (1, 1)))
    assert np.array_equal(linear_part(w), [[2, 1], [1, 1]])
    assert np.array_equal(linear_part(matrix_to_word(((1, 0), (0, 1)))), np.eye(2))
    assert np.array_equal(
        linear_part(matrix_to_word(((-1, 0), (0, -1)))), [[-1, 0], [0, -1]]
    )
    w = matrix_to_word(((0, -1), (1, 5)))
    assert np.array_equal(linear_part(w), [[0, -1], [1, 5]])


def test_matrix_to_word_random_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        m = random_hyperbolic(rng, entry_bound=50)
        w = matrix_to_word(m)
        assert np.array_equal(linear_part(w), np.array(m))
    with pytest.raises(ValueError):
        matrix_to_word(((2, 0), (0, 1)))


def test_build_trivial():
    built = build_homotopic_map(((2, 1), (1, 1)), "trivial")
    assert built.decay_dimension == 0 and built.eta is None
    assert np.array_equal(linear_part(built.word), [[2, 1], [1, 1]])
    model = spectrum_model_from_word(built.word)
    assert decay_classification(model) == (0, None)


def test_build_stretched_hits_rate():
    target = 0.5
    built = build_homotopic_map(((2, 1), (1, 1)), "stretched", target)
    assert built.decay_dimension == 2
    assert abs(built.eta - target) <= 1e-6
    assert np.array_equal(linear_part(built.word), [[2, 1], [1, 1]])
    # closed form at the fitted parameter reproduces the same rate
    model = spectrum_model_psi((1, 1), (built.parameter,) * 2, 0)
    assert decay_classification(model)[1] == pytest.approx(target, abs=1e-6)


def test_build_exponential_hits_rate():
    target = 0.8
    built = build_homotopic_map(((2, 1), (1, 1)), "exponential", target)
    assert built.decay_dimension == 1
    assert abs(built.eta - target) <= 1e-6
    assert np.array_equal(linear_part(built.word), [[2, 1], [1, 1]])
    # analytic inversion of the single-axis rate: eta = S_odd |ln a| / 2
    s_odd = sum(built.standard_form.factors[::2])
    import math

    assert built.parameter == pytest.approx(math.exp(-2 * target / s_odd), rel=1e-9)


def test_build_conjugated_frame():
    rng = random.Random(3)
    while True:
        m = random_hyperbolic(rng)
        if reduce(m).conjugator != ((1, 0), (0, 1)) and len(reduce(m).factors) >= 2:
            break
    built = build_homotopic_map(m, "stretched", 0.6)
    assert np.array_equal(linear_part(built.word), np.array(m))


def test_build_infeasible_cases():
    # single block: no resonance-free realization
    with pytest.raises(TargetInfeasible):
        build_homotopic_map(((1, 1), (1, 0)), "trivial")
    # odd block count: no single-axis realization
    with pytest.raises(TargetInfeasible):
        build_homotopic_map(((1, 1), (1, 0)), "exponential", 0.5)
    with pytest.raises(TargetInfeasible):
        build_homotopic_map(((2, 1), (1, 1)), "stretched", 1e9)
    with pytest.raises(ValueError):
        build_homotopic_map(((2, 1), (1, 1)), "stretched")
    with pytest.raises(ValueError):
        build_homotopic_map(((2, 1), (1, 1)), "oscillating", 0.5)


def test_build_result_is_record():
    built = build_homotopic_map(((2, 1), (1, 1)), "trivial")
    assert isinstance(built, HomotopicMap)
    assert built.standard_form.factors == (1, 1)
    assert built.parameter == 0.5


def test_build_atom_count_matches_expanded_words():
    largest = 0
    for seed in range(1, 11):
        rng = random.Random(seed)
        for _ in range(5):
            form = reduce(random_hyperbolic(rng, entry_bound=20))
            frame = len(matrix_to_word(form.conjugator))
            n = len(form.factors)
            psi = len(psi_word(form.factors, (0.5,) * n, form.sign_flips))
            assert _build_atom_count(form, "stretched") == 2 * frame + psi
            assert _build_atom_count(form, "exponential") == 2 * frame + psi
            if n >= 2:
                xi = len(xi_word(form.factors, 0.5, form.sign_flips))
                assert _build_atom_count(form, "trivial") == 2 * frame + xi
            largest = max(largest, _build_atom_count(form, "stretched"))
    # seeded matrices sit far inside the budget
    assert largest <= 40 < _ATOM_BUDGET


def test_build_refuses_words_over_the_atom_budget():
    # one block of k shears: k + 3 atoms, so k = budget - 2 is one atom over
    at_budget = ((_ATOM_BUDGET - 3, 1), (1, 0))
    assert _build_atom_count(reduce(at_budget), "stretched") == _ATOM_BUDGET
    over = ((_ATOM_BUDGET - 2, 1), (1, 0))
    assert _build_atom_count(reduce(over), "stretched") == _ATOM_BUDGET + 1
    with pytest.raises(ValueError, match="over the budget"):
        build_homotopic_map(over, "stretched", 0.5)
