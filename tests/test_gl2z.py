"""Standard-form reduction, word reassembly, decay-targeted construction."""

import json
import random

import numpy as np
import pytest

from torspec import cli
from torspec.gl2z import (
    _ATOM_BUDGET,
    _IDENT,
    HomotopicMap,
    StandardForm,
    TargetInfeasible,
    _build_atom_count,
    _parameter_for_rate,
    _try_peel,
    build_homotopic_map,
    is_hyperbolic,
    matrix_to_word,
    random_hyperbolic,
    reduce,
)
from torspec.map_algebra import _mat2_mul, linear_part, parse_word, psi_word, xi_word
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


def _product(ks):
    return StandardForm(0, tuple(ks), _IDENT).standard_matrix()


# the cat map [[2,1],[1,1]] = [[1,1],[1,0]]^2 to the 33rd power
_CAT_33 = ((44945570212853, 27777890035288), (27777890035288, 17167680177565))


def test_reduce_reads_long_block_products():
    assert _product((1,) * 66) == _CAT_33
    assert reduce(_CAT_33) == StandardForm(0, (1,) * 66, _IDENT)


def test_peel_reads_back_every_block_product():
    rng = random.Random(13)
    for n in range(91):
        ks = tuple(rng.choice((1, 1, 2, 3, rng.randrange(1, 40))) for _ in range(n))
        assert _try_peel(_product(ks)) == ks
    # [..., k, 1] and [..., k + 1] share a first column but not a second
    assert _try_peel(_product((3, 1))) == (3, 1)
    assert _try_peel(_product((4,))) == (4,)
    assert _try_peel(_product((2, 3, 1))) == (2, 3, 1)


def test_peel_result_reassembles_on_other_matrices():
    rng = random.Random(17)
    read = refused = 0
    for _ in range(3000):
        if rng.randrange(2):
            x = _product([rng.randrange(1, 5) for _ in range(rng.randrange(0, 12))])
            shear = ((1, rng.randrange(-3, 4)), (0, 1)) if rng.randrange(2) else ((1, 0), (rng.randrange(-3, 4), 1))
            x = _mat2_mul(x, shear)
        else:
            x = tuple(tuple(rng.randrange(-20, 21) for _ in range(2)) for _ in range(2))
        factors = _try_peel(x)
        if factors is None:
            refused += 1
        else:
            read += 1
            assert _product(factors) == x and all(k >= 1 for k in factors)
    assert read > 100 and refused > 100


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


def _bisected_parameter(factors, s, eta, make_params):
    """The parameter where 80 halvings of [1e-6, 1 - 1e-6] pin the rate eta."""
    lo, hi = 1e-6, 1.0 - 1e-6
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if decay_classification(spectrum_model_psi(factors, make_params(mid), s))[1] > eta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _family(decay, n):
    """The psi parameters `build_homotopic_map` gives a decay family at a."""
    if decay == "stretched":
        return lambda a: (a,) * n
    return lambda a: (a, 0.0) + (a,) * (n - 2)


def test_build_parameter_is_the_bisected_one():
    # read off the closed-form rate, the parameter is the same double a
    # bisection ends at, over both decays and both sign flips
    rng, etas = random.Random(5), random.Random(6)
    covered = set()
    for _ in range(40):
        m = random_hyperbolic(rng, 20)
        form = reduce(m)
        n = len(form.factors)
        for decay in ("stretched", "exponential"):
            if decay == "exponential" and n % 2:
                continue
            eta = etas.uniform(0.3, 2.0)
            built = build_homotopic_map(m, decay, eta)
            make = _family(decay, n)
            reference = _bisected_parameter(form.factors, form.sign_flips, eta, make)
            assert built.parameter == reference
            model = spectrum_model_psi(form.factors, make(reference), form.sign_flips)
            assert (built.decay_dimension, built.eta) == decay_classification(model)
            covered.add((decay, form.sign_flips))
    assert covered == {(d, s) for d in ("stretched", "exponential") for s in (0, 1)}


def test_build_refuses_a_rate_where_a_modulus_underflows():
    # the closed form puts rate 360 of the blocks (120, 53) at a ~ 1.7e-3,
    # where a^120 underflows to 0 and the planar families drop out: the
    # walk stops at once instead of stepping toward the axis-rate crossing
    m = ((6361, 120), (53, 1))
    assert reduce(m).factors == (120, 53)
    with pytest.raises(TargetInfeasible, match="multiplier modulus underflows"):
        build_homotopic_map(m, "stretched", 360.0)
    built = build_homotopic_map(m, "stretched", 1.0)
    assert built.decay_dimension == 2
    assert built.parameter == _bisected_parameter((120, 53), 0, 1.0, _family("stretched", 2))


def test_build_exponential_where_the_range_probe_underflows():
    # at a = 1e-6 every multiplier modulus of the blocks (120, 53) underflows,
    # so the range probe there reads no rate: it bounds nothing, the parameter
    # is still the bisected one, and a target beyond the underflow is refused
    m = ((6361, 120), (53, 1))
    make = _family("exponential", 2)
    assert decay_classification(spectrum_model_psi((120, 53), make(1e-6), 0)) == (0, None)
    built = build_homotopic_map(m, "exponential", 1.0)
    assert built.decay_dimension == 1
    assert built.parameter == _bisected_parameter((120, 53), 0, 1.0, make)
    with pytest.raises(TargetInfeasible, match="multiplier modulus underflows"):
        build_homotopic_map(m, "exponential", 1000.0)


def test_parameter_keeps_the_decay_dimension_of_the_family():
    # two rates cross 23.057...: a planar one near 0.49 and, where a^260
    # underflows, an axis one; the bisection ends on the axis crossing
    factors, eta, make = (3, 260, 3, 95), 23.05711993267736, _family("stretched", 4)
    a, d, achieved = _parameter_for_rate(factors, 1, eta, make)
    assert (a, d) == (0.49335344907863654, 2) and abs(achieved - eta) < 1e-6
    reference = _bisected_parameter(factors, 1, eta, make)
    assert decay_classification(spectrum_model_psi(factors, make(reference), 1))[0] == 1


def test_parameter_walk_is_bounded(monkeypatch):
    # a rate that is not homogeneous in log a, log(a)^2, puts the closed-form
    # estimate far from the crossing: the walk gives up after its step budget
    import math

    calls = []
    monkeypatch.setattr("torspec.gl2z.spectrum_model_psi", lambda factors, params, s: params[0])
    monkeypatch.setattr("torspec.gl2z.decay_classification", lambda a: calls.append(a) or (2, math.log(a) ** 2))
    with pytest.raises(TargetInfeasible, match="not crossed within 64 doubles"):
        _parameter_for_rate((1, 1), 0, 1.0, lambda a: (a, a))
    assert len(calls) <= 3 + 2 * 64


# the first 10 distinct classes of random_hyperbolic(random.Random(11),
# entry_bound=6): the exit code of `build --decay stretched --eta 1.0` and
# the first line it writes to stderr
_BUILD_OUTCOMES = [
    (((-3, -1), (-1, 0)), 0, None),
    (((0, 1), (1, 3)), 0, None),
    (((4, 3), (1, 1)), 0, None),
    (((-5, -3), (-3, -2)), 0, None),
    (((-4, -3), (-1, -1)), 0, None),
    (((2, 1), (1, 0)), 0, None),
    (
        ((1, -1), (-1, 0)),
        3,
        "torspec: certification failed: could not certify the forward sector mapping for this word; "
        "supply explicit weight scales or check hyperbolicity",
    ),
    (((2, 1), (1, 1)), 0, None),
    (((4, 1), (3, 1)), 0, None),
    (((3, 2), (1, 1)), 0, None),
]


def test_build_outcomes_on_seeded_classes(capsys):
    rng, classes = random.Random(11), []
    while len(classes) < 10:
        m = random_hyperbolic(rng, entry_bound=6)
        if m not in classes:
            classes.append(m)
    assert classes == [m for m, _, _ in _BUILD_OUTCOMES]
    for m, code, first_err in _BUILD_OUTCOMES:
        matrix = json.dumps([list(row) for row in m])
        assert cli.main(["build", "--matrix", matrix, "--decay", "stretched", "--eta", "1.0"]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines()[:1] == ([first_err] if first_err else [])
        if code == 0:
            form = reduce(m)
            make = _family("stretched", len(form.factors))
            reference = _bisected_parameter(form.factors, form.sign_flips, 1.0, make)
            assert json.loads(captured.out)["parameter"] == reference


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
