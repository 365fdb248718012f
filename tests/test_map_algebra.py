"""Word algebra: parsing, evaluation, Jacobians, simplification."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec.fixed_points import _chordal
from torspec.map_algebra import (
    _CHART,
    INF,
    Atom,
    IndeterminatePointError,
    MapWord,
    PoleInChainError,
    WordSyntaxError,
    _interpret,
    _Walk,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    complex_jacobian,
    concat,
    evaluate,
    evaluate_lifted,
    inverse,
    lifted_jacobian,
    linear_part,
    moebius_lift,
    orientation,
    parse_word,
    psi_word,
    simplify,
    u_block,
    w_block,
    word_power,
    word_to_text,
    xi_word,
)


def torus(x1, x2):
    return (cmath.exp(1j * x1), cmath.exp(1j * x2))


# --- strategies -----------------------------------------------------------

disk_params = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)


@st.composite
def atoms_strategy(draw, params=disk_params):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(params), draw(params))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


words_strategy = st.lists(atoms_strategy(), min_size=0, max_size=8).map(MapWord)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


# --- parsing --------------------------------------------------------------


def test_parse_simple_word():
    word = parse_word("F . R")
    assert len(word) == 2
    assert word[0].kind == "F" and word[1].kind == "R"


def test_parse_u_sugar_expands():
    word = parse_word("I11 . U(2, 0.5+0.1i) . U(1, -0.3)")
    # I11 + (G, F, F, R, G) + (G, F, R, G)
    assert len(word) == 1 + 5 + 4
    kinds = [a.kind for a in word]
    assert kinds == ["I", "G", "F", "F", "R", "G", "G", "F", "R", "G"]
    assert word[1].b == 0.5 + 0.1j
    assert word[5].a == -(0.5 + 0.1j)


def test_parse_w_sugar_expands():
    word = parse_word("W(3, 0.25)")
    kinds = [a.kind for a in word]
    assert kinds == ["F", "F", "F", "R", "G"]
    assert word[-1].a == 0 and word[-1].b == 0.25


def test_parse_complex_forms():
    word = parse_word("G(0.5i, -1.0e-1) . G(0.1-0.2i, 0)")
    assert word[0].a == 0.5j
    assert word[0].b == -0.1
    assert word[1].a == 0.1 - 0.2j


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (parse_word, ("F . R)",), WordSyntaxError, "unbalanced ')' (atom 1)"),
        (parse_word, ("G(0.5, 0) . F . (R . F",), WordSyntaxError, "unbalanced '(' (atom 2)"),
        (parse_word, ("",), WordSyntaxError, "empty word (atom 0)"),
        (parse_word, ("F . . R",), WordSyntaxError, "empty atom (atom 1)"),
        (parse_word, ("R . $",), WordSyntaxError, "cannot parse atom '$' (atom 1)"),
        (parse_word, ("Q",), WordSyntaxError, "unknown atom 'Q' (atom 0)"),
        (parse_word, ("F . Q",), WordSyntaxError, "unknown atom 'Q' (atom 1)"),
        (parse_word, ("F . G(0.5x, 0)",), WordSyntaxError, "bad numeric literal '0.5x' (atom 1)"),
        (parse_word, ("G(0.5, 1..2)",), WordSyntaxError, "bad numeric literal ' 1..2' (atom 0)"),
        (parse_word, ("G(, 0)",), WordSyntaxError, "bad numeric literal '' (atom 0)"),
        (parse_word, ("R . G(1e999, 0)",), WordSyntaxError, "non-finite literal '1e999' (atom 1)"),
        (parse_word, ("F . I(0.5, 1)",), WordSyntaxError, "expected an integer, got '0.5' (atom 1)"),
        (parse_word, ("U(a, 0.5)",), WordSyntaxError, "expected an integer, got 'a' (atom 0)"),
        (parse_word, ("F(1)",), WordSyntaxError, "F takes no arguments (atom 0)"),
        (parse_word, ("R . I01(0)",), WordSyntaxError, "I01 takes no arguments (atom 1)"),
        (parse_word, ("F . R . I(1)",), WordSyntaxError, "I takes (k, l) (atom 2)"),
        (parse_word, ("I(2, 0)",), WordSyntaxError, "I(k, l) requires k, l in {0, 1} (atom 0)"),
        (parse_word, ("G(0.5)",), WordSyntaxError, "G takes (a, b) (atom 0)"),
        (parse_word, ("G(1.5, 0)",), WordSyntaxError,
         "G parameter a must lie strictly inside the unit disk, got (1.5+0j) (atom 0)"),
        (parse_word, ("F . U(1, 0.5, 2)",), WordSyntaxError, "U takes (k, a) (atom 1)"),
        (parse_word, ("U(0, 0.5)",), WordSyntaxError, "U requires k >= 1 (atom 0)"),
        (parse_word, ("R . W(0, 0.5)",), WordSyntaxError, "W requires k >= 1 (atom 1)"),
        (parse_word, ("F . U(1, 1i)",), WordSyntaxError,
         "G parameter b must lie strictly inside the unit disk, got 1j (atom 1)"),
        (parse_word, (42,), TypeError, "parse_word expects a string"),
        (parse_word, (None,), TypeError, "parse_word expects a string"),
        (atom_G, (1.0, 0), ValueError, "G parameter a must lie strictly inside the unit disk, got (1+0j)"),
        (Atom, ("X",), ValueError, "unknown atom kind 'X'"),
        (Atom, ("I", 0, -1), ValueError, "I(k, l) requires k, l in {0, 1}"),
        (Atom, ("G", 0, 0, math.inf, 0), ValueError, "G parameter a must be finite, got (inf+0j)"),
        (Atom, ("G", 0, 0, 0, complex("nan")), ValueError, "G parameter b must be finite, got (nan+0j)"),
        (MapWord, ([atom_F(), "R"],), TypeError, "atom 1 is not an Atom: 'R'"),
        (u_block, (0, 0.5), ValueError, "u_block requires an integer k >= 1"),
        (u_block, (1.5, 0.5), ValueError, "u_block requires an integer k >= 1"),
        (w_block, (2.5, 0.1), ValueError, "w_block requires an integer k >= 1"),
        (psi_word, ([1], [0.5], 2), ValueError, "s must be 0 or 1"),
        (psi_word, ([1, 2], [0.5]), ValueError, "need equally many exponents and parameters, at least one"),
        (psi_word, ([], []), ValueError, "need equally many exponents and parameters, at least one"),
        (xi_word, ([1, 2], 0.5, -1), ValueError, "s must be 0 or 1"),
        (xi_word, ([1], 0.5), ValueError, "need at least two blocks"),
        # (F . R)^n has Fibonacci entries; the 90th power's pass 2**62
        (linear_part, (word_power(parse_word("F . R"), 90),), OverflowError,
         "degree matrix entries exceed the int64 range"),
    ],
)
def test_refusals(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error and str(info.value) == message
    if error is WordSyntaxError:
        assert message.endswith(f"(atom {info.value.position})")


def test_long_form_I_is_the_short_atom():
    assert parse_word(" I( 0 ,1 ) ") == parse_word("I01") == MapWord([atom_I(0, 1)])
    assert word_to_text(parse_word("I(1, 0) . F")) == "I10 . F"


@given(words_strategy)
@settings(max_examples=60)
def test_text_roundtrip(word):
    assert parse_word(word_to_text(word)) == word if len(word) else True
    if len(word) == 0:
        with pytest.raises(WordSyntaxError):
            parse_word(word_to_text(word))


# --- evaluation -----------------------------------------------------------


def test_shear_and_swap_evaluation():
    z = torus(0.3, 1.1)
    w = evaluate(parse_word("F . R"), z)
    # F(R(z)) = (z2 * z1, z1)
    assert abs(w[0] - z[0] * z[1]) < 1e-15
    assert abs(w[1] - z[0]) < 1e-15


def test_cat_word_is_monomial():
    z = torus(0.7, -0.2)
    w = evaluate(parse_word("F . R . F . R"), z)
    assert abs(w[0] - z[0] ** 2 * z[1]) < 1e-14
    assert abs(w[1] - z[0] * z[1]) < 1e-14


def test_blaschke_at_infinity():
    a = 0.5 + 0.1j
    assert evaluate([atom_G(0, 0)], (INF, 1.0))[0] is INF
    w = evaluate([atom_G(a, 0)], (INF, 1.0))
    assert abs(w[0] - (-1 / a.conjugate())) < 1e-15
    assert w[1] == 1


def test_blaschke_pole_goes_to_infinity():
    w = evaluate([atom_G(0.5, 0)], (2.0, 1.0))  # 1/conj(0.5) = 2 is the pole
    assert w[0] is INF


def test_indeterminate_zero_times_infinity():
    with pytest.raises(IndeterminatePointError):
        evaluate([atom_F()], (0.0, INF))
    with pytest.raises(IndeterminatePointError):
        evaluate([atom_Finv()], (0.0, 0.0))


def test_inversion_atom_extends():
    w = evaluate([atom_I(1, 1)], (0.0, INF))
    assert w[0] is INF and w[1] == 0


@given(words_strategy, angles, angles)
@settings(max_examples=60)
def test_inverse_roundtrip(word, x1, x2):
    z = torus(x1, x2)
    w = evaluate(concat(word, inverse(word)), z)
    assert abs(w[0] - z[0]) < 1e-7
    assert abs(w[1] - z[1]) < 1e-7


@given(words_strategy, angles, angles)
@settings(max_examples=60)
def test_torus_preserved(word, x1, x2):
    w = evaluate(word, torus(x1, x2))
    assert abs(abs(w[0]) - 1) < 1e-9
    assert abs(abs(w[1]) - 1) < 1e-9


@given(words_strategy, angles, angles)
@settings(max_examples=60)
def test_lift_matches_complex_evaluation(word, x1, x2):
    w = evaluate(word, torus(x1, x2))
    y1, y2 = evaluate_lifted(word, (x1, x2))
    assert abs(cmath.exp(1j * y1) - w[0]) < 1e-7
    assert abs(cmath.exp(1j * y2) - w[1]) < 1e-7


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(words_strategy, st.lists(st.tuples(angles, angles), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_array_call_matches_pointwise_calls(word, points):
    # one interpreter serves scalars (as 0-d arrays) and grids: the same bits
    x1 = np.array([p[0] for p in points])
    x2 = np.array([p[1] for p in points])
    z = (np.exp(1j * x1), np.exp(1j * x2))
    grid_values = evaluate(word, z)
    grid_lifted = evaluate_lifted(word, (x1, x2))
    grid_jac = complex_jacobian(word, z)
    grid_ljac = lifted_jacobian(word, (x1, x2))
    for i in range(len(points)):
        zi = (z[0][i], z[1][i])
        for c in (0, 1):
            assert _same_bits(grid_values[c][i], evaluate(word, zi)[c])
            assert _same_bits(grid_lifted[c][i], evaluate_lifted(word, (x1[i], x2[i]))[c])
        assert _same_bits(grid_jac[i], complex_jacobian(word, zi))
        assert _same_bits(grid_ljac[i], lifted_jacobian(word, (x1[i], x2[i])))


def _check_open_grid(word, u, v):
    # a lifted walk on a column and a row keeps them apart until an atom
    # mixes the coordinates; every entry keeps the full grid's bits
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    full = np.meshgrid(u, v, indexing="ij")
    open_grid = (u[:, None], v[None, :])
    assert _same_bits(lifted_jacobian(word, open_grid), lifted_jacobian(word, full))
    for image, reference in zip(evaluate_lifted(word, open_grid), evaluate_lifted(word, full)):
        assert image.shape == (len(u), len(v))
        assert _same_bits(image, reference)
    z = (np.exp(1j * u)[:, None], np.exp(1j * v)[None, :])
    jac = complex_jacobian(word, z)
    assert jac.dtype == complex and jac.shape == (len(u), len(v), 2, 2)


@given(
    words_strategy,
    st.lists(angles, min_size=1, max_size=5),
    st.lists(angles, min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_open_grid_matches_full_grid(word, u, v):
    _check_open_grid(word, u, v)


@pytest.mark.parametrize(
    "text",
    [
        # words apply right to left: each acts on one coordinate before any shear
        "F . R . G(0.3+0.1i,-0.5)",
        "Finv . G(0.2,0.4i) . I11",
        "R . G(0.5,-0.25) . I11",
        "G(0.1,0.6) . I01",
        "I11 . U(2,0.4) . U(1,-0.3)",
        "",
    ],
)
def test_open_grid_matches_full_grid_on_fixed_words(text):
    word = parse_word(text) if text else MapWord()
    _check_open_grid(word, np.linspace(-3.0, 9.0, 7), np.linspace(0.1, 6.2, 4))


def test_array_evaluation_at_infinity():
    assert evaluate([atom_Finv()], (2.0, INF)) == (0j, INF)
    inf = complex(math.inf, 0.0)
    w = evaluate([atom_G(0.5, 0), atom_I(1, 0)], (np.array([0.0, 1.0, inf]), np.ones(3)))
    assert w[0][0] == -2 and w[0][1] == 1 and w[0][2] == -0.5
    with pytest.raises(IndeterminatePointError) as info:
        evaluate([atom_R(), atom_F()], (np.array([1.0, 0.0]), np.array([2.0, inf])))
    assert info.value.atom_index == 1


# Nonzero moduli of coordinates and G parameters stay above 1e-30, so no
# quotient an 8-atom word forms has a subnormal divisor: numpy's complex
# division makes 0 / 1e-320 nan, which `evaluate` divides again (see
# test_evaluate_divides_by_a_subnormal).
def _nonzero_above(floor, top):
    return st.complex_numbers(min_magnitude=floor, max_magnitude=top, allow_nan=False, allow_infinity=False)


chart_words = st.lists(
    atoms_strategy(st.one_of(st.just(0j), _nonzero_above(1e-30, 0.8))), max_size=8
).map(MapWord)
extended_coords = st.one_of(st.just(0j), st.just(INF), _nonzero_above(1e-30, 1.5))


def _chart_coord(z):
    """(stored value, chart bit) of an extended coordinate; any complex infinity is INF."""
    if np.isinf(z):
        return 0j, 1
    return (z, 0) if abs(z) <= 1 else (1 / z, 1)


@given(chart_words, extended_coords, extended_coords)
@settings(max_examples=200)
def test_chart_column_matches_evaluate(word, z1, z2):
    # the fixed points' chart column and `evaluate` are two columns of one
    # table: they fail at the same atom or agree on the sphere
    (v1, b1), (v2, b2) = _chart_coord(z1), _chart_coord(z2)
    state = _Walk([v1, v2], [b1, b2], None)
    try:
        _interpret(state, word.atoms, _CHART)
    except IndeterminatePointError as exc:
        with pytest.raises(IndeterminatePointError) as info:
            evaluate(word, (z1, z2))
        assert info.value.atom_index == exc.atom_index
        return
    for w, v, b in zip(evaluate(word, (z1, z2)), state.w, state.inf):
        assert _chordal(v, b, *_chart_coord(w)) < 1e-12


@pytest.mark.parametrize(
    "text, z, expected",
    [
        # 1 / 2.2e-311 overflows: the point at infinity, and the second I takes it to 0
        ("I10 . I10", (2.2e-311, 0), (0j, 0j)),
        # z1 = -0.5 / (-6.4e-263)^2 overflows to the point at infinity, which G(0.5) takes to -2
        ("G(0.5,0) . Finv . Finv . G(0.5,6.4e-263)", (0, 0), (-2 + 0j, -6.4e-263 + 0j)),
    ],
)
def test_evaluate_reads_an_overflowed_value_as_infinity(text, z, expected):
    # a modulus beyond the float range is within 1/1.8e308 of infinity on the
    # sphere; before, the overflowed value stayed finite and turned into nan
    word = parse_word(text)
    assert evaluate(word, z) == expected
    (v1, b1), (v2, b2) = _chart_coord(z[0]), _chart_coord(z[1])
    state = _Walk([v1, v2], [b1, b2], None)
    _interpret(state, word.atoms, _CHART)
    for w, v, b in zip(expected, state.w, state.inf):
        assert _chordal(v, b, *_chart_coord(w)) < 1e-12


@pytest.mark.parametrize(
    "z, quotient",
    [
        ((1e-320, 1e-320), 0.9999999999999999),
        ((1e-300, 1e-320), 1.000011132941258e20),
        ((0, 1e-320), 0j),
        ((1e-320j, 1e-320 + 1e-320j), 0.49999999999999994 + 0.49999999999999994j),
    ],
)
def test_evaluate_divides_by_a_subnormal(z, quotient):
    # numpy's complex division by a subnormal goes by way of the overflowed
    # reciprocal, so its quotient is not finite; `evaluate` divides again
    # with both operands scaled by 2**54 and agrees with the chart column
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        assert not np.isfinite(np.array([complex(z[0])]) / np.array([complex(z[1])]))[0]
    w = evaluate(parse_word("R . Finv"), z)
    assert w == (z[1], quotient)
    (v1, b1), (v2, b2) = _chart_coord(z[0]), _chart_coord(z[1])
    state = _Walk([v1, v2], [b1, b2], None)
    _interpret(state, (atom_R(), atom_Finv()), _CHART)
    for got, v, b in zip(w, state.w, state.inf):
        assert _chordal(v, b, *_chart_coord(got)) < 1e-12


def test_evaluate_divides_huge_over_huge():
    # the sum in numpy's denominator overflows, so the reciprocal is 0 and the
    # quotient nan, and scaling both operands up overflows again; where
    # |divisor| >= 1 they are scaled down by 2**-54 instead
    z = 1e308 + 1e308j
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(np.array([z]) / np.array([z]))[0]
    assert evaluate(parse_word("R . Finv"), (z, z)) == (z, 1)


@pytest.mark.parametrize("text, limit", [("G(0.5,0)", -2), ("G(0.5i,0)", -2j)])
def test_evaluate_G_divides_huge_over_huge(text, limit):
    # b_a(z) = (z - a) / (1 - conj(a) z) tends to -1/conj(a) as z grows; at
    # 1e308 + 1e308i numpy's quotient of the two huge terms overflows, and G
    # divides again through the same rule as Finv and I
    w1, w2 = evaluate(parse_word(text), (1e308 + 1e308j, 1))
    assert np.isfinite(w1) and abs(w1 - limit) < 1e-12 and w2 == 1


def test_evaluate_refuses_a_quotient_that_stays_nan():
    # huge over small: numpy's quotient is inf + inf i, scaling up overflows
    # the numerator to inf + inf i, and over a real divisor that gives
    # inf * 0 = nan in both parts; the divisor is below 1, so nothing scales down
    with pytest.raises(IndeterminatePointError, match=r"quotient is nan .*\(atom index 0\)"):
        evaluate(parse_word("Finv"), (1e300 + 1e300j, 1e-10))


def test_evaluate_passes_a_nan_operand_through_quotients():
    # only a nan the quotient itself makes is refused: a nan coordinate comes
    # back nan, point by point, and the other points of the array are kept
    nan = complex("nan")
    w1, w2 = evaluate(parse_word("I10 . Finv"), (nan, 1))
    assert np.isnan(w1) and w2 == 1
    w1, w2 = evaluate(parse_word("Finv . G(0.5,0)"), (np.array([nan, 0.3]), np.array([1, 2])))
    assert np.isnan(w1[0]) and not np.isnan(w1[1]) and list(w2) == [1, 2]


def test_chart_shear_through_a_subnormal_coordinate():
    # 1 / v overflows on a subnormal v, yet the stored value is bounded:
    # F fixes (INF, 2.2e-311)
    state = _Walk([0j, 2.2e-311 + 0j], [1, 0], None)
    _interpret(state, (atom_F(),), _CHART)
    assert state.w == [0j, 2.2e-311 + 0j] and state.inf == [1, 0]
    assert evaluate([atom_F()], (INF, 2.2e-311)) == (INF, 2.2e-311)
    # Finv takes z1 = 1e-310 to z1 / z2 = 1e10, stored in the flipped chart as z2 / z1
    state = _Walk([1e-310 + 0j, 1e-320 + 0j], [0, 0], None)
    _interpret(state, (atom_Finv(),), _CHART)
    assert state.w == [(1e-320 + 0j) / (1e-310 + 0j), 1e-320 + 0j] and state.inf == [1, 0]


@pytest.mark.parametrize(
    "atoms, w, inf",
    [
        # d1 = z2^-1 as a power at (INF, 2.2e-311): the power itself overflows
        ((atom_F(),), [0j, 2.2e-311 + 0j], [1, 0]),
        # d1 = stored / z1 = 1 / 1e-310 as a quotient: inf, not raised by Python
        ((atom_R(), atom_Finv()), [1e-310 + 0j, 1e-310 + 0j], [0, 0]),
    ],
    ids=["power", "quotient"],
)
def test_chart_shear_derivative_overflow_names_the_atom(atoms, w, inf):
    # the true derivative, about 1e310, is beyond the float range: a stated
    # ValueError with the atom index, not a bare OverflowError or an inf row
    state = _Walk(list(w), list(inf), [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)])
    with pytest.raises(PoleInChainError, match=rf"chart derivative overflows inside a shear \(atom index {len(atoms) - 1}\)"):
        _interpret(state, atoms, _CHART)
    assert issubclass(PoleInChainError, ValueError)


# --- Jacobians ------------------------------------------------------------


def test_shear_jacobian_entries():
    z = (2.0 + 0j, 3.0 + 0j)
    jac = complex_jacobian([atom_F()], z)
    assert np.allclose(jac, [[3, 2], [0, 1]])


def test_u_block_jacobian_at_origin():
    # U(k, a) fixes (0, 0) with derivative [[0, a^k], [1, 0]]
    for k, a in [(1, 0.5), (2, 0.5), (3, -0.3 + 0.2j)]:
        word = parse_word(f"U({k}, {complex(a).real}{'+' if complex(a).imag >= 0 else '-'}{abs(complex(a).imag)}i)" if complex(a).imag else f"U({k}, {a})")
        assert evaluate(word, (0.0, 0.0)) == (0j, 0j)
        jac = complex_jacobian(word, (0.0, 0.0))
        expected = np.array([[0, complex(a) ** k], [1, 0]], dtype=complex)
        assert np.allclose(jac, expected, atol=1e-14)


def test_w_block_fixes_origin():
    word = parse_word("W(2, 0.4)")
    assert evaluate(word, (0.0, 0.0)) == (0j, 0j)
    jac = complex_jacobian(word, (0.0, 0.0))
    assert np.allclose(jac, [[0, 0], [1, 0]], atol=1e-14)
    jac1 = complex_jacobian(parse_word("W(1, 0.4)"), (0.0, 0.0))
    assert np.allclose(jac1, [[-0.4, 0], [1, 0]], atol=1e-14)


def test_pole_in_chain_raises():
    with pytest.raises(PoleInChainError):
        complex_jacobian([atom_Finv()], (1.0, 0.0))
    with pytest.raises(PoleInChainError):
        complex_jacobian([atom_I(1, 0)], (0.0, 1.0))
    with pytest.raises(PoleInChainError):
        complex_jacobian([atom_F()], (INF, 1.0))


def test_moebius_lift_matches_blaschke():
    for a in [0.5, -0.3 + 0.4j, 0.01j]:
        for theta in [0.0, 0.5, 2.0, -1.3]:
            g, gp = moebius_lift(a, theta)
            w, _ = evaluate([atom_G(a, 0)], (cmath.exp(1j * theta), 1.0))
            assert abs(w - cmath.exp(1j * (theta + g))) < 1e-12
            h = 1e-6
            g2, _ = moebius_lift(a, theta + h)
            assert abs((g2 - g) / h - gp) < 1e-5
            assert gp > -1


@given(words_strategy, angles, angles)
@settings(max_examples=40)
def test_lifted_jacobian_consistency(word, x1, x2):
    # d(angle out)/d(angle in) = (complex jacobian) * z_in / z_out, entrywise
    z = torus(x1, x2)
    try:
        jac_c = complex_jacobian(word, z)
    except PoleInChainError:
        return
    w = evaluate(word, z)
    jac_l = lifted_jacobian(word, (x1, x2))
    for j in range(2):
        for k in range(2):
            lhs = jac_l[j, k]
            rhs = jac_c[j, k] * z[k] / w[j]
            assert abs(lhs - rhs) < 1e-7


def test_lifted_jacobian_of_cat_word():
    jac = lifted_jacobian(parse_word("F . R"), (0.3, 0.4))
    assert np.allclose(jac, [[1, 1], [1, 0]])


# --- algebra --------------------------------------------------------------


def test_linear_part_examples():
    assert np.array_equal(linear_part(parse_word("F . R")), [[1, 1], [1, 0]])
    assert np.array_equal(linear_part(parse_word("F . F . R")), [[2, 1], [1, 0]])
    assert np.array_equal(linear_part(parse_word("F . R . F . R")), [[2, 1], [1, 1]])
    assert np.array_equal(linear_part([atom_I(1, 1)]), [[-1, 0], [0, -1]])
    assert np.array_equal(linear_part([atom_G(0.5, 0.5)]), [[1, 0], [0, 1]])


def test_orientation_sign():
    assert orientation(parse_word("F . R")) == -1
    assert orientation(parse_word("F . R . F . R")) == 1
    assert orientation(parse_word("U(2, 0.5)")) == -1


@given(words_strategy)
@settings(max_examples=40)
def test_orientation_is_the_unit_determinant(word):
    # every atom's degree matrix lies in GL(2, Z), so no word is degenerate
    (a, b), (c, d) = linear_part(word).tolist()
    assert a * d - b * c == orientation(word) in (1, -1)


@given(words_strategy)
@settings(max_examples=40)
def test_inverse_linear_part(word):
    m = linear_part(word)
    minv = linear_part(inverse(word))
    assert np.array_equal(m @ minv, np.eye(2, dtype=np.int64))


def test_simplify_commutation_examples():
    # F I01 = I01 Finv
    assert simplify([atom_F(), atom_I(0, 1)]) == MapWord([atom_I(0, 1), atom_Finv()])
    # F I11 = I11 F
    assert simplify([atom_F(), atom_I(1, 1)]) == MapWord([atom_I(1, 1), atom_F()])
    # R I01 = I10 R
    assert simplify([atom_R(), atom_I(0, 1)]) == MapWord([atom_I(1, 0), atom_R()])
    # G(a,b) R = R G(b,a)
    assert simplify([atom_G(0.2, 0.5j), atom_R()]) == MapWord(
        [atom_R(), atom_G(0.5j, 0.2)]
    )
    # I00 and G(0,0) vanish
    assert simplify([atom_I(0, 0), atom_G(0, 0)]) == MapWord(())
    # I pairs coalesce
    assert simplify([atom_I(0, 1), atom_I(1, 1)]) == MapWord([atom_I(1, 0)])


def test_simplify_merges_real_blaschke_pair():
    word = simplify([atom_G(0.3, 0), atom_G(0.4, 0)])
    assert len(word) == 1
    assert abs(word[0].a - 0.625) < 1e-15  # (0.3+0.4)/(1+0.12)
    assert word[0].b == 0


def test_simplify_keeps_nonmergeable_pair():
    word = simplify([atom_G(0.3j, 0), atom_G(0.4, 0)])
    assert len(word) == 2


def test_simplify_conjugates_g_past_inversion():
    a = 0.2 + 0.3j
    word = simplify([atom_G(a, 0), atom_I(1, 0)])
    assert word == MapWord([atom_I(1, 0), atom_G(a.conjugate(), 0)])


@given(words_strategy, angles, angles)
@settings(max_examples=60)
def test_simplify_is_pointwise_identity(word, x1, x2):
    z = torus(x1, x2)
    w1 = evaluate(word, z)
    w2 = evaluate(simplify(word), z)
    assert abs(w1[0] - w2[0]) < 1e-8
    assert abs(w1[1] - w2[1]) < 1e-8


def test_word_power():
    w = word_power(parse_word("F . R"), 2)
    assert word_to_text(w) == "F . R . F . R"
    winv = word_power(parse_word("F . R"), -1)
    assert word_to_text(winv) == "R . Finv"
    assert len(word_power(parse_word("F"), 0)) == 0
