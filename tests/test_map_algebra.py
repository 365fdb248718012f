"""Word algebra: parsing, evaluation, Jacobians, simplification."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec.map_algebra import (
    INF,
    IndeterminatePointError,
    MapWord,
    PoleInChainError,
    TorusPoint,
    WordSyntaxError,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    blaschke,
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
    simplify,
    word_power,
    word_to_text,
)


def torus(x1, x2):
    return (cmath.exp(1j * x1), cmath.exp(1j * x2))


# --- strategies -----------------------------------------------------------

disk_params = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)


@st.composite
def atoms_strategy(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(disk_params), draw(disk_params))
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


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("F . . R")
    assert err.value.position == 1
    with pytest.raises(WordSyntaxError):
        parse_word("Q")
    with pytest.raises(WordSyntaxError):
        parse_word("U(0, 0.5)")
    with pytest.raises(WordSyntaxError):
        parse_word("G(1.5, 0)")
    with pytest.raises(WordSyntaxError):
        parse_word("I(2, 0)")
    with pytest.raises(WordSyntaxError):
        parse_word("")


def test_disk_boundary_rejected():
    with pytest.raises(ValueError):
        atom_G(1.0, 0)


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
    assert blaschke(0, INF) is INF
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


def test_array_evaluation_at_infinity():
    assert evaluate([atom_Finv()], (2.0, INF)) == (0j, INF)
    inf = complex(math.inf, 0.0)
    w = evaluate([atom_G(0.5, 0), atom_I(1, 0)], (np.array([0.0, 1.0, inf]), np.ones(3)))
    assert w[0][0] == -2 and w[0][1] == 1 and w[0][2] == -0.5
    with pytest.raises(IndeterminatePointError) as info:
        evaluate([atom_R(), atom_F()], (np.array([1.0, 0.0]), np.array([2.0, inf])))
    assert info.value.atom_index == 1


def test_torus_point_validates():
    TorusPoint(1j, -1)
    with pytest.raises(ValueError):
        TorusPoint(0.5, 1)
    p = TorusPoint.from_angles(0.2, 0.4)
    assert abs(p.z1 - cmath.exp(0.2j)) < 1e-15


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
            w = blaschke(a, cmath.exp(1j * theta))
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
