"""The lifted walk and the cone certificate against the code they replaced.

`_walk` starts the Jacobian as 1-element identity entries that broadcast and
broadcasts the four entries to the full shape at the end; a lifted shear adds
or subtracts rows; a lifted Jacobian discards the angles, so a `G` atom whose
output angle no later atom reads forms only its slope; `check_psec` and
`find_connecting_torus` sign-normalize the walk's entry planes one at a time.
The reference below is the walk as it was: full identity planes, shears that
multiply by the sign and add, a full `moebius_lift` at every `G` atom, the
(..., 2, 2) stack of `lifted_jacobian`, and the sign normalization of that
stack in place.  The reference certificate and connector are today's
functions with the reference walk and normalization patched in; nothing else
in them changed.  Lifted Jacobians, lifted values and complex Jacobians must
be equal byte for byte, and the reports equal as `repr`, which keeps every
bit and the sign of zero.
"""

import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec import dynamics_checks
from torspec.dynamics_checks import check_psec, find_connecting_torus
from torspec.gl2z import TargetInfeasible
from torspec.map_algebra import (
    MapWord,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    complex_jacobian,
    evaluate_lifted,
    inverse,
    lifted_jacobian,
    parse_word,
)

from test_complex_column import _outcome, reference_complex_jacobian
from test_sector_walk_reference import FAMILIES

# --- the replaced code


def _ref_moebius_lift(a, theta):
    a = complex(a)
    r = abs(a)
    alpha = cmath.phase(a)
    c = np.cos(theta - alpha)
    g = 2.0 * np.arctan2(r * np.sin(theta - alpha), 1.0 - r * c)
    gp = 2.0 * (r * c - r * r) / (1.0 - 2.0 * r * c + r * r)
    return g, gp


class _State:
    def __init__(self, w, jac):
        self.w, self.jac = w, jac


def _ref_swap(s, atom):
    s.w.reverse()
    if s.jac is not None:
        s.jac.reverse()


def _ref_shear(sign):
    def action(s, atom):
        s.w[0] = s.w[0] + sign * s.w[1]
        if s.jac is not None:
            (j11, j12), (j21, j22) = s.jac
            s.jac[0] = [j11 + sign * j21, j12 + sign * j22]

    return action


def _ref_I(s, atom):
    for i, bit in enumerate((atom.k, atom.l)):
        if bit:
            s.w[i] = -s.w[i]
            if s.jac is not None:
                s.jac[i] = [-s.jac[i][0], -s.jac[i][1]]


def _ref_G(s, atom):
    for i, a in enumerate((atom.a, atom.b)):
        if a == 0:
            continue
        g, gp = _ref_moebius_lift(a, s.w[i])
        s.w[i] = s.w[i] + g
        if s.jac is not None:
            factor = 1.0 + gp
            s.jac[i] = [factor * s.jac[i][0], factor * s.jac[i][1]]


_REF_ACTIONS = {"F": _ref_shear(1), "Finv": _ref_shear(-1), "R": _ref_swap, "I": _ref_I, "G": _ref_G}


def _ref_walk(word, x, jacobian):
    angles = [np.atleast_1d(np.asarray(c, dtype=float)) for c in x]
    jac = None
    if jacobian:
        shape = np.broadcast_shapes(angles[0].shape, angles[1].shape)
        jac = [[np.ones(shape), np.zeros(shape)]]
        jac.append(jac[0][::-1])
    state = _State(angles, jac)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for index in range(len(word) - 1, -1, -1):
            _REF_ACTIONS[word[index].kind](state, word[index])
    return state


def _scalar(x):
    return np.ndim(x[0]) == 0 and np.ndim(x[1]) == 0


def reference_lifted_jacobian(word, x):
    (a, b), (c, d) = _ref_walk(word, x, True).jac
    stack = np.moveaxis(np.stack((a, b, c, d)).reshape((2, 2) + a.shape), (0, 1), (-2, -1))
    return stack[0] if _scalar(x) else stack


def reference_evaluate_lifted(word, x):
    y1, y2 = np.broadcast_arrays(*_ref_walk(word, x, False).w)
    return (float(y1[0]), float(y2[0])) if _scalar(x) else (y1, y2)


def _ref_sign_normalize(jac, flip=False):
    if flip:
        jac[..., (0, 1), (1, 0)] *= -1.0
    planes = [jac[..., 0, 0], jac[..., 0, 1], jac[..., 1, 0], jac[..., 1, 1]]
    positive = np.logical_and.reduce([p >= -dynamics_checks._SIGN_TOL for p in planes])
    negative = np.logical_and.reduce([p <= dynamics_checks._SIGN_TOL for p in planes])
    jac *= np.where(positive, 1.0, -1.0)[..., None, None]
    return positive | negative, planes


def _with_reference_walk(f, *args, **kwargs):
    """f with the lifted rows taken from the reference stack and normalized in place, as before."""
    with mock.patch.object(dynamics_checks, "_lifted_rows", reference_lifted_jacobian), mock.patch.object(
        dynamics_checks, "_sign_normalize", _ref_sign_normalize
    ):
        return f(*args, **kwargs)


# --- comparison


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _angle_points(rng):
    """Angle arguments of every form: scalars, 1-D arrays, an open grid and a full grid (odd and even sizes)."""
    n, m = rng.choice(((4, 5), (5, 4), (3, 3)))
    column = np.array([rng.uniform(-7.0, 13.0) for _ in range(n)])[:, None]
    row = np.array([rng.uniform(-7.0, 13.0) for _ in range(m)])[None, :]
    return [
        (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)),
        (column[:, 0], rng.uniform(-3.0, 3.0)),
        (column, row),
        np.broadcast_arrays(column, row + 0.5),
    ]


def _assert_lifted_match(word, x):
    assert _same_bytes(lifted_jacobian(word, x), reference_lifted_jacobian(word, x)), (str(word), x)
    got, want = evaluate_lifted(word, x), reference_evaluate_lifted(word, x)
    assert all(_same_bytes(g, w) for g, w in zip(got, want)), (str(word), x)


def _assert_complex_match(word, x):
    z = tuple(np.exp(1j * np.asarray(c)) * 1.25 ** np.sin(np.asarray(c)) for c in x)
    if _scalar(x):
        z = tuple(complex(c) for c in z)
    want = _outcome(reference_complex_jacobian, word, z)
    got = _outcome(complex_jacobian, word, z)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _same_bytes(got, want), (str(word), x)


def _assert_reports_match(word, grid):
    assert repr(check_psec(word, grid)) == repr(_with_reference_walk(check_psec, word, grid)), (str(word), grid)
    args = (word, (-1, 1), (1, 1), (0.05, 0.05), (0.1, 0.1))
    kwargs = {"samples": 16, "jac_grid": grid}
    want = _with_reference_walk(find_connecting_torus, *args, **kwargs)
    assert repr(find_connecting_torus(*args, **kwargs)) == repr(want), (str(word), grid)


def _family_words(family, seed, count):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        try:
            words.append(FAMILIES[family](rng))
        except TargetInfeasible:
            continue
    return words, rng


# --- tests


@pytest.mark.parametrize("family", FAMILIES)
def test_lifted_walk_matches_reference_on_family_words(family):
    # psi words in frames (I01, I10, I11, R, F) and odd chains, xi and W
    # words, lone and two-parameter G atoms in linear words, build words and
    # I01-conjugated inverses (Finv)
    for seed in range(6):
        words, rng = _family_words(family, seed, 4)
        for word in words:
            for active in (word, inverse(word)):
                for x in _angle_points(rng):
                    _assert_lifted_match(active, x)
                    _assert_complex_match(active, x)
            for grid in (8, 9):
                _assert_reports_match(word, grid)


@pytest.mark.parametrize(
    "text",
    [
        "U(1,0.4) . U(2,-0.2i) . U(1,0.35)",
        "I11 . U(1,0.5) . U(2,0.3)",
        "W(1,0.2) . W(2,0.3)",
        "G(0.2,0.1) . F . F . R",
        "U(2,0.3i) . G(0.2i,0) . Finv . I01",
        "I10 . U(1,0.5) . U(1,0.3)",
        "F . R . G(0.3,-0.3) . F . R",
        "U(1,0.4) . U(2,0.3) . U(1,-0.2)",
    ],
)
def test_certificate_matches_reference_on_cli_words(text):
    # the `check` words of the stdout digests, at odd and even grids
    word = parse_word(text)
    for grid in (16, 31, 32):
        _assert_reports_match(word, grid)
    _assert_lifted_match(word, (0.3, 1.9))


# parameters near the unit circle, tiny ones whose r cos(theta - alpha) is
# subnormal, and generic ones
_PARAMS = [0j, 0.5, -0.3j, 0.2 + 0.6j, 1e-310, 1e-300j, 0.99, -0.7 + 0.7j]


@st.composite
def _atom(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(st.sampled_from(_PARAMS)), draw(st.sampled_from(_PARAMS)))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


@given(st.lists(_atom(), max_size=12).map(MapWord), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_lifted_walk_matches_reference_on_random_words(word, seed):
    rng = random.Random(seed)
    for x in _angle_points(rng):
        _assert_lifted_match(word, x)
        _assert_complex_match(word, x)
    _assert_reports_match(word, rng.choice((6, 7)))


@pytest.mark.parametrize("text", ["G(0.3,0.2)", "I11", "R", "G(0.3,0) . I10", "I00"])
def test_unmixed_jacobians_have_the_broadcast_shape(text):
    # no atom mixes the coordinates, so some entries stay 1-element or one
    # grid line through the walk; the result still has the full shape
    word = parse_word(text)
    column, row = np.linspace(0.1, 6.0, 5)[:, None], np.linspace(0.3, 5.0, 4)[None, :]
    for x, shape in (((0.4, 1.3), ()), ((np.linspace(0.2, 3.0, 3), 0.7), (3,)), ((column, row), (5, 4))):
        jac = lifted_jacobian(word, x)
        assert jac.shape == shape + (2, 2)
        assert _same_bytes(jac, reference_lifted_jacobian(word, x))
        z = tuple(np.exp(1j * np.asarray(c)) for c in x)
        cjac = complex_jacobian(word, z)
        assert cjac.shape == shape + (2, 2)
        assert _same_bytes(cjac, reference_complex_jacobian(word, z))
