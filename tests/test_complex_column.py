"""The complex column and `simplify` against whole-mask and whole-list references.

The complex column leaves out a coordinate's infinity mask while no point of
it is at infinity, and an atom with no input mask and all-finite new values
skips its checks.  The reference walk below keeps a boolean mask on every
coordinate and runs every check at every atom; `evaluate` and
`complex_jacobian` must match it bit for bit, errors included.  `simplify`
drops identity atoms only where a rewrite made them; the reference drops
them from the whole list after every rewrite.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from torspec.map_algebra import (
    INF,
    IndeterminatePointError,
    MapWord,
    PoleInChainError,
    _is_identity_atom,
    _matrix,
    _swap,
    _try_rewrite,
    _walk,
    _Walk,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    complex_jacobian,
    evaluate,
    parse_word,
    simplify,
)

# --- the reference walk: a mask on every coordinate, every check at every atom


def _ref_quotient(s, num, den, masked):
    q = num / den
    again = ~np.isfinite(q) & ~masked & (den != 0)
    if np.any(again):
        q = np.where(again, (num * 2.0 ** 54) / (den * 2.0 ** 54), q)
        down = again & ~np.isfinite(q) & (np.abs(den) >= 1.0)
        if np.any(down):
            q = np.where(down, (num * 2.0 ** -54) / (den * 2.0 ** -54), q)
        made = again & np.isnan(q) & ~np.isinf(q) & ~np.isnan(num) & ~np.isnan(den)
        s.flag(made, IndeterminatePointError("quotient is nan in floating point", s.index))
    return q


def _ref_finite(s, *coords):
    for i in coords:
        s.flag(s.inf[i], PoleInChainError(f"z{i + 1} is infinite; conjugate by I(k, l) first"))


def _ref_F(s, atom):
    (w1, w2), (m1, m2) = s.w, s.inf
    if s.jac is not None:
        _ref_finite(s, 0, 1)
        (j11, j12), (j21, j22) = s.jac
        s.jac[0] = [w2 * j11 + w1 * j21, w2 * j12 + w1 * j22]
    zero_inf = (m1 & ~m2 & (w2 == 0)) | (m2 & ~m1 & (w1 == 0))
    s.flag(zero_inf, IndeterminatePointError("0 * inf is indeterminate", s.index))
    s.w[0] = w1 * w2
    s.inf[0] = m1 | m2 | np.isinf(s.w[0])


def _ref_Finv(s, atom):
    (w1, w2), (m1, m2) = s.w, s.inf
    if s.jac is not None:
        _ref_finite(s, 0, 1)
        s.flag(w2 == 0, PoleInChainError("Finv differentiated at z2 = 0"))
        (j11, j12), (j21, j22) = s.jac
        slope = w1 / (w2 * w2)
        s.jac[0] = [j11 / w2 - slope * j21, j12 / w2 - slope * j22]
    s.flag(m1 & m2, IndeterminatePointError("inf / inf is indeterminate", s.index))
    zero_zero = ~m1 & ~m2 & (w1 == 0) & (w2 == 0)
    s.flag(zero_zero, IndeterminatePointError("0 / 0 is indeterminate", s.index))
    s.w[0] = np.where(m2, 0j, _ref_quotient(s, w1, w2, m1 | m2))
    s.inf[0] = ~m2 & (m1 | (w2 == 0) | np.isinf(s.w[0]))


def _ref_I(s, atom):
    for i, bit in enumerate((atom.k, atom.l)):
        if not bit:
            continue
        w, m = s.w[i], s.inf[i]
        if s.jac is not None:
            _ref_finite(s, i)
            s.flag(w == 0, PoleInChainError("I(k, l) differentiated at 0"))
            s.scale_row(i, -1.0 / (w * w))
        s.w[i] = np.where(m, 0j, _ref_quotient(s, 1.0, w, m))
        s.inf[i] = ~m & ((w == 0) | np.isinf(s.w[i]))


def _ref_G(s, atom):
    if s.jac is not None:
        _ref_finite(s, 0, 1)
    for i, a in enumerate((atom.a, atom.b)):
        if a == 0:
            continue
        w, inf = s.w[i], s.inf[i]
        den = 1.0 - a.conjugate() * w
        s.w[i] = np.where(inf, -1 / a.conjugate(), _ref_quotient(s, w - a, den, inf))
        s.inf[i] = ~inf & (den == 0)
        if s.jac is not None:
            s.flag(den == 0, PoleInChainError("G differentiated at a pole"))
            s.scale_row(i, (1.0 - abs(a) ** 2) / (den * den))


_REF_ACTIONS = {"F": _ref_F, "Finv": _ref_Finv, "R": _swap, "I": _ref_I, "G": _ref_G}


def _reference_walk(word, z, jacobian):
    values = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in z]
    arrays = np.broadcast_arrays(*values, *[np.isinf(v) for v in values])
    jac = None
    if jacobian:
        shape = arrays[0].shape
        jac = [[np.ones(shape, complex), np.zeros(shape, complex)]]
        jac.append(jac[0][::-1])
    state = _Walk(list(arrays[:2]), list(arrays[2:]), jac)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for index in range(len(word) - 1, -1, -1):
            state.index = index
            _REF_ACTIONS[word[index].kind](state, word[index])
    if state.fault is not None:
        raise state.fault
    return state


def reference_evaluate(word, z):
    state = _reference_walk(word, z, False)
    scalar = all(np.ndim(c) == 0 for c in z)
    w = np.broadcast_arrays(*state.w)
    if scalar:
        return tuple(INF if m[0] else complex(v[0]) for v, m in zip(w, state.inf))
    return tuple(np.where(m, INF, v) for v, m in zip(w, state.inf))


def reference_complex_jacobian(word, z):
    state = _reference_walk(word, z, True)
    return _matrix(state.jac, all(np.ndim(c) == 0 for c in z))


# --- comparison -----------------------------------------------------------


def _outcome(f, word, z):
    """f's result, or the type, message and atom index of what it raised."""
    try:
        return f(word, z)
    except (IndeterminatePointError, PoleInChainError) as exc:
        return (type(exc), str(exc), getattr(exc, "atom_index", None))


def _bits(x):
    return np.ascontiguousarray(x, dtype=complex).view(np.uint64)


def _assert_same(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
        return
    for g, w in zip(got, want, strict=True):
        if isinstance(w, complex):
            assert type(g) is complex and (g is INF) == (w is INF)
        else:
            assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(_bits(g), _bits(w))


# --- strategies -----------------------------------------------------------

_PARAMS = [0j, 0.5, -0.3j, 0.2 + 0.6j, 1e-310, 0.99]


@st.composite
def _atom(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(st.sampled_from(_PARAMS)), draw(st.sampled_from(_PARAMS)))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


_SPECIAL = [0j, INF, complex(math.inf, math.inf), complex("nan"), 1e-310 + 0j, 5e-324j, 1e-320 + 1e-320j,
            1e-10 + 0j, 1e300 + 1e300j, 1e308 + 1e308j, -1e300 + 0j, 1 + 0j, -1j]
_TORUS = st.floats(0.0, 2.0 * math.pi).map(lambda x: complex(math.cos(x), math.sin(x)))


@st.composite
def _case(draw):
    """A word, and points mixing finite values with 0, INF, nan, subnormals and the word's G poles."""
    word = MapWord(draw(st.lists(_atom(), max_size=7)))
    poles = [1 / complex(p).conjugate() for atom in word if atom.kind == "G" for p in (atom.a, atom.b) if p != 0]
    coord = st.one_of(
        st.sampled_from(_SPECIAL),
        st.sampled_from(poles or _SPECIAL),
        _TORUS,
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    if draw(st.booleans()):
        return word, (draw(coord), draw(coord))
    n = draw(st.integers(1, 6))
    first, second = (np.array(draw(st.lists(coord, min_size=n, max_size=n)), dtype=complex) for _ in range(2))
    if draw(st.booleans()):
        second = second[:1]  # broadcast against the first coordinate
    return word, (first, second)


@given(_case())
@settings(max_examples=400, deadline=None)
@example((parse_word("R . Finv"), (1e308 + 1e308j, 1e308 + 1e308j)))
@example((parse_word("Finv"), (1e300 + 1e300j, 1e-10)))
@example((parse_word("R . F"), (np.array([1.0, 0.0]), np.array([2.0, INF]))))
def test_evaluate_matches_the_masked_reference(case):
    word, z = case
    _assert_same(_outcome(evaluate, word, z), _outcome(reference_evaluate, word, z))


@given(_case())
@settings(max_examples=400, deadline=None)
@example((parse_word("G(0.5,0) . Finv"), (np.array([1.0, 2.0]), np.array([1.0, 0.0]))))
@example((parse_word("F . G(0.5,0)"), (np.array([1.0, 2.0]), np.array([1.0, 3.0]))))
@example((parse_word("Finv"), (1e300 + 1e300j, 1e-10)))
def test_complex_jacobian_matches_the_masked_reference(case):
    word, z = case
    _assert_same(_outcome(complex_jacobian, word, z), _outcome(reference_complex_jacobian, word, z))


def test_torus_walk_carries_no_mask():
    # the points weight tuning and the band sums walk never reach infinity
    word = parse_word("I11 . U(2,0.3+0.1i) . W(1,-0.4)")
    ring = np.exp(2j * math.pi * np.arange(16) / 16)
    (t1, t2), masks, _ = _walk(word, (ring[:, None], ring[None, :]), (None, None))
    assert masks == [None, None] and t1.shape == t2.shape == (16, 16)
    ref = reference_evaluate(word, np.broadcast_arrays(ring[:, None], ring[None, :]))
    assert np.array_equal(_bits(t1), _bits(ref[0])) and np.array_equal(_bits(t2), _bits(ref[1]))


# --- simplify -------------------------------------------------------------


def reference_simplify(word):
    atoms = [a for a in word.atoms if not _is_identity_atom(a)]
    budget = (len(atoms) + 2) ** 2 * 4
    changed = True
    while changed and budget > 0:
        changed = False
        i = 0
        while i + 1 < len(atoms):
            if _try_rewrite(atoms, i):
                changed = True
                budget -= 1
                atoms = [a for a in atoms if not _is_identity_atom(a)]
                i = max(i - 1, 0)
            else:
                i += 1
    return MapWord(atoms)


# a parameter and its negative merge to G(0, 0), as do two real ones that cancel
_MERGING = [0j, 0.3, -0.3, 0.5j, -0.5j, 0.2 + 0.1j, -0.2 - 0.1j]


@st.composite
def _merging_atom(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(st.sampled_from(_MERGING)), draw(st.sampled_from(_MERGING)))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


@given(st.lists(_merging_atom(), max_size=12).map(MapWord))
@settings(max_examples=400, deadline=None)
@example(parse_word("F . I10 . I10 . R"))
@example(parse_word("F . G(0.3,0.5i) . G(-0.3,-0.5i) . R"))
@example(parse_word("I11 . G(0.2,0) . R . I01 . G(-0.2,0) . I10"))
def test_simplify_matches_the_whole_list_reference(word):
    assert repr(simplify(word)) == repr(reference_simplify(word))


def test_simplify_drops_the_identity_atoms_a_rewrite_makes():
    assert simplify(parse_word("F . I10 . I10 . R")) == parse_word("F . R")
    assert simplify(parse_word("F . G(0.3,0.5i) . G(-0.3,-0.5i) . R")) == parse_word("F . R")
