"""Sector walks and `simplify` against the code they replaced.

Each sector's fixed-point walk starts at the sector's corner, stored as 0 in
the chart that holds it, and walks the direction's simplified word.  It
replaced a walk of that word conjugated by the sector's chart atom I(k, l)
and simplified again, from chart (0, 0), with the chart bits flipped back at
the end.  `_chart_I` leaves stored values and derivatives untouched,
`_chart_shear` reads its exponents off the chart bits and `_chart_G`'s
chart-1 branch is the conjugated-parameter form, so the two walks carry the
same numbers.  A shear output of modulus exactly 1 is the one place where
they may store a point in different charts, so the seeded words below cover
every word family: psi words in I01, I10, I11, R and F frames, odd chains, W
and xi words, lone G atoms, `build` words and I01-conjugated inverses.  The
records must be equal bit for bit, and a walk that fails must fail with the
same error, up to the atom index of an indeterminate point, which now counts
atoms of the simplified word instead of the conjugated copy.

`simplify` is one backtracking scan; it replaced the same scan repeated until
a pass rewrote nothing, under a budget of rewrites.  Both must give equal
atoms, G parameters bit for bit.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from torspec.cone_geometry import SIGMAS
from torspec.dynamics_checks import CertificationError, resolve_cases
from torspec.fixed_points import (
    FixedPointError,
    FixedPointRecord,
    _case_for_sector,
    _chart_pass,
    _eigenpair,
    _extended,
    _MAX_ITER,
    _reconcile_charts,
    _reduced_power,
    _RESIDUAL_TOL,
    _sector_record,
    _state_distance,
    _STEP_TOL,
)
from torspec.gl2z import TargetInfeasible
from torspec.map_algebra import (
    IndeterminatePointError,
    MapWord,
    _atoms,
    _is_identity_atom,
    _try_rewrite,
    _Walk,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    concat,
    inverse,
    parse_word,
    psi_word,
    simplify,
    word_power,
)

from test_multiplier_reference import FAMILIES as MULTIPLIER_FAMILIES, _disk

# --- the replaced code


def _rescanning_simplify(word):
    """`simplify` as it was: the backtracking scan, repeated until a pass rewrites nothing."""
    atoms = [a for a in _atoms(word) if not _is_identity_atom(a)]
    budget = (len(atoms) + 2) ** 2 * 4
    changed = True
    while changed and budget > 0:
        changed = False
        i = 0
        while i + 1 < len(atoms):
            if _try_rewrite(atoms, i):
                changed = True
                budget -= 1
                atoms[i : i + 2] = [a for a in atoms[i : i + 2] if not _is_identity_atom(a)]
                i = max(i - 1, 0)
            else:
                i += 1
    return MapWord(atoms)


def _conjugating_record(word, sigma, lvl, case):
    """`sector_fixed_point` as it was: the word conjugated into the corner, walked from chart (0, 0)."""
    reduced = _rescanning_simplify(word_power(word if lvl == 1 else inverse(word), 1 if case == "EP" else 2))
    chart = MapWord([atom_I((1 + sigma[0]) // 2, (1 + sigma[1]) // 2)])
    effective = _rescanning_simplify(concat(chart, reduced, chart))
    state = _Walk([0j, 0j], [0, 0], None)
    converged = False
    for _ in range(_MAX_ITER):
        nxt = _chart_pass(effective, state, jacobian=False)
        step = _state_distance(nxt, state)
        state = nxt
        if step < _STEP_TOL:
            converged = True
            break
    if not converged:
        raise FixedPointError(f"no convergence for sector {sigma} after {_MAX_ITER} iterations")
    final = _chart_pass(effective, state, jacobian=True)
    _reconcile_charts(final, state)
    residual = _state_distance(final, state)
    if residual > _RESIDUAL_TOL:
        raise FixedPointError(
            f"fixed-point residual {residual:.3e} exceeds {_RESIDUAL_TOL:.0e} for sector {sigma}"
        )
    for i in (0, 1):
        if sigma[i] == 1:
            final.inf[i] ^= 1
    return FixedPointRecord(sigma, lvl, case, _extended(final), _eigenpair(final.jac), residual)


def _corner_record(word, sigma, lvl, case):
    return _sector_record(_reduced_power(word, lvl, case), sigma, lvl, case)


def _outcome(walk, *args):
    """The record as text (repr keeps every bit and the sign of zero), or the error without its atom index."""
    try:
        return repr(walk(*args))
    except IndeterminatePointError as exc:
        return type(exc).__name__, str(exc).rsplit(" (atom index", 1)[0]
    except (ValueError, FixedPointError) as exc:
        return type(exc).__name__, str(exc)


# --- seeded words of each family: the multiplier reference's xi, W, lone G,
# build and I01-conjugated inverse words, and psi words in frames and odd chains


_FRAME_ATOMS = [parse_word(text).atoms[0] for text in ("I01", "I10", "I11", "R", "F")]


def _frame(rng):
    return MapWord([rng.choice(_FRAME_ATOMS) for _ in range(rng.randrange(3))])


def _framed_psi(rng):
    # a psi word between frames of up to two atoms each, chart atoms among them
    left, right = _frame(rng), _frame(rng)
    n = rng.randrange(2, 4)
    core = psi_word([rng.randrange(1, 4) for _ in range(n)], [_disk(rng, 0.7) for _ in range(n)], rng.randrange(2))
    return concat(left, core, right)


def _odd_chain(rng):
    # an odd number of u_blocks, so one direction is the reflecting case ER
    n = rng.choice((1, 3))
    return psi_word([rng.randrange(1, 3) for _ in range(n)], [_disk(rng, 0.5) for _ in range(n)], rng.randrange(2))


FAMILIES = {
    "framed psi": _framed_psi,
    "odd chain": _odd_chain,
    **{name: family for name, family in MULTIPLIER_FAMILIES.items() if name != "psi"},
}


def _certified(family, seed, count):
    """The first `count` words of the family's seeded stream that certify, with their cases."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        try:
            word = FAMILIES[family](rng)
            words.append((word, resolve_cases(word)))
        except (TargetInfeasible, CertificationError):
            continue
    return words


@pytest.mark.parametrize("family", FAMILIES)
def test_corner_walks_match_conjugating_walks(family):
    for seed in range(5):
        for word, cases in _certified(family, seed, 12):
            for sigma in SIGMAS:
                args = (word, sigma, *_case_for_sector(cases, sigma))
                assert _outcome(_corner_record, *args) == _outcome(_conjugating_record, *args), (str(word), sigma)


def test_indeterminate_point_index_counts_the_simplified_word():
    # build's word for a mixed-sign class: the mixed sectors meet 0 * inf at
    # the first shear of the inverse's simplified word, I11 . F . R . ...;
    # the conjugated copy began with the chart atom I10 and named index 0
    word = parse_word("F . R . I11 . G(0,0.2603339310813174) . F . F . R . G(-0.2603339310813174,0) . R . Finv")
    cases = resolve_cases(word)
    for sigma in ((-1, 1), (1, -1)):
        args = (word, sigma, *_case_for_sector(cases, sigma))
        with pytest.raises(IndeterminatePointError, match=r"0 \* inf inside a shear \(atom index 1\)"):
            _corner_record(*args)
        with pytest.raises(IndeterminatePointError, match=r"\(atom index 0\)"):
            _conjugating_record(*args)
        assert _reduced_power(word, *_case_for_sector(cases, sigma)).atoms[1].kind == "F"


def _simplified(simplifier, word):
    """The simplified atoms as text (repr keeps every bit of the G parameters), or the error simplifying raised."""
    try:
        return repr(simplifier(word).atoms)
    except ValueError as exc:
        return repr(exc)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_scan_simplifies_family_words_as_the_rescan(family):
    for seed in range(5):
        for word, _ in _certified(family, seed, 12):
            for active in (word, inverse(word)):
                for power in (1, 2):
                    raw = word_power(active, power)
                    for k in (0, 1):
                        for l in (0, 1):
                            conjugated = concat(MapWord([atom_I(k, l)]), raw, MapWord([atom_I(k, l)]))
                            assert _simplified(simplify, conjugated) == _simplified(_rescanning_simplify, conjugated)


# disk parameters that merge when adjacent (a conj(c) real), and generic ones that seldom do
_params = st.one_of(
    st.sampled_from([0j, 0.3, -0.3, 0.5, 0.2j, -0.4j, 0.1 + 0.1j, -0.2 - 0.2j]),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
)


@st.composite
def _random_atoms(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(_params), draw(_params))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


@given(st.lists(_random_atoms(), max_size=24).map(MapWord))
@settings(max_examples=400, deadline=None)
def test_one_scan_simplifies_random_words_as_the_rescan(word):
    assert _simplified(simplify, word) == _simplified(_rescanning_simplify, word)
