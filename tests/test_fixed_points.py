"""Sector fixed points, chart engine, multipliers, conjugate pairing."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec import fixed_points, map_algebra
from torspec.fixed_points import (
    FixedPointError,
    all_fixed_point_data,
    sector_fixed_point,
    verify_conjugate_pairs,
)
from torspec.map_algebra import (
    INF,
    MapWord,
    _Walk,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    atom_R,
    complex_jacobian,
    concat,
    inverse,
    parse_word,
    psi_word,
    simplify,
    word_power,
    xi_word,
)

CAT3 = parse_word("F . F . R")


def mults_set(record):
    return sorted(record.multipliers, key=lambda z: (abs(z), z.real, z.imag))


def test_cat_sector_points_are_corners():
    data = all_fixed_point_data(CAT3)
    by_sigma = {rec.sigma: rec for rec in data.records}
    assert by_sigma[(-1, -1)].point == (0j, 0j)
    assert by_sigma[(1, 1)].point[0] is INF and by_sigma[(1, 1)].point[1] is INF
    assert by_sigma[(-1, 1)].point[0] == 0 and by_sigma[(-1, 1)].point[1] is INF
    assert by_sigma[(1, -1)].point[0] is INF and by_sigma[(1, -1)].point[1] == 0
    for rec in data.records:
        # monomial words are superattracting at the corners
        assert rec.multipliers == (0j, 0j)
        assert rec.residual < 1e-12
    assert data.cases.forward.case == "EP"
    assert data.cases.backward.case == "ER"


def test_cat_conjugate_pairs_need_ep():
    data = all_fixed_point_data(CAT3)
    with pytest.raises(ValueError):
        verify_conjugate_pairs(data)  # backward direction is reflecting


def test_psi_multipliers_match_direct_jacobian():
    word = psi_word((1, 1), (0.5, 0.3))
    data = all_fixed_point_data(word)
    origin = data.record((-1, -1))
    assert origin.point == (0j, 0j)
    direct = sorted(
        np.linalg.eigvals(complex_jacobian(word, (0.0, 0.0))),
        key=lambda z: (abs(z), z.real, z.imag),
    )
    engine = mults_set(origin)
    assert np.allclose(engine, direct, atol=1e-12)
    assert engine == pytest.approx([0.3, 0.5], abs=1e-12)


def test_psi_all_sectors_share_moduli():
    data = all_fixed_point_data(psi_word((1, 1), (0.5, 0.3)))
    for rec in data.records:
        assert rec.residual < 1e-12
        assert mults_set(rec) == pytest.approx([0.3, 0.5], abs=1e-10)
    # the mixed fixed point of this family sits at (0, inf)
    mixed = data.record((-1, 1))
    assert mixed.point[0] == 0 and mixed.point[1] is INF


def test_psi_conjugate_pairs():
    data = all_fixed_point_data(psi_word((2, 1), (0.4 + 0.2j, -0.3)))
    deviation = verify_conjugate_pairs(data, tol=1e-10)
    assert deviation < 1e-10


def test_psi_complex_parameters_at_origin():
    a1, a2 = 0.4 + 0.2j, -0.3 + 0j
    word = psi_word((2, 1), (a1, a2))
    rec = sector_fixed_point(word, (-1, -1), all_fixed_point_data(word).cases)
    expected = sorted([a1 ** 2, a2], key=lambda z: (abs(z), z.real, z.imag))
    assert np.allclose(mults_set(rec), expected, atol=1e-12)


def test_psi_with_antipode_squares():
    # reflecting case: stored multipliers belong to the squared map
    data = all_fixed_point_data(psi_word((1, 1), (0.5, 0.3), s=1))
    assert data.cases.forward.case == "ER"
    assert data.cases.backward.case == "ER"
    for rec in data.records:
        assert mults_set(rec) == pytest.approx([0.09, 0.25], abs=1e-10)
    with pytest.raises(ValueError):
        verify_conjugate_pairs(data)


def test_xi_orbits_through_infinity():
    data = all_fixed_point_data(xi_word((2, 2), 0.5))
    for rec in data.records:
        assert rec.residual < 1e-12
    origin = data.record((-1, -1))
    assert origin.point == (0j, 0j)
    assert origin.multipliers == (0j, 0j)
    if data.cases.forward.case == "EP" and data.cases.backward.case == "EP":
        assert verify_conjugate_pairs(data, tol=1e-10) < 1e-10


def test_sector_validation():
    word = psi_word((1, 1), (0.5, 0.3))
    data = all_fixed_point_data(word)
    with pytest.raises(ValueError):
        sector_fixed_point(word, (0, 1), data.cases)
    with pytest.raises(KeyError):
        data.record((2, 2))


_A = "0.2901470345878846+0.049420375897403i"
_B = "0.04579515792343081-0.1838908948276068i"
_C = "0.05410633114216434-0.19813253179877194i"


def _chart_calls(monkeypatch, kinds):
    """(atom kind, chart bits before, chart bits after) for each chart action of the given kinds."""
    calls = []
    for kind in kinds:
        complex_action, lifted_action, chart_action = map_algebra._ACTIONS[kind]

        def counted(state, atom, chart_action=chart_action):
            before = tuple(state.inf)
            chart_action(state, atom)
            calls.append((atom.kind, before, tuple(state.inf)))

        monkeypatch.setitem(map_algebra._ACTIONS, kind, (complex_action, lifted_action, counted))
    return calls


def _shear_counts(monkeypatch, word):
    """Fixed-point data of the word, with the shears that divide and those that change chart counted.

    A shear stores v1^g1 * v2^g2 for the stored values v and exponents g
    read off the chart bits (`map_algebra._chart_shear`); it divides where
    an exponent is -1.
    """
    calls = _chart_calls(monkeypatch, ("F", "Finv"))
    data = all_fixed_point_data(word)
    monkeypatch.undo()
    counts = {"divide": 0, "chart change": 0}
    for kind, (c1, c2), (out, _) in calls:
        sign = 1 if kind == "F" else -1
        exponents = ((1 - 2 * c1) * (1 - 2 * out), (1 - 2 * c2) * sign * (1 - 2 * out))
        counts["divide"] += -1 in exponents
        counts["chart change"] += out != c1
    return data, counts


def test_finv_and_chart_one_shears_match_chart_zero(monkeypatch):
    # the F . Finv pair makes the orbits divide and change chart in their
    # shears; cancelling it leaves the same map, whose shears all multiply
    # and keep their chart, as they did in chart 0 of the word conjugated
    # into each sector's corner
    detour, detour_counts = _shear_counts(
        monkeypatch, parse_word(f"F . G({_A},{_B}) . F . Finv . G(0,{_C}) . R . F . F")
    )
    direct, direct_counts = _shear_counts(
        monkeypatch, parse_word(f"F . G({_A},{_B}) . G(0,{_C}) . R . F . F")
    )
    assert detour_counts["divide"] > 0 and detour_counts["chart change"] > 0
    assert direct_counts == {"divide": 0, "chart change": 0}
    for side in ("forward", "backward"):
        a, b = getattr(detour.cases, side), getattr(direct.cases, side)
        assert (a.case, a.t) == (b.case, b.t)
    for a, b in zip(detour.records, direct.records):
        assert a.sigma == b.sigma and a.case == b.case
        assert max(abs(x - y) for x, y in zip(a.multipliers, b.multipliers)) < 1e-12


def test_chart_inversions_of_an_i01_word(monkeypatch):
    # simplifying the sector words leaves an I10 inside them, so the chart
    # column flips chart bits on every pass
    word = parse_word("U(2,0.3i) . G(0.2i,0) . Finv . I01")
    calls = _chart_calls(monkeypatch, ("I",))
    data = all_fixed_point_data(word)
    monkeypatch.undo()
    assert calls
    for sigma in ((-1, -1), (1, 1)):
        rec = data.record(sigma)
        expected = sorted(np.linalg.eigvals(complex_jacobian(word, rec.point)), key=abs)
        assert max(abs(a - b) for a, b in zip(sorted(rec.multipliers, key=abs), expected)) < 1e-12
    assert verify_conjugate_pairs(data, tol=1e-10) < 1e-10


def test_reconcile_charts_flips_back_on_the_unit_circle():
    v = cmath.exp(0.7j)
    end = _Walk([v, 0.25 + 0j], [1, 0], [np.array([1 + 2j, -0.5]), np.array([0.3, 4j])])
    fixed_points._reconcile_charts(end, _Walk([0j, 0j], [0, 0], None))
    assert end.w == [1 / v, 0.25] and end.inf == [0, 0]
    assert np.array_equal(end.jac[0], np.array([1 + 2j, -0.5]) * (-1.0 / (v * v)))
    assert np.array_equal(end.jac[1], np.array([0.3, 4j]))


def test_reconcile_charts_refuses_off_the_unit_circle():
    end = _Walk([0.5 + 0j, 0j], [1, 0], None)
    with pytest.raises(FixedPointError):
        fixed_points._reconcile_charts(end, _Walk([0j, 0j], [0, 0], None))


# disk parameters that merge when adjacent (a conj(c) real), and generic ones that seldom do
merging_params = st.one_of(
    st.sampled_from([0j, 0.3, -0.3, 0.5, 0.2j, -0.4j, 0.1 + 0.1j, -0.2 - 0.2j]),
    st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
)


@st.composite
def merging_atoms(draw):
    kind = draw(st.sampled_from(["F", "Finv", "R", "I", "G", "G"]))
    if kind == "I":
        return atom_I(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if kind == "G":
        return atom_G(draw(merging_params), draw(merging_params))
    return {"F": atom_F(), "Finv": atom_Finv(), "R": atom_R()}[kind]


def _simplified(word):
    """The simplified atoms as text, or the error simplifying raised."""
    try:
        return repr(simplify(word).atoms)
    except ValueError as exc:
        return repr(exc)


@given(st.lists(merging_atoms(), max_size=12).map(MapWord))
@settings(max_examples=300, deadline=None)
def test_sector_words_simplify_once_per_direction(word):
    # a direction's simplified map conjugated by a chart atom simplifies to
    # the atoms, G parameters bit for bit, of the whole conjugated word: a
    # chart atom moves through a word and changes no merge
    for active in (word, inverse(word)):
        for power in (1, 2):
            raw = word_power(active, power)
            try:
                reduced = simplify(raw)
            except ValueError as exc:
                reduced, refused = None, repr(exc)
            for k in (0, 1):
                for l in (0, 1):
                    chart = MapWord([atom_I(k, l)])
                    once = refused if reduced is None else _simplified(concat(chart, reduced, chart))
                    assert once == _simplified(concat(chart, raw, chart))
