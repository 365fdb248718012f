"""Closed-form spectra: catalogue vs the fixed-point engine, enumeration, traces."""

import bisect
import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torspec.fixed_points import all_fixed_point_data
from torspec.map_algebra import orientation, parse_word, psi_word
from torspec.operator_numerics import _TIE_REL, _sort_eigenvalues, _sort_order
from torspec.resonance_theory import (
    _GROUP_TOL,
    EigenvalueEntry,
    SpectrumModel,
    _count_quadrant,
    _families,
    _lattice_values,
    closed_form_multipliers_psi,
    closed_trace,
    counting_function,
    decay_classification,
    embedding_eta_formula,
    embedding_gaps,
    embedding_singular_values,
    enumerate_eigenvalues,
    fit_stretched_rate,
    leading_moduli,
    psi_cases,
    spectral_determinant,
    spectrum_model_from_word,
    spectrum_model_psi,
)

SIGMAS = ((-1, -1), (1, 1), (-1, 1), (1, -1))

# the four parity regimes of the twisted-shear family
PROBES = [
    ((2, 1), (0.4 + 0.2j, -0.3 + 0.2j), 0),
    ((1, 2, 1), (0.4 + 0.2j, -0.3 + 0.2j, 0.25j), 0),
    ((2, 1), (0.4 + 0.2j, -0.3 + 0.2j), 1),
    ((1, 2, 1), (0.4 + 0.2j, -0.3 + 0.2j, 0.25j), 1),
]


def _as_multiset(pair):
    return sorted(pair, key=lambda v: (round(v.real, 9), round(v.imag, 9)))


@pytest.mark.parametrize("ks,params,s", PROBES)
def test_catalogue_matches_fixed_point_engine(ks, params, s):
    word = psi_word(ks, params, s)
    data = all_fixed_point_data(word)
    predicted = closed_form_multipliers_psi(ks, params, s)
    fwd, bwd = psi_cases(len(ks), s)
    assert data.cases.forward.case == fwd
    assert data.cases.backward.case == bwd
    for sigma in SIGMAS:
        got = _as_multiset(data.record(sigma).multipliers)
        want = _as_multiset(predicted[sigma])
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-10


def _equal_parameter_words():
    """U(1,0.3) . U(1,0.3), then 60 seeded psi words of 2 or 4 blocks with one parameter in [0.05, 0.9]."""
    rng = random.Random(7)
    words = [((1, 1), 0.3)]
    for _ in range(60):
        n = rng.choice((2, 4))
        words.append((tuple(rng.randint(1, 3) for _ in range(n)), rng.uniform(0.05, 0.9)))
    return words


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the fixed points form the discriminant as tr^2 - 4 det, "
    "which cancels where the two multipliers are equal and splits them by about "
    "sqrt(eps) (2 of the 60 seeded words, worst 1.05e-8, and U(1,0.3) . U(1,0.3))",
)
def test_equal_multipliers_to_full_precision():
    # an equal-parameter psi word has equal odd and even subproducts whenever
    # its odd- and even-indexed exponent sums agree: each sector's pair, taken
    # unordered, must still match the closed form to 1e-14
    worst = []
    for ks, a in _equal_parameter_words():
        params = (a,) * len(ks)
        data = all_fixed_point_data(psi_word(ks, params, 0))
        for sigma, (w1, w2) in closed_form_multipliers_psi(ks, params, 0).items():
            g1, g2 = data.record(sigma).multipliers
            error = min(max(abs(g1 - w1), abs(g2 - w2)), max(abs(g1 - w2), abs(g2 - w1)))
            worst.append((error, ks, a, sigma))
    assert max(worst)[0] <= 1e-14, [case for case in worst if case[0] > 1e-14]


@pytest.mark.parametrize("ks,params,s", PROBES)
def test_model_from_word_agrees_with_closed_form(ks, params, s):
    closed = spectrum_model_psi(ks, params, s)
    numeric = spectrum_model_from_word(psi_word(ks, params, s))
    assert numeric.forward_case == closed.forward_case
    assert numeric.backward_case == closed.backward_case
    assert numeric.omega == closed.omega == (-1) ** len(ks)
    for a, b in zip(
        _as_multiset(numeric.same_sign_multipliers),
        _as_multiset(closed.same_sign_multipliers),
    ):
        assert abs(a - b) < 1e-10
    for a, b in zip(
        _as_multiset(numeric.mixed_multipliers),
        _as_multiset(closed.mixed_multipliers),
    ):
        assert abs(a - b) < 1e-10


def test_catalogue_validation():
    with pytest.raises(ValueError):
        closed_form_multipliers_psi((1,), (0.5,), 2)
    with pytest.raises(ValueError):
        closed_form_multipliers_psi((1, 1), (0.5,), 0)
    with pytest.raises(ValueError):
        SpectrumModel(1, "EP", "EP", (1.2, 0.3), (0.1, 0.1))
    with pytest.raises(ValueError):
        SpectrumModel(2, "EP", "EP", (0.2, 0.3), (0.1, 0.1))
    with pytest.raises(ValueError):
        SpectrumModel(1, "XX", "EP", (0.2, 0.3), (0.1, 0.1))


def test_enumeration_head_two_block():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    got = enumerate_eigenvalues(model, 0.2)
    assert got == (
        EigenvalueEntry(1.0 + 0j, 1),
        EigenvalueEntry(0.5 + 0j, 2),
        EigenvalueEntry(0.3 + 0j, 2),
        EigenvalueEntry(0.25 + 0j, 2),
    )


def test_enumeration_orientation_sign():
    model = SpectrumModel(-1, "EP", "EP", (0.5, 0.3), (0.5, 0.5))
    values = {e.value: e.multiplicity for e in enumerate_eigenvalues(model, 0.2)}
    # inverse-branch head value omega * mu1 * mu2 carries the sign
    assert values[-0.25 + 0j] == 2


def test_enumeration_reflecting_pairs():
    model = SpectrumModel(1, "ER", "ER", (0.25, 0.09), (0.0, 0.0))
    got = enumerate_eigenvalues(model, 0.4)
    assert got == (
        EigenvalueEntry(1.0 + 0j, 1),
        EigenvalueEntry(0.5 + 0j, 1),
        EigenvalueEntry(-0.5 + 0j, 1),
    )


def test_enumeration_monomial_word_is_trivial():
    cat = parse_word("F . F . R")
    model = spectrum_model_from_word(cat)
    assert enumerate_eigenvalues(model, 1e-10) == (EigenvalueEntry(1.0 + 0j, 1),)
    assert decay_classification(model) == (0, None)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.05, 0.7),
    q=st.floats(0.05, 0.7),
    g1=st.floats(0.0, 0.7),
    g2=st.floats(0.05, 0.7),
    ph=st.floats(0.0, 6.28),
    fwd=st.sampled_from(["EP", "ER"]),
    bwd=st.sampled_from(["EP", "ER"]),
    omega=st.sampled_from([1, -1]),
    r=st.floats(0.02, 0.5),
)
def test_counting_matches_enumeration(p, q, g1, g2, ph, fwd, bwd, omega, r):
    lam = (p * cmath.exp(1j * ph), complex(q))
    model = SpectrumModel(omega, fwd, bwd, lam, (complex(g1), g2 * cmath.exp(2j * ph)))
    total = sum(e.multiplicity for e in enumerate_eigenvalues(model, r))
    assert total == counting_function(model, r)


def test_count_quadrant_pinned():
    assert _count_quadrant(0.5, 0.5, 2 ** -5) == 20
    # exact threshold ties stay inside
    assert _count_quadrant(0.5, 0.5, 0.5 ** 3) == 9
    assert _count_quadrant(0.5, 0.3, 1.5) == 0
    assert _count_quadrant(0.0, 0.5, 0.25) == 2
    assert _count_quadrant(0.0, 0.0, 0.5) == 0
    with pytest.raises(ValueError):
        _count_quadrant(1.0, 0.5, 0.1)


def test_counting_pinned_two_block():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    assert counting_function(model, 1e-12) == 1831
    entries = enumerate_eigenvalues(model, 1e-12)
    assert sum(e.multiplicity for e in entries) == 1831


@pytest.mark.parametrize("ks,params,s", PROBES)
def test_trace_formula_matches_enumeration(ks, params, s):
    model = spectrum_model_psi(ks, params, s)
    entries = enumerate_eigenvalues(model, 1e-10)
    for k in range(1, 6):
        brute = sum(e.multiplicity * e.value ** k for e in entries)
        assert abs(closed_trace(model, k) - brute) < 1e-7


def test_trace_monomial_word_is_one():
    model = spectrum_model_from_word(parse_word("F . F . R"))
    for k in range(1, 8):
        assert closed_trace(model, k) == 1.0


def test_reflecting_traces_odd_orders():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 1)
    assert closed_trace(model, 1) == 1.0
    assert closed_trace(model, 3) == 1.0
    assert abs(closed_trace(model, 2).imag) < 1e-15


def test_determinant_monomial_word_exact():
    model = spectrum_model_from_word(parse_word("F . F . R"))
    z = 0.7 - 0.4j
    value, err = spectral_determinant(model, z)
    assert value == 1.0 - z
    assert err == 0.0


def test_determinant_tail_estimate():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    z = 0.3 + 0.2j
    coarse, err_c = spectral_determinant(model, z, cutoff=1e-2)
    fine, err_f = spectral_determinant(model, z, cutoff=1e-10)
    assert abs(coarse - fine) <= err_c
    assert err_f < 1e-8


def test_decay_rate_two_block():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    d, eta = decay_classification(model)
    assert d == 2
    # all four families share moduli (1/2, 3/10): rate simplifies analytically
    assert abs(eta - math.sqrt(math.log(2.0) * math.log(10.0 / 3.0) / 2.0)) < 1e-13


def test_decay_single_axis():
    model = SpectrumModel(1, "EP", "EP", (0.5, 0.0), (0.0, 0.0))
    d, eta = decay_classification(model)
    assert d == 1
    assert abs(eta - math.log(2.0) / 2.0) < 1e-13


def test_decay_one_planar_family_pair():
    model = SpectrumModel(1, "EP", "EP", (0.5, 0.3), (0.2, 0.0))
    d, eta = decay_classification(model)
    assert d == 2
    assert abs(eta - math.sqrt(math.log(2.0) * math.log(10.0 / 3.0))) < 1e-13


def test_rank_fit_recovers_decay_rate():
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    _, eta = decay_classification(model)
    fitted, _ = fit_stretched_rate(leading_moduli(model, 2000), 100, 2000)
    assert abs(fitted - eta) / eta < 0.03


def test_embedding_formula_and_ball():
    alpha, gamma = (0.1, 0.1), (0.3, 0.3)
    alpha_out, gamma_out = (0.3, 0.3), (0.1, 0.1)
    same, mixed = embedding_gaps(alpha, gamma, alpha_out, gamma_out)
    assert same == pytest.approx((0.2, 0.2)) and mixed == pytest.approx((0.2, 0.2))
    eta = embedding_eta_formula(alpha, gamma, alpha_out, gamma_out)
    assert abs(eta - 1.0 / math.sqrt(50.0)) < 1e-15
    sv = embedding_singular_values(alpha, gamma, alpha_out, gamma_out, 60)
    assert len(sv) == 2 * 60 * 60 + 2 * 60 + 1
    assert sv[0] == 1.0
    fitted, _ = fit_stretched_rate(sv, 100, 7000)
    assert abs(fitted - eta) / eta < 0.02


def test_stretched_fit_rejects_nonpositive_moduli():
    moduli = [1.0, 0.5, 0.25, 0.125, 0.0625]
    assert fit_stretched_rate(moduli, 2, 5)[0] > 0
    for bad in (0.0, -0.1, math.inf, math.nan):
        values = moduli[:3] + [bad] + moduli[4:]
        with pytest.raises(ValueError, match=f"modulus at rank 4 is {bad}, not positive and finite"):
            fit_stretched_rate(values, 2, 5)
    # outside the window a bad modulus is not read
    assert fit_stretched_rate([0.0] + moduli[1:], 2, 5) == fit_stretched_rate(moduli, 2, 5)


def _reference_embedding_singular_values(alpha, gamma, alpha_out, gamma_out, band):
    """The L1 ball walked mode by mode, with the quadrant rule written out."""
    same, mixed = embedding_gaps(alpha, gamma, alpha_out, gamma_out)
    out = []
    for n1 in range(-band, band + 1):
        for n2 in range(-band + abs(n1), band - abs(n1) + 1):
            same_sign = (n1 >= 0 and n2 >= 0) or (n1 <= 0 and n2 <= 0)
            g = same if same_sign else mixed
            out.append(-(g[0] * abs(n1) + g[1] * abs(n2)))
    return np.exp(np.sort(np.array(out))[::-1])


rate_pairs = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
gap_pairs = st.tuples(st.floats(1e-6, 3.0), st.floats(1e-6, 3.0))


@given(rate_pairs, rate_pairs, gap_pairs, gap_pairs, st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_embedding_singular_values_match_reference(alpha, gamma, same, mixed, band):
    alpha_out = (alpha[0] + same[0], alpha[1] + same[1])
    gamma_out = (gamma[0] - mixed[0], gamma[1] - mixed[1])
    expected = _reference_embedding_singular_values(alpha, gamma, alpha_out, gamma_out, band)
    assert np.array_equal(embedding_singular_values(alpha, gamma, alpha_out, gamma_out, band), expected)


def test_embedding_gap_validation():
    with pytest.raises(ValueError):
        embedding_gaps((0.1, 0.1), (0.3, 0.3), (0.1, 0.3), (0.1, 0.1))
    with pytest.raises(ValueError):
        embedding_gaps((0.1, 0.1), (0.3, 0.3), (0.3, 0.3), (0.3, 0.1))


def test_orientation_matches_block_parity():
    for ks, params, s in PROBES:
        word = psi_word(ks, params, s)
        assert orientation(word) == (-1) ** len(ks)


# ---------------------------------------------------------------------------
# Reference: one branch per family and case, written out separately
# ---------------------------------------------------------------------------


def _reference_snap(value):
    # the scalar snap enumerate_eigenvalues made of each value before it snapped them in numpy
    re, im = value.real, value.imag
    scale = abs(value)
    if abs(im) < 5e-13 * scale:
        im = 0.0
    if abs(re) < 5e-13 * scale:
        re = 0.0
    return complex(re, im)


def _reference_enumerate_eigenvalues(model, cutoff):
    values = []
    lam = model.same_sign_multipliers
    if model.forward_case == "EP":
        for v in _lattice_values(lam, cutoff, positive_only=False):
            values.append(v)
            values.append(v.conjugate())
    else:
        for v in _lattice_values(lam, cutoff * cutoff, positive_only=False):
            w = cmath.sqrt(v)
            values.append(w)
            values.append(-w)
    mu = model.mixed_multipliers
    if model.backward_case == "EP":
        for v in _lattice_values(mu, cutoff, positive_only=True):
            values.append(model.omega * v)
            values.append(model.omega * v.conjugate())
    else:
        for v in _lattice_values(mu, cutoff * cutoff, positive_only=True):
            w = cmath.sqrt(v)
            values.append(w)
            values.append(-w)

    values = _sort_eigenvalues(np.array([_reference_snap(v) for v in values], dtype=complex)).tolist()
    # the tie groups' leading moduli, smallest first: a modulus belongs to
    # the group of the first lead at or above it
    leads = []
    for m in sorted((abs(v) for v in values), reverse=True):
        if not leads or leads[-1] - m > _TIE_REL * leads[-1]:
            leads.append(m)
    leads.reverse()
    entries = [(EigenvalueEntry(1.0 + 0j, 1), None)]
    members = {}
    for v in values:
        group = bisect.bisect_left(leads, abs(v))
        for i in members.setdefault(group, []):
            entry = entries[i][0]
            if abs(v - entry.value) <= _GROUP_TOL * max(abs(v), abs(entry.value)):
                entries[i] = (EigenvalueEntry(entry.value, entry.multiplicity + 1), group)
                break
        else:
            members[group].append(len(entries))
            entries.append((EigenvalueEntry(v, 1), group))
    return tuple(entry for entry, _ in entries)


def _reference_merge(model, cutoff):
    """enumerate_eigenvalues as it merged: a scalar snap per value and a new entry per merged copy.

    The order comes from `_sort_order`, which its own test pins to the
    scalar tie walk it had.
    """
    values = []
    for fam in _families(model):
        if fam.case == "EP":
            for v in _lattice_values(fam.pair, cutoff, fam.positive_only):
                w = v.conjugate()
                if fam.omega is not None:
                    v, w = fam.omega * v, fam.omega * w
                values += (v, w)
        else:
            for v in _lattice_values(fam.pair, cutoff * cutoff, fam.positive_only):
                w = cmath.sqrt(v)
                values += (w, -w)
    snapped = np.array([_reference_snap(v) for v in values], dtype=complex)
    order, groups = _sort_order(snapped)
    entries = [EigenvalueEntry(1.0 + 0j, 1)]
    current, start = -1, 1
    for v, group in zip(snapped[order].tolist(), groups[order].tolist()):
        if group != current:
            current, start = group, len(entries)
        for i in range(start, len(entries)):
            entry = entries[i]
            if abs(v - entry.value) <= _GROUP_TOL * max(abs(v), abs(entry.value)):
                entries[i] = EigenvalueEntry(entry.value, entry.multiplicity + 1)
                break
        else:
            entries.append(EigenvalueEntry(v, 1))
    return tuple(entries)


def _entry_bits(entries):
    return [(struct.pack("<dd", e.value.real, e.value.imag), e.multiplicity) for e in entries]


# multipliers with equal moduli, conjugates, zeros, signed zero parts and generic values
multipliers = st.one_of(
    st.sampled_from([0j, 0.5, -0.5, 0.5j, -0.5j, 0.3 + 0.4j, 0.3 - 0.4j, complex(-0.0, 0.5), complex(0.5, -0.0)]),
    st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
)
spectrum_models = st.builds(
    SpectrumModel,
    omega=st.sampled_from([1, -1]),
    forward_case=st.sampled_from(["EP", "ER"]),
    backward_case=st.sampled_from(["EP", "ER"]),
    same_sign_multipliers=st.tuples(multipliers, multipliers),
    mixed_multipliers=st.tuples(multipliers, multipliers),
)


@given(spectrum_models, st.sampled_from([1e-2, 1e-3, 1e-4]))
@example(SpectrumModel(1, "EP", "EP", (0.5, 0.5j), (0.5j, -0.5)), 1e-4)
@example(SpectrumModel(-1, "ER", "EP", (0.3 + 0.4j, 0.3 - 0.4j), (complex(-0.0, 0.5), 0.5)), 1e-4)
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_the_scalar_merge_bit_for_bit(model, cutoff):
    assert _entry_bits(enumerate_eigenvalues(model, cutoff)) == _entry_bits(_reference_merge(model, cutoff))


def _reference_decay_classification(model):
    r1, r2 = (abs(v) for v in model.same_sign_multipliers)
    if model.forward_case == "ER":
        r1, r2 = math.sqrt(r1), math.sqrt(r2)
    g1, g2 = (abs(v) for v in model.mixed_multipliers)
    if model.backward_case == "ER":
        g1, g2 = math.sqrt(g1), math.sqrt(g2)
    families = [(r1, r2), (r1, r2), (g1, g2), (g1, g2)]
    planar = [f for f in families if f[0] > 0.0 and f[1] > 0.0]
    if planar:
        s = sum(1.0 / (math.log(f1) * math.log(f2)) for f1, f2 in planar)
        return 2, (0.5 * s) ** -0.5
    axis = [c for fam in families[:2] for c in fam if c > 0.0]
    if axis:
        return 1, 1.0 / sum(1.0 / abs(math.log(c)) for c in axis)
    return 0, None


_signed_zero = st.sampled_from([0.0, -0.0])
_axis = st.floats(0.05, 0.9) | st.floats(-0.9, -0.05)
_disk = st.builds(cmath.rect, st.floats(0.05, 0.9), st.floats(-math.pi, math.pi))
multipliers = st.one_of(
    st.just(0j),
    st.builds(complex, _axis, _signed_zero),
    st.builds(complex, _signed_zero, _axis),
    _disk,
)
models = st.builds(
    SpectrumModel,
    st.sampled_from([1, -1]),
    st.sampled_from(["EP", "ER"]),
    st.sampled_from(["EP", "ER"]),
    st.tuples(multipliers, multipliers),
    st.tuples(multipliers, multipliers),
)


@given(models, st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]))
@settings(max_examples=150, deadline=None)
def test_family_table_matches_reference(model, cutoff):
    assert repr(enumerate_eigenvalues(model, cutoff)) == repr(
        _reference_enumerate_eigenvalues(model, cutoff)
    )
    assert repr(decay_classification(model)) == repr(_reference_decay_classification(model))


@given(_disk, _disk, st.sampled_from([(1, 1), (2, 2), (1, 1, 1), (1, 2, 1), (2, 1, 1)]), st.sampled_from([0, 1]))
@example(a=0.5, b=0.5 + 2.5e-13j, ks=(1, 1, 1), s=0)
@settings(max_examples=100, deadline=None)
def test_enumeration_merges_every_repeated_value(a, b, ks, s):
    # repeated multipliers (a, a), and the (v, -v) pairs of odd block counts,
    # give each value many copies that differ only in the last bits; with b
    # within 1e-12 of a, two distinct values within the merge tolerance sit
    # on either side of the argument seam, apart in their tie group
    params = (a, a) if len(ks) == 2 else (a, b, a)
    values = np.array([e.value for e in enumerate_eigenvalues(spectrum_model_psi(ks, params, s), 1e-3)])
    gaps = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(gaps, np.inf)
    scale = np.maximum(np.abs(values)[:, None], np.abs(values)[None, :])
    assert np.all(gaps > _GROUP_TOL * scale)
