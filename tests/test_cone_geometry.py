"""Sector conventions, quadrant weights, domains, and torus sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec.cone_geometry import (
    SIGMAS,
    QuadrantWeight,
    _sigma_arrays,
    ell,
    mixed_sectors,
    same_sign_sectors,
    sample_torus,
    sigma_key,
    torus_radii,
)
from torspec.operator_numerics import _mode_weights

I2 = np.eye(2, dtype=np.int64)

lattice_points = st.tuples(st.integers(-40, 40), st.integers(-40, 40))

UNIMODULAR = [
    np.array([[1, 1], [0, 1]]),
    np.array([[1, 0], [1, 1]]),
    np.array([[2, 1], [1, 1]]),
    np.array([[0, 1], [1, 0]]),
    np.array([[-1, 0], [0, 1]]),
    np.array([[3, 2], [1, 1]]),
]


def test_sector_keys():
    assert sigma_key((-1, -1)) == "--"
    assert sigma_key((1, -1)) == "+-"
    with pytest.raises(ValueError):
        sigma_key((0, 1))
    assert [sigma_key(s) for s in SIGMAS] == ["--", "++", "-+", "+-"]


def test_parity():
    assert ell((-1, -1)) == 1 and ell((1, 1)) == 1
    assert ell((-1, 1)) == -1 and ell((1, -1)) == -1
    assert set(same_sign_sectors()) | set(mixed_sectors()) == set(SIGMAS)


def _sectors(basis, points):
    n1 = np.array([p[0] for p in points], dtype=np.int64)
    n2 = np.array([p[1] for p in points], dtype=np.int64)
    s1, s2 = _sigma_arrays(np.asarray(basis, dtype=np.int64), n1, n2)
    return [(int(a), int(b)) for a, b in zip(s1, s2)]


def _reference_log_weight(weight, n):
    """The sector rule and apex written out for one lattice point."""
    p = np.array(weight.basis)
    m1 = p[0, 0] * n[0] + p[1, 0] * n[1]
    m2 = p[0, 1] * n[0] + p[1, 1] * n[1]
    if m1 >= 0 and m2 >= 0:
        sigma = (-1, -1)
    elif m1 <= 0 and m2 <= 0:
        sigma = (1, 1)
    elif m1 > 0:
        sigma = (-1, 1)
    else:
        sigma = (1, -1)
    d = weight.d_same if ell(sigma) == 1 else weight.d_mixed
    v = p.astype(float) @ np.array([sigma[0] * d[0], sigma[1] * d[1]])
    return float(n[0]) * v[0] + float(n[1]) * v[1]


def test_sector_boundary_convention():
    points = [(0, 0), (1, 0), (0, 1), (3, 2), (-1, 0), (0, -2), (-1, -1), (2, -3), (-2, 5)]
    assert _sectors(I2, points) == [
        (-1, -1), (-1, -1), (-1, -1), (-1, -1), (1, 1), (1, 1), (1, 1), (-1, 1), (1, -1),
    ]


@given(st.lists(lattice_points, min_size=1, max_size=50))
@settings(max_examples=200)
def test_sectors_tile_the_lattice(points):
    assert all(sigma in SIGMAS for sigma in _sectors(I2, points))


def test_weight_oracle_values():
    w = QuadrantWeight.standard(alpha=(0.1, 0.2), gamma=(1.0, 1.0))
    assert math.isclose(math.exp(w.log_weight_array(3, 2)), math.exp(-0.7), rel_tol=1e-12)
    w2 = QuadrantWeight.standard(alpha=(1.0, 1.0), gamma=(0.4, 0.3))
    assert math.isclose(math.exp(w2.log_weight_array(-2, 5)), math.exp(0.8 + 1.5), rel_tol=1e-12)
    assert _sectors(w2.basis, [(-2, 5)]) == [(1, -1)]


def test_alpha_gamma_roundtrip():
    w = QuadrantWeight.standard(alpha=(0.1, 0.2), gamma=(0.4, 0.3))
    assert w.alpha == (0.1, 0.2)
    assert w.gamma == (0.4, 0.3)


rates = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@given(st.sampled_from(range(len(UNIMODULAR) + 1)), rates, rates, st.integers(1, 16))
@settings(max_examples=200)
def test_mode_weights_are_even(idx, d_same, d_mixed, band):
    # the sector signs flip with n, so nu(-n) = nu(n) bit for bit; the
    # transfer matrix as the mirrored transpose of the composition matrix
    # rests on this (mode -n sits at the mirrored index)
    basis = UNIMODULAR[idx] if idx < len(UNIMODULAR) else I2
    nu = _mode_weights(QuadrantWeight(basis, d_same, d_mixed), band)
    assert np.array_equal(nu, nu[::-1])


@given(st.lists(lattice_points, min_size=1, max_size=20), st.sampled_from(range(len(UNIMODULAR))))
@settings(max_examples=200)
def test_reindexing_isometry(points, idx):
    # weight with basis A equals the identity-basis weight after n -> A^T n
    a = UNIMODULAR[idx]
    w_id = QuadrantWeight.standard(alpha=(0.1, 0.2), gamma=(0.4, 0.3))
    w_a = QuadrantWeight.standard(alpha=(0.1, 0.2), gamma=(0.4, 0.3), basis=a)
    n1, n2 = np.array(points).T
    moved1, moved2 = a.T @ np.array([n1, n2])
    assert np.allclose(w_a.log_weight_array(n1, n2), w_id.log_weight_array(moved1, moved2), rtol=0.0, atol=1e-10)


@given(st.lists(lattice_points, min_size=1, max_size=20))
@settings(max_examples=50)
def test_vectorized_log_weight_matches_scalar(points):
    w = QuadrantWeight.standard(alpha=(0.12, 0.2), gamma=(0.33, 0.4), basis=np.array([[2, 1], [1, 1]]))
    n1 = np.array([p[0] for p in points])
    n2 = np.array([p[1] for p in points])
    vec = w.log_weight_array(n1, n2)
    for i, p in enumerate(points):
        assert math.isclose(vec[i], _reference_log_weight(w, p), abs_tol=1e-12)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (sigma_key, ((0, 1),), "not a sign pair: (0, 1)"),
        (QuadrantWeight.standard, ((0.1, 0.1), (0.1, 0.1), [[1, 0, 0], [0, 1, 0]]), "basis must be a 2x2 integer matrix"),
        (torus_radii, ((1, 1), (0.1, 0.1), [1, 0, 0, 1]), "basis must be a 2x2 integer matrix"),
        (QuadrantWeight.standard, ((0.1, 0.1), (0.1, 0.1), [[2, 0], [0, 1]]), "basis must be unimodular, det = 2"),
        (QuadrantWeight.standard, ((math.inf, 0.1), (0.1, 0.1)), "alpha must be finite, got (inf, 0.1)"),
        (QuadrantWeight.standard, ((0.1, 0.1), (0.1, math.nan)), "gamma must be finite, got (0.1, nan)"),
        (QuadrantWeight.standard, ((0.0, 0.1), (0.1, 0.1)), "alpha and gamma must be strictly positive"),
        (QuadrantWeight.standard, ((0.1, 0.1), (-0.1, 0.1)), "alpha and gamma must be strictly positive"),
        (QuadrantWeight, (I2, (math.nan, 1.0), (-1.0, -1.0)), "d_same must be finite, got (nan, 1.0)"),
        (QuadrantWeight, (I2, (1.0, 1.0), [-1.0, -math.inf]), "d_mixed must be finite, got [-1.0, -inf]"),
        (sample_torus, ((1.0, 1.0), 0), "count must be positive"),
        (sample_torus, ((1.0, 1.0), -3), "count must be positive"),
    ],
)
def test_refusals(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError and str(info.value) == message


def test_torus_radii_identity_basis():
    r = torus_radii((1, -1), (0.1, 0.2))
    assert r[0] == pytest.approx(math.exp(0.1))
    assert r[1] == pytest.approx(math.exp(-0.2))
    # no basis skips the matrix product, and gives the identity basis' radii bit for bit
    for sigma in SIGMAS:
        for delta in ((0.1, 0.2), (0.37, 1e-300), (-2.5, 0.0), (1e-17, 3.0)):
            want = torus_radii(sigma, delta, basis=np.eye(2, dtype=int))
            assert torus_radii(sigma, delta) == want and all(type(v) is float for v in want)
    # with a nontrivial basis the radii mix the sector scales
    p = np.array([[1, 1], [0, 1]])
    r2 = torus_radii((1, 1), (0.1, 0.2), basis=p)
    assert r2[0] == pytest.approx(math.exp(0.3))
    assert r2[1] == pytest.approx(math.exp(0.2))


def test_torus_sampling():
    pts = sample_torus((2.0, 0.5), 37)
    assert pts.shape == (37, 2)
    assert np.allclose(np.abs(pts[:, 0]), 2.0)
    assert np.allclose(np.abs(pts[:, 1]), 0.5)
