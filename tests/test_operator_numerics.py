"""Truncated operator assembly: structure oracles, matching, duality, export."""

import cmath
import functools
import json
import math
import random
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torspec import cli, operator_numerics
from torspec.cone_geometry import QuadrantWeight
from torspec.dynamics_checks import auto_weight
from torspec.gl2z import build_homotopic_map
from torspec.map_algebra import (
    _atoms,
    _extended_in,
    _walk,
    complex_jacobian,
    evaluate,
    inverse,
    linear_part,
    orientation,
    parse_word,
    psi_word,
)
from torspec.operator_numerics import (
    AssembledOperator,
    TruncationSizeError,
    _band_dft,
    _band_sums,
    _blaschke_powers,
    _change,
    _closed_form_matrix,
    _diagonal_blocks,
    _grid_operator,
    _grid_points,
    _mirrored,
    _TIE_REL,
    _mode_weights,
    _sort_eigenvalues,
    _sort_order,
    _strong_components,
    _weighted_half,
    assemble_operator,
    match_spectra,
    numeric_trace_power,
    operator_spectrum,
    write_spectrum_csv,
)
from torspec.resonance_theory import (
    EigenvalueEntry,
    closed_trace,
    enumerate_eigenvalues,
    spectrum_model_psi,
)

CAT = parse_word("F . F . R")


def _mode_index(n1, n2, band):
    return (n1 + band) * (2 * band + 1) + (n2 + band)


def _grid_route(word, weight, band, kind="composition"):
    """`assemble_operator` on the grid route, whatever the word."""
    with mock.patch.object(operator_numerics, "_closed_form_matrix", lambda *args: None):
        return assemble_operator(word, weight, band, kind=kind)


@pytest.fixture(scope="module")
def cat_operator():
    weight, _ = auto_weight(CAT)
    return weight, assemble_operator(CAT, weight, 10)


@pytest.fixture(scope="module")
def psi_operator():
    word = psi_word((1, 1), (0.5, 0.3), 0)
    weight, _ = auto_weight(word)
    return word, weight, assemble_operator(word, weight, 8)


def test_automorphism_matrix_is_mode_permutation(cat_operator):
    weight, op = cat_operator
    assert op.converged and op.max_change < 1e-8
    m = op.matrix
    # one entry per column at the transposed-matrix image mode, or none
    a = linear_part(CAT)
    for n1, n2 in ((1, 0), (0, 1), (-2, 3)):
        img = (a[0][0] * n1 + a[1][0] * n2, a[0][1] * n1 + a[1][1] * n2)
        col = m[:, _mode_index(n1, n2, 10)]
        expected = math.exp(
            weight.log_weight_array(*img) - weight.log_weight_array(n1, n2)
        )
        assert abs(col[_mode_index(img[0], img[1], 10)] - expected) < 1e-12
        assert np.count_nonzero(col) == 1
    # image mode (15, 10) falls outside the band: empty column
    assert np.count_nonzero(m[:, _mode_index(5, 5, 10)]) == 0
    assert np.count_nonzero(m, axis=0).max() == 1


def test_automorphism_truncation_deflates_exactly(cat_operator):
    _, op = cat_operator
    spec = operator_spectrum(op)
    assert abs(spec[0] - 1.0) < 1e-12
    assert np.abs(spec[1:]).max() < 1e-10


def test_identity_word_gives_identity_matrix():
    weight = QuadrantWeight.standard((0.1, 0.2), (0.15, 0.1))
    op = assemble_operator(parse_word("I00"), weight, 3)
    assert np.allclose(op.matrix, np.eye(49), atol=1e-13)


def test_grid_jacobian_matches_finite_differences():
    # the maps are holomorphic, so a real central difference gives d/dz
    words = [
        psi_word((2, 1), (0.4 + 0.2j, -0.3), 0),
        parse_word("G(0.3, -0.2i) . F . R"),
        parse_word("I10 . Finv . G(0.5i, 0.2) . R . F"),
    ]
    z1, z2 = _grid_points(8)
    h = 1e-6
    for word in words:
        det = np.linalg.det(complex_jacobian(word, (z1, z2)))
        columns = []
        for dz1, dz2 in ((h, 0.0), (0.0, h)):
            plus = evaluate(word, (z1 + dz1, z2 + dz2))
            minus = evaluate(word, (z1 - dz1, z2 - dz2))
            columns.append([(p - m) / (2 * h) for p, m in zip(plus, minus)])
        (a, c), (b, d) = columns
        assert np.abs(det - (a * d - b * c)).max() < 1e-7


def _grid_image(word, grid, omega):
    """The word's values t on the torus grid and the transfer symbol omega det Dh there."""
    z1, z2 = _grid_points(grid)
    # every atom maps the torus to itself, so no point is ever at infinity here
    values, masks, _ = _extended_in((z1, z2))
    (t1, t2), _, ((j11, j12), (j21, j22)) = _walk(word, values, masks, jacobian=True)
    return t1, t2, omega * (j11 * j22 - j12 * j21) * (z1 * z2) / (t1 * t2)


def _reference_assemble_at_grid(word, weight, band, grid, kind="composition", omega=1):
    """One full fft2 per mode column, the band's coefficients kept.

    `transfer` sums the transfer integral directly, with the symbol of
    `_grid_image`: pass the inverse word, the reciprocal weight and the
    orientation of the word.
    """
    t1, t2, symbol = _grid_image(word, grid, omega)
    if kind == "composition":
        symbol = np.ones_like(symbol)
    width = 2 * band + 1
    modes = np.arange(-band, band + 1)
    log_nu = weight.log_weight_array(
        np.repeat(modes, width), np.tile(modes, width)
    ).reshape(width, width)
    nu = np.exp(log_nu)
    rows = np.ix_(modes % grid, modes % grid)
    matrix = np.empty((width * width, width * width), dtype=complex)
    for i1, n1 in enumerate(modes):
        p1 = t1 ** n1
        for i2, n2 in enumerate(modes):
            values = p1 * t2 ** n2 * symbol
            # index first: only (2 band + 1)^2 of the grid^2 coefficients are kept
            col = np.fft.fft2(values)[rows] / grid ** 2 * (nu / nu[i1, i2])
            matrix[:, i1 * width + i2] = col.reshape(-1)
    return matrix


_KERNEL_CASES = [
    ("two-block", psi_word((1, 2), (0.4 + 0.2j, -0.3j), 0), 8, 64, "composition"),
    ("two-block", psi_word((1, 2), (0.4 + 0.2j, -0.3j), 0), 8, 64, "transfer"),
    ("reversing", psi_word((1, 2, 1), (0.5, 0.3 - 0.1j, 0.2j), 1), 6, 64, "composition"),
    ("reversing", psi_word((1, 2, 1), (0.5, 0.3 - 0.1j, 0.2j), 1), 6, 64, "transfer"),
    ("cat", CAT, 16, 128, "composition"),
]


def _reciprocal(weight):
    """The weight 1 / nu of the dual space, on which the transfer operator acts."""
    return QuadrantWeight(
        weight.basis, tuple(-d for d in weight.d_same), tuple(-d for d in weight.d_mixed)
    )


def _kernel_case(word, kind):
    """The word and weight the kernel sums for a `_KERNEL_CASES` entry.

    The kernel only assembles composition matrices; a `transfer` entry runs
    it on the inverse word under the reciprocal weight, the pair that the
    transfer integral is taken over.
    """
    weight, _ = auto_weight(word)
    if kind == "transfer":
        word, weight = inverse(word), _reciprocal(weight)
    return word, weight


@functools.lru_cache(maxsize=None)
def _reference_case(index, grid):
    """`_reference_assemble_at_grid` for a `_KERNEL_CASES` entry, shared by its block variants."""
    _, word, band, _, kind = _KERNEL_CASES[index]
    return _reference_assemble_at_grid(*_kernel_case(word, kind), band, grid)


_CASE_IDS = [f"{c[0]}-{c[4]}" for c in _KERNEL_CASES]


@pytest.mark.parametrize("small_blocks", [False, True], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("index", range(len(_KERNEL_CASES)), ids=_CASE_IDS)
def test_band_kernel_matches_fft_reference(monkeypatch, small_blocks, index):
    name, word, band, grid, kind = _KERNEL_CASES[index]
    if small_blocks:
        # three rows per block: many blocks, and a last partial one
        monkeypatch.setattr(operator_numerics, "_BLOCK_POINTS", 3 * grid + 1)
        assert grid % 3
    if name == "reversing":
        assert orientation(word) == -1
    word, weight = _kernel_case(word, kind)
    got = _mirrored(_weighted_half(word, _mode_weights(weight, band), band, grid), 0.0)
    assert np.max(np.abs(got - _reference_case(index, grid))) <= 1e-13


@pytest.mark.parametrize("band", range(1, 17))
def test_nested_grids_share_points(band):
    # every doubling the schedule makes, g -> 2g: the points and the band DFT
    # matrix of grid g are the even-indexed ones of grid 2g, bit for bit, so
    # the two grids a change compares are nested trapezoid rules; the open
    # grid's column (z1) and row (z2) hold the same points
    for j in range(3):
        grid = max(8 * band, 64) * 2 ** j
        (column, row), (fine_column, fine_row) = _grid_points(grid), _grid_points(2 * grid)
        assert column.shape == (grid, 1) and row.shape == (1, grid)
        assert np.array_equal(column[:, 0], row[0])
        assert np.array_equal(column, fine_column[::2]) and np.array_equal(row, fine_row[:, ::2])
        assert np.array_equal(_band_dft(band, grid), _band_dft(band, 2 * grid)[:, ::2])


@pytest.mark.parametrize("small_blocks", [False, True], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("index", range(len(_KERNEL_CASES)), ids=_CASE_IDS)
def test_one_doubling_matches_fft_reference(monkeypatch, small_blocks, index):
    # a doubling sums grid 2g from scratch: its matrix is the reference's
    # at 2g, and its change is the reference's full-matrix change g -> 2g
    _, word, band, grid, kind = _KERNEL_CASES[index]
    if small_blocks:
        # 3 rows of grid 2g and 6 rows of grid g per block, each with a
        # partial last one; the weighted rows go a few at a time
        points = 3 * 2 * grid + 1
        monkeypatch.setattr(operator_numerics, "_BLOCK_POINTS", points)
        for columns in (2 * grid, grid):
            step = points // columns
            assert step < grid and grid % step
    word, weight = _kernel_case(word, kind)
    nu = _mode_weights(weight, band)
    coarse = _weighted_half(word, nu, band, grid)
    fine = _weighted_half(word, nu, band, 2 * grid)
    got = _mirrored(fine, 0.0)
    want = _reference_case(index, 2 * grid)
    assert np.max(np.abs(got - want)) <= 1e-13
    change = np.max(np.abs(_reference_case(index, grid) - want))
    assert _change(coarse, fine) == pytest.approx(change, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("kind", ["composition", "transfer"])
def test_half_width_change_matches_full_matrices(kind):
    # a coarse grid, so that the change is far above rounding
    band, grid = 4, 16
    word, weight = _kernel_case(psi_word((1, 2), (0.4 + 0.2j, -0.3j), 0), kind)
    nu = _mode_weights(weight, band)
    assert np.array_equal(nu, nu[::-1])
    got = _change(_weighted_half(word, nu, band, grid), _weighted_half(word, nu, band, 2 * grid))
    want = np.max(np.abs(
        _reference_assemble_at_grid(word, weight, band, grid)
        - _reference_assemble_at_grid(word, weight, band, 2 * grid)
    ))
    assert want > 1e-6
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("index", range(len(_KERNEL_CASES)), ids=_CASE_IDS)
def test_row_chunks_change_nothing(monkeypatch, index):
    # the weighted halves, their change and the matrix are formed entry by
    # entry, so any row chunking, here one row, seven rows with a partial
    # last chunk and all rows at once, gives them bit for bit; the band sums
    # are taken once, so only the chunks of the weighting differ
    _, word, band, grid, kind = _KERNEL_CASES[index]
    word, weight = _kernel_case(word, kind)
    nu = _mode_weights(weight, band)
    sums = {g: _band_sums(word, band, g) for g in (grid, 2 * grid)}
    monkeypatch.setattr(operator_numerics, "_band_sums", lambda word, band, grid: sums[grid].copy())
    assert nu.size % 7
    results = []
    for rows in (1, 7, nu.size):
        monkeypatch.setattr(operator_numerics, "_BLOCK_POINTS", rows * sums[grid].shape[1])
        coarse, fine = (_weighted_half(word, nu, band, g) for g in (grid, 2 * grid))
        change = _change(coarse, fine)
        monkeypatch.setattr(operator_numerics, "_BLOCK_POINTS", rows * nu.size)
        results.append((fine, change, _mirrored(fine, min(max(1e-13, 2.0 * change), 1e-8))))
    for half, change, matrix in results[1:]:
        assert np.array_equal(half, results[0][0])
        assert change == results[0][1]
        assert np.array_equal(matrix, results[0][2])


@pytest.mark.parametrize(
    "where",
    [(0, 0, "coarse"), (0, -1, "fine"), (-1, 0, "fine"), (-1, -1, "coarse"), (40, 20, "fine")],
    ids=["first-entry", "last-column", "last-row", "last-entry", "inner"],
)
def test_nan_anywhere_gives_nan_change(monkeypatch, where):
    # a NaN in either grid's half, in any row chunk and any column, makes
    # the change NaN, which the route reads as not converged
    band = 4
    size = (2 * band + 1) ** 2
    rng = np.random.default_rng(3)
    coarse, fine = (
        rng.standard_normal((size, size // 2 + 1)) + 1j * rng.standard_normal((size, size // 2 + 1))
        for _ in range(2)
    )
    row, column, grid = where
    (coarse if grid == "coarse" else fine)[row, column] = np.nan
    # seven rows per chunk: the last chunk is partial
    monkeypatch.setattr(operator_numerics, "_BLOCK_POINTS", 7 * coarse.shape[1])
    assert size % 7
    assert math.isnan(_change(coarse, fine))

README_WORD = parse_word("U(1,0.5) . U(1,0.3)")


@pytest.mark.parametrize("route", ["linear", "two-block", "grid"])
def test_assembly_leaves_no_thread(route):
    # every route sums on the calling thread
    word = CAT if route == "linear" else README_WORD
    weight, _ = auto_weight(word)
    before = threading.active_count()
    if route == "grid":
        op = _grid_route(word, weight, 6)
    else:
        op = assemble_operator(word, weight, 6)
    assert op.converged
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "word, band", [(README_WORD, 10), (_KERNEL_CASES[0][1], 8)], ids=["readme", "two-block"]
)
def test_grid_route_stops_at_first_settled_grid(word, band):
    # every grid sums every column from scratch; the route stops at the first
    # doubling where the whole weighted matrix moves by less than 1e-8 (here
    # the second) and returns that change and the matrix of that grid; the
    # change there is rounding (about 5e-15), so it agrees to rounding only
    word, weight = _kernel_case(word, "composition")
    op = _grid_route(word, weight, band)
    first = grid = max(8 * band, 64)
    fine = _reference_assemble_at_grid(word, weight, band, grid)
    for _ in range(operator_numerics._MAX_DOUBLINGS):
        grid *= 2
        coarse, fine = fine, _reference_assemble_at_grid(word, weight, band, grid)
        change = np.max(np.abs(coarse - fine))
        if change < 1e-8:
            break
    assert grid == 4 * first
    assert op.converged and op.grid == grid
    assert op.max_change == pytest.approx(change, rel=0.0, abs=1e-14)
    assert np.max(np.abs(op.matrix - fine)) <= 1e-13


def test_nan_change_does_not_converge(monkeypatch):
    band_sums = operator_numerics._band_sums

    def with_nan(*args):
        sums = band_sums(*args)
        sums[0, 0] = np.nan
        return sums

    monkeypatch.setattr(operator_numerics, "_band_sums", with_nan)
    weight, _ = auto_weight(README_WORD)
    with pytest.warns(RuntimeWarning, match="still moving by nan"):
        op = _grid_route(README_WORD, weight, 6)
    assert not op.converged and math.isnan(op.max_change)
    assert op.grid == 64 * 2 ** operator_numerics._MAX_DOUBLINGS


# the changes `_change` reports at successive doublings, and the grid
# (as a multiple of the first) and verdict the route must end on
_SCRIPTED_CHANGES = {
    "first": ([1e-9], 2, True),
    "second": ([1e-7, 1e-9], 4, True),
    "third": ([1e-7, 1e-7, 1e-9], 8, True),
    "never": ([1e-7, 1e-7, 1e-7], 8, False),
    "at-tolerance": ([1e-8, 1e-9], 4, True),
    "nan-then-settled": ([np.nan, 1e-9], 4, True),
}


@pytest.mark.parametrize("script", list(_SCRIPTED_CHANGES))
def test_grid_route_stops_at_first_change_below_tolerance(monkeypatch, script):
    # the loop stops at the first change strictly below 1e-8 (a NaN is not),
    # warns only if none is, and forms the matrix from that grid's half
    # alone, snapped at twice that change, within [1e-13, 1e-8]
    changes, multiple, converged = _SCRIPTED_CHANGES[script]
    band = 4
    word, weight = _kernel_case(README_WORD, "composition")
    nu = _mode_weights(weight, band)
    grids = []
    band_sums = operator_numerics._band_sums

    def summed(word, band, grid):
        grids.append(grid)
        return band_sums(word, band, grid)

    monkeypatch.setattr(operator_numerics, "_band_sums", summed)
    monkeypatch.setattr(operator_numerics, "_change", lambda coarse, fine: changes[len(grids) - 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix, grid, max_change, settled = _grid_operator(word, nu, band)
    first = max(8 * band, 64)
    assert grids == [first * 2 ** j for j in range(len(changes) + 1)]
    assert grid == first * multiple and settled == converged
    assert max_change == changes[-1]
    assert len(caught) == (0 if converged else 1)
    floor = min(max(1e-13, 2.0 * changes[-1] if converged else 0.0), 1e-8)
    assert np.array_equal(matrix, _mirrored(_weighted_half(word, nu, band, grid), floor))


def test_unconverged_columns_warn(monkeypatch):
    monkeypatch.setattr(operator_numerics, "_MAX_DOUBLINGS", 1)
    weight, _ = auto_weight(README_WORD)
    with pytest.warns(RuntimeWarning, match="still moving"):
        op = _grid_route(README_WORD, weight, 10)
    assert not op.converged and op.max_change >= 1e-8
    assert op.grid == 160


def test_linear_word_settles_at_first_doubling():
    weight, _ = auto_weight(CAT)
    op = _grid_route(CAT, weight, 16)
    assert op.converged and op.grid == 256


_TRANSFER_CASES = [c for c in _KERNEL_CASES if c[4] == "transfer"]


@pytest.mark.parametrize("name, word, band, grid, kind", _TRANSFER_CASES, ids=[c[0] for c in _TRANSFER_CASES])
def test_transfer_matches_jacobian_route(name, word, band, grid, kind):
    # the transfer integral summed directly on the final grid, with the
    # symbol omega det Dh^-1, against the mirrored transpose of the
    # composition matrix: two quadratures of one integral
    weight, _ = auto_weight(word)
    op = _grid_route(word, weight, band, "transfer")
    composition = _grid_route(word, weight, band)
    assert op.converged and op.grid == composition.grid
    assert op.matrix.base is not None
    assert np.array_equal(op.matrix, composition.matrix[::-1, ::-1].T)
    want = _reference_assemble_at_grid(
        inverse(word), _reciprocal(weight), band, op.grid, "transfer", orientation(word)
    )
    assert np.max(np.abs(op.matrix - want)) <= 1e-10


@functools.lru_cache(maxsize=None)
def _word(text):
    """parse_word(text), or for "build M" the word that `build --matrix M --decay stretched --eta 1.0` prints."""
    if text.startswith("build "):
        return build_homotopic_map(json.loads(text[6:]), "stretched", 1.0).word
    return parse_word(text)


# fixed weights for the words that auto_weight refuses
_PLAIN = QuadrantWeight.standard((0.1, 0.1), (0.1, 0.1))

# (word, band, weight): None takes auto_weight's
_CLOSED_FORM_CASES = [("U(1,0.5) . U(1,0.3)", band, None) for band in range(4, 13)] + [
    ("U(2,0.3+0.2i) . U(1,-0.4i)", 8, None),
    ("U(2,0.4-0.1i) . U(2,0.3i)", 6, None),
    ("U(1,0) . U(2,0)", 6, None),
    ("U(1,0.5) . U(2,0)", 6, None),
    ("I11 . U(2,0.4) . U(1,0.3)", 8, None),
    ("I11 . U(1,-0.2+0.3i) . U(2,0.25)", 6, None),
    ("U(1,0.5)", 6, None),
    ("U(2,0.4)", 6, QuadrantWeight.standard((0.1, 0.2), (0.15, 0.1))),
    ("I11 . U(2,0.4)", 6, None),
    ("F . F . R", 8, None),
    ("F . R . F . R", 8, None),
    ("R . F . F", 8, None),
    ("I01 . Finv . R . F . F", 8, None),
    ("I00", 3, QuadrantWeight.standard((0.1, 0.2), (0.15, 0.1))),
    ("U(1,0.4) . U(1,0.3) . U(1,0.2)", 6, None),
    ("U(3,0.2) . U(1,0.3) . U(1,0.2)", 6, None),
    ("U(1,0.3) . U(3,0.2+0.1i) . U(1,-0.2i)", 6, None),
    ("U(2,0.2) . U(1,0.1) . U(1,0.2)", 8, None),
    ("I11 . U(1,0.5) . U(2,0.3-0.1i) . U(1,0.2i)", 6, None),
    ("I11 . U(2,0.3) . U(1,0.2) . U(3,0.1)", 7, None),
    ("I11 . U(1,0.2) . U(3,0.1) . U(2,0.1i)", 8, None),
    ("U(1,0.3) . U(1,0.2) . U(2,0.25) . U(1,0.1)", 6, None),
    ("U(1,0.2) . U(2,0.1) . U(1,0.15) . U(1,0.1)", 8, None),
    ("I11 . U(1,0.2) . U(2,0.1) . U(1,0.3i) . U(1,0.15)", 6, None),
    ("U(1,0.2) . U(1,0.1) . U(2,0.15) . U(1,0.2i) . U(1,0.1)", 6, None),
    ("I11 . U(1,0.2) . U(1,0.1) . U(3,0.15) . U(1,0.2i) . U(1,0.1)", 6, None),
    # build's words frame^-1 . [I11 .] psi . frame: frames R, two blocks; frame
    # [[0, 1], [1, 1]], two blocks (a box of twice the band); R, one block
    ("build [[1,1],[1,2]]", 8, None),
    ("build [[2,9],[-3,-13]]", 6, _PLAIN),
    ("build [[0,1],[1,3]]", 8, None),
    # asymmetric frames pin the order of the factors: a wrong order can keep the spectrum
    ("R . U(1,0.5) . U(1,0.3) . F", 6, None),
    ("Finv . U(1,0.4) . F", 6, _PLAIN),
]


@pytest.mark.parametrize("kind", ["composition", "transfer"])
@pytest.mark.parametrize("text, band, weight", _CLOSED_FORM_CASES, ids=[f"{c[0]}-{c[1]}" for c in _CLOSED_FORM_CASES])
def test_closed_form_matches_grid_route(text, band, weight, kind):
    # linear words and chains of u_blocks between two linear frames are built
    # from Blaschke-power coefficients with no grid; the converged grid route
    # is their reference, within 1e-13 or its own snap floor 2 max_change
    word = _word(text)
    if weight is None:
        weight, _ = auto_weight(word)
    grid = _grid_route(word, weight, band, kind)
    op = assemble_operator(word, weight, band, kind=kind)
    assert grid.converged
    assert op.converged and op.max_change == 0.0
    assert op.grid == 4 * band + 1
    assert np.max(np.abs(op.matrix - grid.matrix)) <= max(1e-13, 2.0 * grid.max_change)
    if kind == "transfer":
        assert op.matrix.base is not None


def _mp_blaschke_powers(a, top, span):
    """`_blaschke_powers` by the binomial series in mpmath: (z + a)^p times (1 + conj(a) z)^-p."""
    import mpmath

    a = mpmath.mpc(a.real, a.imag)
    table = np.zeros((2 * top + 1, 2 * span + 1), dtype=complex)
    for p in range(top + 1):
        head = [mpmath.binomial(p, i) * a ** (p - i) for i in range(min(p, span) + 1)]
        tail = [mpmath.mpc(1)]
        for l in range(1, span + 1):
            tail.append(tail[-1] * (p + l - 1) / l * -mpmath.conj(a))
        for j in range(span + 1):
            c = complex(mpmath.fsum(head[i] * tail[j - i] for i in range(min(p, j) + 1)))
            table[top + p, span + j] = c
            table[top - p, span - j] = c.conjugate()
    return table


@pytest.mark.parametrize("a", [0j, 0.3, 0.5 + 0.4j, -0.95, 0.95 * cmath.exp(2.1j), 0.9j])
def test_blaschke_power_table_matches_mpmath(a):
    import mpmath

    top, span = 32, 24
    with mpmath.workdps(40):
        want = _mp_blaschke_powers(complex(a), top, span)
    # 8.3e-16 at worst here (a = -0.95): the recurrence loses a few ulps only
    assert np.max(np.abs(_blaschke_powers(complex(a), top, span) - want)) <= 2e-15


@pytest.mark.parametrize(
    "text",
    [
        "U(1,0.2) . W(1,0.3)",
        "W(1,0.2) . W(2,0.3)",
        "G(0.2,0.1) . F . F . R",
        "G(0,0.3) . F . R . G(-0.2,0) . U(1,0.2)",
        # conjugator [[-2, -1], [7, 4]]: a box of 11 times the band, whose
        # (2 box + 1)^3 cubes would outgrow the (2 band + 1)^4 matrix
        "build [[10,7],[-17,-12]]",
    ],
    ids=["u-and-w-block", "w-blocks", "raw-G", "unmatched-G", "frames-beyond-the-box"],
)
def test_other_words_take_the_grid_route(text):
    op = assemble_operator(_word(text), _PLAIN, 3)
    # the closed form reports grid 4 band + 1 = 13
    assert op.grid >= 64


_FRAMED_CHAINS = [
    "F . U(1,0.4) . U(2,0.3-0.2i) . U(1,0.2) . R . Finv",
    "R . I11 . U(1,0.3) . U(2,0.2i) . U(1,-0.25) . U(3,0.1) . R",
    "Finv . R . U(2,0.5) . U(1,0.3) . U(1,0.4i) . U(1,0.2) . I01 . F",
]
# two blocks need no intermediate sum: the crop holds the very same products
_FRAMED_PAIRS = ["build [[1,1],[1,2]]", "build [[2,9],[-3,-13]]", "R . U(1,0.5) . U(1,0.3) . F"]


@pytest.mark.parametrize("seed", [*range(6), *_FRAMED_CHAINS, *_FRAMED_PAIRS])
def test_chain_band_is_the_crop_of_a_wider_band(seed):
    # the one-sided coefficient tables keep every intermediate mode of a
    # chain inside its box, so the truncation loses no term; the sums still
    # run over more zeros at the wider band, so they agree to rounding
    # (1.1e-16 at worst on these chains), not bit for bit; a seed draws a
    # chain of 3-5 blocks, and a text a chain of 2-4 blocks in linear frames
    if isinstance(seed, str):
        atoms, ks, params = _atoms(_word(seed)), None, None
    else:
        rng = random.Random(seed)
        length = rng.randint(3, 5)
        ks = [rng.choice((1, 1, 2, 3)) for _ in range(length)]
        params = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(length)]
        atoms = _atoms(psi_word(ks, params, seed % 2))
    narrow, wide = 6, 12
    small = _closed_form_matrix(atoms, np.ones((2 * narrow + 1) ** 2), narrow, 0.0)
    large = _closed_form_matrix(atoms, np.ones((2 * wide + 1) ** 2), wide, 0.0)
    modes = np.arange(-wide, wide + 1)
    inside = np.abs(modes) <= narrow
    keep = np.flatnonzero(inside[:, None] & inside[None, :])
    bound = 0.0 if seed in _FRAMED_PAIRS else 1e-15
    assert np.max(np.abs(small - large[np.ix_(keep, keep)])) <= bound, (ks, params)


class _TiltedWeight:
    """nu(n) = exp(<n, tilt>), so nu(-n) = 1 / nu(n): no QuadrantWeight is like it."""

    def log_weight_array(self, n1, n2):
        return 0.3 * np.asarray(n1) - 0.2 * np.asarray(n2)


@pytest.mark.parametrize("kind", ["composition", "transfer"])
def test_assembly_rejects_uneven_weight(kind):
    # the mirrored transpose and the half-width change check both need nu(-n) = nu(n)
    with pytest.raises(ValueError, match="even"):
        assemble_operator(parse_word("U(1,0.5) . U(1,0.3)"), _TiltedWeight(), 4, kind=kind)


_MEMORY_CASES = [
    ("U(1,0.5) . U(1,0.3)", 12, 2.5),
    ("U(1,0.4) . U(1,0.3) . U(1,0.2)", 12, 2.5),
    ("F . F . R", 16, 2.0),
    # right frame F: the chain is read on a box of twice the band
    ("R . U(1,0.5) . U(1,0.3) . F", 12, 2.5),
]


def _peak_shares(text, band):
    """Peak traced memory of one assembly on each route, closed form and grid, over the size of the full complex matrix."""
    word = parse_word(text)
    weight, _ = auto_weight(word)
    full = (2 * band + 1) ** 4 * np.dtype(complex).itemsize
    shares = []
    for route in (assemble_operator, _grid_route):
        tracemalloc.start()
        try:
            op = route(word, weight, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.converged
        shares.append(peak / full)
    return shares


@pytest.mark.parametrize("text, band, bound", _MEMORY_CASES)
def test_assembly_peak_memory(text, band, bound):
    # the sums over a grid hold half the columns, those over the next grid
    # another half, and the weighted matrix is formed once, in row chunks,
    # after the coarser sums are dropped; the closed form
    # holds its small coefficient tables and one row chunk besides the matrix
    assert max(_peak_shares(text, band)) < bound


def test_closed_form_spectrum_matches_truncation(psi_operator):
    _, _, op = psi_operator
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    rep = match_spectra(
        enumerate_eigenvalues(model, 1e-2), operator_spectrum(op), floor=1e-2
    )
    assert len(rep.pairs) == 51
    assert rep.max_rel_err < 1e-8
    assert not rep.unmatched_predicted
    assert not rep.unmatched_computed


def test_transfer_duality(psi_operator):
    word, weight, op = psi_operator
    dual_side = assemble_operator(word, weight, 8, kind="transfer")
    comp = operator_spectrum(op)
    rep = match_spectra(
        list(comp[np.abs(comp) >= 1e-2]),
        operator_spectrum(dual_side),
        floor=1e-2,
    )
    assert rep.max_rel_err < 1e-8
    assert not rep.unmatched_computed


def test_trace_powers_cat(cat_operator):
    _, op = cat_operator
    for k in (1, 2, 5):
        assert abs(numeric_trace_power(op, k) - 1.0) < 1e-12


@pytest.mark.parametrize("size", [1, 7, 40])
def test_trace_powers_match_matrix_power(size):
    rng = np.random.default_rng(size)
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    m /= np.sqrt(2 * size)
    for k in range(1, 7):
        want = np.trace(np.linalg.matrix_power(m, k))
        assert abs(numeric_trace_power(m, k) - want) <= 1e-12 * abs(want)


def test_trace_powers_match_closed_form():
    word = psi_word((1, 1), (0.5, 0.3), 0)
    weight, _ = auto_weight(word)
    op = assemble_operator(word, weight, 12)
    model = spectrum_model_psi((1, 1), (0.5, 0.3), 0)
    # order-1 truncation tail at this band sits near 1e-3; from order 2 on
    # the identity is far inside tolerance
    for k in range(2, 6):
        assert abs(numeric_trace_power(op, k) - closed_trace(model, k)) < 1e-6


def _list_matcher(predicted, computed, floor=0.0):
    """match_spectra as it was written first: a Python list of distances per prediction."""
    flat = []
    for item in predicted:
        if hasattr(item, "multiplicity"):
            flat.extend([complex(item.value)] * item.multiplicity)
        else:
            flat.append(complex(item))
    flat = [v for v in flat if abs(v) >= floor]
    flat.sort(key=lambda v: -abs(v))
    pool = list(np.asarray(computed, dtype=complex))
    pairs, missing, worst = [], [], 0.0
    for p in flat:
        if not pool:
            missing.append(p)
            continue
        dist = [abs(p - c) for c in pool]
        c = pool.pop(int(np.argmin(dist)))
        rel = abs(p - c) / max(abs(p), 1e-300)
        worst = max(worst, rel)
        pairs.append((p, c, rel))
    leftovers = tuple(c for c in pool if abs(c) >= floor)
    return pairs, missing, leftovers, worst


# quarter-integer points give exact duplicates and exact distance ties
_quarters = st.builds(complex, st.integers(-6, 6).map(lambda a: a / 4), st.integers(-6, 6).map(lambda b: b / 4))
_spectrum_values = st.one_of(_quarters, st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
# computed eigenvalues at infinity: every distance to them is infinite
_infinite_values = st.sampled_from([complex(math.inf, 0.0), complex(-1.0, math.inf), complex(math.inf, -math.inf)])


@given(
    st.lists(st.tuples(_spectrum_values, st.integers(0, 3)), max_size=25),
    st.lists(st.one_of(_spectrum_values, _infinite_values), max_size=25),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.randoms(),
)
@settings(max_examples=300, deadline=None)
def test_match_spectra_matches_list_loop(predicted, computed, floor, rng):
    # multiplicity 0 stands for a bare value, the others for enumeration entries
    predicted = [EigenvalueEntry(v, m) if m else v for v, m in predicted]
    computed = computed + computed[: len(computed) // 3]  # exact duplicates
    rng.shuffle(predicted)
    rng.shuffle(computed)
    report = match_spectra(predicted, np.array(computed, dtype=complex), floor=floor)
    pairs, missing, leftovers, worst = _list_matcher(predicted, np.array(computed, dtype=complex), floor)
    assert list(report.pairs) == pairs
    assert list(report.unmatched_predicted) == missing
    assert report.unmatched_computed == leftovers
    assert report.max_rel_err == worst


def test_match_spectra_ties_on_scalar_distance():
    # both values lie at the same distance abs(p - c) from the prediction, so
    # the first one listed wins; numpy's vectorised complex modulus puts the
    # second one an ulp closer on SIMD builds
    p = 0.5 + 0.25j
    computed = [0.31010379447980946 + 0.04974104584966138j, 0.2251063840577927 + 0.22555173825049946j]
    assert abs(p - computed[0]) == abs(p - computed[1])
    for order in (computed, computed[::-1]):
        report = match_spectra([p], np.array(order))
        assert report.pairs[0][1] == order[0]
        assert report.unmatched_computed == (order[1],)


def test_match_spectra_never_reuses_a_value():
    # once every free value is infinitely far, the first free one is taken,
    # not the first one listed
    report = match_spectra([1.0, 0.5], np.array([1.0, math.inf]))
    assert [c for _, c, _ in report.pairs] == [1.0, math.inf]
    assert report.unmatched_computed == ()
    assert report.max_rel_err == math.inf


def test_match_spectra_bookkeeping():
    rep = match_spectra([1.0, 0.5 + 0j, 0.1j], [1.0 + 1e-9j, 0.5000001], floor=0.0)
    assert len(rep.pairs) == 2
    assert rep.unmatched_predicted == (0.1j,)
    assert rep.max_rel_err < 1e-6
    rep2 = match_spectra([1.0], [1.0, 0.2, 1e-9], floor=1e-3)
    assert rep2.unmatched_computed == (0.2,)


def test_spectrum_csv(tmp_path):
    values = [1.0 + 0j, 0.5 - 0.25j]
    plain = tmp_path / "spec.csv"
    write_spectrum_csv(plain, values)
    lines = plain.read_text().strip().splitlines()
    assert lines[0] == "re,im,modulus"
    re, im, mod = (float(x) for x in lines[2].split(","))
    assert (re, im) == (0.5, -0.25) and mod == abs(0.5 - 0.25j)
    plot = tmp_path / "plot.csv"
    write_spectrum_csv(plot, values, plot_data=True)
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "index,modulus,sqrt_index,neglog"
    row = lines[2].split(",")
    assert int(row[0]) == 2
    assert float(row[3]) == pytest.approx(-math.log(abs(0.5 - 0.25j)), rel=1e-15)


def test_spectrum_csv_prints_zero_parts_without_sign(tmp_path):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, np.array([complex(0.04, -0.0), complex(-0.0, 0.5)]))
    assert path.read_text().splitlines()[1:] == ["0.040000000000000001,0,0.040000000000000001", "0,0.5,0.5"]


def test_assembly_validation():
    weight = QuadrantWeight.standard((0.1, 0.1), (0.1, 0.1))
    with pytest.raises(TruncationSizeError):
        assemble_operator(CAT, weight, 17)
    with pytest.raises(ValueError):
        assemble_operator(CAT, weight, 0)
    with pytest.raises(ValueError):
        assemble_operator(CAT, weight, 4, kind="adjoint")
    with pytest.raises(ValueError):
        numeric_trace_power(np.eye(3), 0)


def test_spectrum_sort_order():
    m = np.diag([0.5, -0.5, 1.0, 0.5j])
    spec = operator_spectrum(m)
    assert spec[0] == 1.0
    # equal moduli ordered by argument in [0, 2pi)
    assert np.allclose(spec[1:], [0.5, 0.5j, -0.5])


# conjugate pairs r e^{+-i j pi / 100}: moduli may coincide across pairs, arguments never do
conjugate_pairs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 99)), min_size=1, max_size=12, unique_by=lambda p: p[1]
)


@given(conjugate_pairs, st.data())
@settings(max_examples=100)
def test_spectrum_sort_ignores_modulus_noise(pairs, data):
    # moduli a few ulps apart sort as tied, and a tie goes by argument in [0, 2 pi)
    entries = []
    for r, j in pairs:
        theta = j * math.pi / 100
        entries += [(r / 4, theta), (r / 4, 2 * math.pi - theta)]
    expected = np.array([r * cmath.exp(1j * arg) for r, arg in sorted(entries, key=lambda e: (-e[0], e[1]))])
    ulps = data.draw(st.lists(st.integers(-4, 4), min_size=len(entries), max_size=len(entries)))
    noisy = [r * cmath.exp(1j * arg) * (1.0 + k * 2.0 ** -52) for (r, arg), k in zip(entries, ulps)]
    data.draw(st.randoms()).shuffle(noisy)
    assert np.allclose(_sort_eigenvalues(np.array(noisy)), expected, rtol=1e-13, atol=0.0)


def _reference_sort_order(values):
    """`_sort_order` as it walked its tie groups, one numpy scalar per step."""
    moduli = np.abs(values)
    group = np.empty(values.size, dtype=np.int64)
    count, lead = -1, 0.0
    for i in np.argsort(-moduli, kind="stable"):
        if count < 0 or lead - moduli[i] > _TIE_REL * lead:
            count, lead = count + 1, moduli[i]
        group[i] = count
    imag = np.where(np.abs(values.imag) < _TIE_REL * moduli, 0.0, values.imag)
    args = np.mod(np.arctan2(imag, values.real), 2.0 * np.pi)
    keys = (np.signbit(values.imag), np.signbit(values.real), values.imag, values.real, args, group)
    return np.lexsort(keys), group


# parts that make modulus ties a few ulps apart, signed zeros and values equal but for them
tie_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.5 * (1 + 2.0 ** -52), 0.5 * (1 - 2.0 ** -53), 0.3, 0.4, -0.4, 1.0]),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@given(st.lists(st.tuples(tie_parts, tie_parts, st.booleans()), max_size=24), st.randoms())
@settings(max_examples=300, deadline=None)
def test_sort_order_matches_the_scalar_tie_walk(parts, rng):
    values = []
    for re, im, paired in parts:
        values.append(complex(re, im))
        if paired:
            values.append(complex(re, -im))
    rng.shuffle(values)
    values = np.array(values, dtype=complex)
    order, group = _sort_order(values)
    expected_order, expected_group = _reference_sort_order(values)
    assert order.tobytes() == expected_order.tobytes()
    assert group.tobytes() == expected_group.tobytes()


def test_spectrum_sort_ignores_input_order_of_signed_zeros():
    # values equal but for the sign of a zero part used to keep the order
    # the eigensolver listed them in, and so did their CSV rows
    values = [complex(x, y) for x in (0.0, -0.0, 0.5, -0.5) for y in (0.0, -0.0)]
    values += [complex(x, 0.3) for x in (0.0, -0.0)] + [1.0, 0.25 + 0.25j, 0.25 - 0.25j]
    first = _sort_eigenvalues(np.array(values))
    rng = np.random.default_rng(7)
    for _ in range(20):
        shuffled = np.array(values)[rng.permutation(len(values))]
        assert _sort_eigenvalues(shuffled).tobytes() == first.tobytes()
    # +0 before -0, and the largest modulus first
    assert first[0] == 1.0
    assert [str(v) for v in first[1:3]] == ["(0.5+0j)", "(0.5-0j)"]


def _closure(adjacency):
    """The reflexive transitive closure (Warshall): reach[i, j] when j can be reached from i."""
    count = adjacency.shape[0]
    reach = adjacency | np.eye(count, dtype=bool)
    for k in range(count):
        reach |= reach[:, k, None] & reach[None, k, :]
    return reach


def _closure_components(adjacency):
    """Strongly connected components from the closure, as a set of frozensets."""
    reach = _closure(adjacency)
    return {frozenset(np.flatnonzero(row).tolist()) for row in reach & reach.T}


def _edge_lists(adjacency):
    starts = [0]
    targets = []
    for row in adjacency:
        targets += np.flatnonzero(row).tolist()
        starts.append(len(targets))
    return starts, targets


def _adjacency(count, edges):
    adjacency = np.zeros((count, count), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = True
    return adjacency


# random boolean graphs as adjacency matrices, from sparse (a few edges) to dense
boolean_graphs = st.integers(0, 9).flatmap(
    lambda n: st.builds(
        _adjacency,
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n) if n else st.just([]),
    )
)


@given(boolean_graphs)
@settings(max_examples=300, deadline=None)
def test_strong_components_match_reachability_closure(adjacency):
    # self-loops included; the empty graph and single nodes come up as n = 0 and 1
    components = _strong_components(*_edge_lists(adjacency))
    assert sorted(node for component in components for node in component) == list(range(len(adjacency)))
    assert {frozenset(component) for component in components} == _closure_components(adjacency)


def test_strong_components_edge_cases():
    assert _strong_components([0], []) == []
    assert _strong_components([0, 0], []) == [[0]]
    assert _strong_components([0, 1], [0]) == [[0]]
    # a chain 0 -> 1 -> ... -> 2999 with a back edge: one component, deeper than the recursion limit
    count = 3000
    targets = list(range(1, count)) + [0]
    assert len(_strong_components(list(range(count + 1)), targets)) == 1


@given(boolean_graphs)
@settings(max_examples=200, deadline=None)
def test_diagonal_blocks_are_the_strong_components(adjacency):
    # the peel and the core's components together give every component of
    # the matrix's graph: the peeled nodes are exactly the components of size
    # 1, and the core holds just the nodes both upstream and downstream of a cycle
    count = len(adjacency)
    if not count:
        return
    adjacency = adjacency & ~np.eye(count, dtype=bool)
    cores = []

    def components(starts, targets):
        cores.append(len(starts) - 1)
        return _strong_components(starts, targets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operator_numerics, "_strong_components", components)
        peeled, blocks = _diagonal_blocks(adjacency)
    reach = _closure(adjacency)
    on_cycle = (reach & reach.T).sum(axis=1) > 1
    assert cores == [int(np.count_nonzero(reach[:, on_cycle].any(axis=1) & reach[on_cycle].any(axis=0)))]
    components = _closure_components(adjacency)
    assert {frozenset(block.tolist()) for block in blocks} == {c for c in components if len(c) > 1}
    assert sorted(peeled.tolist()) == sorted(node for c in components if len(c) == 1 for node in c)


def _dense_spectrum(operator):
    """The spectrum by one dense eigensolve of the whole matrix: the reference of `operator_spectrum`."""
    return _sort_eigenvalues(np.linalg.eigvals(operator.matrix))


@functools.lru_cache(maxsize=None)
def _tuned(text):
    word = parse_word(text)
    return word, auto_weight(word)[0]


_TRIANGULAR_CASES = [
    ("U(1,0.5) . U(1,0.3)", "composition"),
    ("U(1,0.5) . U(1,0.3)", "transfer"),
    ("U(2,0.3+0.2i) . U(1,-0.4i)", "composition"),
    ("U(2,0.4-0.1i) . U(2,0.3i)", "transfer"),
    ("F . R . F . R", "composition"),
]


@pytest.mark.parametrize("band", range(4, 17))
@pytest.mark.parametrize("text, kind", _TRIANGULAR_CASES, ids=[f"{c[0]}-{c[1]}" for c in _TRIANGULAR_CASES])
def test_triangular_spectrum_is_the_dense_one_bit_for_bit(text, kind, band):
    # closed-form two-block and linear matrices are triangular after a
    # permutation, so every eigenvalue is a diagonal entry, which LAPACK's
    # balancing also isolates
    word, weight = _tuned(text)
    op = assemble_operator(word, weight, band, kind=kind)
    values = operator_spectrum(op)
    assert values.size == op.matrix.shape[0]
    assert values.tobytes() == _dense_spectrum(op).tobytes()


@pytest.mark.parametrize("band", [4, 8, 12])
@pytest.mark.parametrize(
    "text, size",
    [
        ("U(1,0.5) . U(1,0.3)", None),
        ("U(2,0.3+0.2i) . U(1,-0.4i)", None),
        ("F . F . R", None),
        ("U(2,0.4)", 2),
        ("I11 . U(1,0.4) . U(1,0.3)", 2),
        ("I11 . U(2,0.4)", 2),
        ("U(1,0.4) . U(1,0.3) . U(1,0.2)", 2),
        ("U(1,0.3) . U(1,0.2) . U(2,0.25) . U(1,0.1)", None),
        ("I11 . U(1,0.2) . U(2,0.1) . U(1,0.3i) . U(1,0.15)", 2),
    ],
)
def test_closed_form_zeros_are_exact(monkeypatch, text, size, band):
    # with no snap at all the peel leaves an empty core, or one that splits
    # into 2 x 2 blocks (an odd number of blocks swaps the coordinates, and
    # I11 pairs n with -n): the zeros that split the matrix are exact, not
    # snapped
    word, weight = _tuned(text)
    pattern = _closed_form_matrix(_atoms(word), _mode_weights(weight, band), band, 0.0) != 0
    np.fill_diagonal(pattern, False)
    cores = []

    def components(starts, targets):
        cores.append(len(starts) - 1)
        return _strong_components(starts, targets)

    monkeypatch.setattr(operator_numerics, "_strong_components", components)
    _, blocks = _diagonal_blocks(pattern)
    if size is None:
        assert cores == [0] and blocks == []
    else:
        assert blocks and {block.size for block in blocks} == {size}


def _verify_report(capsys, monkeypatch, text, band, spectrum):
    """The "verify" object and exit code of `resonances --verify` with `spectrum` as the eigensolver."""
    monkeypatch.setattr(cli, "operator_spectrum", spectrum)
    code = cli.main(["resonances", "--word", text, "--verify", "--band", str(band)])
    return code, json.loads(capsys.readouterr().out)["verify"]


@pytest.mark.parametrize("band", [8, 12])
@pytest.mark.parametrize("text", ["I11 . U(1,0.4) . U(1,0.3)", "I11 . U(2,0.4) . U(1,0.1)"])
def test_antipode_spectrum_is_closer_than_dense(capsys, monkeypatch, text, band):
    # every node of an I11 word lies on a 2-cycle; the 2 x 2 blocks match
    # the prediction to a few ulps, where one dense eigensolve reached 3.4e-8
    dense_code, dense = _verify_report(capsys, monkeypatch, text, band, _dense_spectrum)
    code, report = _verify_report(capsys, monkeypatch, text, band, operator_spectrum)
    assert code == dense_code == 0
    assert report["matched"] == dense["matched"]
    assert report["max_rel_err"] <= dense["max_rel_err"]
    assert report["max_rel_err"] <= 1e-13


@pytest.mark.parametrize(
    "text, band",
    [("W(1,0.2) . W(2,0.3)", 8), ("G(0.2,0.1) . F . F . R", 10), ("W(1,0.2) . W(2,0.3)", 10)],
)
def test_grid_route_spectrum_matches_dense(capsys, monkeypatch, text, band):
    # grid-route matrices carry rounding in entries that are zero in exact
    # arithmetic, so their blocks are larger and the values agree with the
    # dense solve to rounding, not bit for bit (4.7e-10 on the W word at band 8)
    dense_code, dense = _verify_report(capsys, monkeypatch, text, band, _dense_spectrum)
    code, report = _verify_report(capsys, monkeypatch, text, band, operator_spectrum)
    assert code == dense_code
    assert (report["verified"], report["matched"]) == (dense["verified"], dense["matched"])
    word, weight = _tuned(text)
    op = assemble_operator(word, weight, band)
    values, reference = operator_spectrum(op), _dense_spectrum(op)
    assert values.size == reference.size
    pairs = match_spectra(reference, values).pairs
    assert max(abs(p - c) for p, c, _ in pairs) <= 1e-8


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 2)])
def test_spectrum_rejects_non_finite_matrix(bad, where):
    # (0, 2) lies above the diagonal of a triangular matrix, where the peel never looks
    matrix = np.diag([1.0, 2.0, 3.0]).astype(complex)
    matrix[where] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(matrix)
    with pytest.raises(np.linalg.LinAlgError):
        operator_spectrum(matrix)
