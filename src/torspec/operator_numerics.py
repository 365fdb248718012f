"""Truncated composition-operator matrices on weighted Fourier modes.

The independent verification route.  A word left . chain . right, with
linear frames (no G atom) around a possibly empty chain of twisted-shear
blocks `u_block`, gets its matrix in closed form, with no grid: the frames
relabel the modes, and the chain's entries are sums of products of Fourier
coefficients of Blaschke powers, read on a box that holds the relabelled
modes.  Every other word, or one whose box outgrows the matrix, is
sampled on a torus grid: take the band's discrete Fourier coefficients of
the transformed monomials (two small DFT-matrix products per row block of
the grid); each grid's sums become the columns n >= 0 of the weighted
matrix, a half, once and in place.  Grid resolution is doubled until two
successive halves differ by less than a tolerance in every entry, so
analytic tails are under control rather than assumed; the matrix is the
last half and its conjugate mirror image.  The grid route also checks the
closed form in the tests.
The transfer operator is the adjoint of the composition operator on the
dual weighted space, and its truncation is the mirrored transpose of the
composition matrix.  The spectrum is read off the matrix's exact zeros:
nodes of its graph that lie on no cycle are peeled off in numpy, each
giving its diagonal entry, and only the strongly connected blocks that
remain are solved densely; closed-form matrices leave none, or blocks of
two modes (odd chains, I11).  Also provides spectrum bookkeeping (sorting,
matching against closed-form predictions, trace powers) and flat-file export.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .cone_geometry import QuadrantWeight
from .map_algebra import _atom_matrix, _atoms, _mat2_mul, _walk, inverse, linear_part, u_block

_BAND_LIMIT = 16
_TOL = 1e-8
# the snap floor of the closed form, and the least one of the grid route
_SNAP = 1e-13
# relative modulus difference below which two eigenvalues sort as tied
_TIE_REL = 1e-12
_MAX_DOUBLINGS = 3
# grid points walked, or matrix entries formed, at once; fixes the
# assembly's working memory
_BLOCK_POINTS = 1 << 15


class TruncationSizeError(ValueError):
    """Band too large to assemble without an explicit override.

    The limit, band 16, is the same on both routes.  On the grid route,
    assembly time and memory grow fast with the band.  In closed form the
    limit guards the (2 band + 1)^4 matrix, which holds 18, 88 and 272 MiB
    at bands 16, 24 and 32 (18%, 16% and 14% nonzero).  On a 2-vCPU Intel
    Xeon VM (one BLAS thread), assembly took 0.018 s, 0.14 s and 0.39 s
    there, and `operator_spectrum`, which reads the eigenvalues off the
    matrix's triangular structure, 0.013 s, 0.061 s and 0.25 s; both grow
    like the matrix.
    """


@dataclass(frozen=True)
class AssembledOperator:
    matrix: np.ndarray
    band: int
    grid: int
    kind: str
    max_change: float
    converged: bool


def _grid_points(grid: int) -> Tuple[np.ndarray, np.ndarray]:
    """The torus grid as an open grid: z1 on a (grid, 1) column and z2 on a (1, grid) row."""
    ring = np.exp(1j * (2.0 * np.pi * np.arange(grid) / grid))
    return ring[:, None], ring[None, :]


def _band_dft(band: int, grid: int) -> np.ndarray:
    """E[k, x] = exp(-2 pi i k x / grid) for the band's modes k."""
    modes = np.arange(-band, band + 1)
    return np.exp(-2j * np.pi * (np.outer(modes, np.arange(grid)) % grid) / grid)


def _mode_weights(weight, band: int) -> np.ndarray:
    """nu(n) over the band's modes in lexicographic (n1, n2) order; mode -n sits at the mirrored index."""
    modes = np.arange(-band, band + 1)
    width = modes.size
    return np.exp(weight.log_weight_array(np.repeat(modes, width), np.tile(modes, width)))


def _band_sums(word, band, grid):
    """Raw band sums of the transformed monomials over all points of one grid.

    Only the modes n >= 0 (lexicographically) get a column, from mode
    (0, 0) on.  Column n holds, for every band mode k, the sum of
    V_n(x) exp(-2 pi i k.x / grid) over the grid's points x, where
    V_n = t1^n1 t2^n2 and t = word(z): E V E^T with E from `_band_dft`,
    walked in row blocks of about _BLOCK_POINTS points.

    In each block the powers come by recurrence: t1^n1 from exact ones by
    the products p1 *= t1, for n1 = 0, 1, ... in turn, and then the chain
    up from t1^n1, (n1, 0), (n1, 1), ... by v *= t2, and the chain down
    from t1^n1 / t2, (n1, -1), (n1, -2), ... by v *= 1 / t2, with
    1 / t2 = conj(t2) on the torus; each chain ends at the edge of the band.
    """
    width = 2 * band + 1
    dft = _band_dft(band, grid)
    right = dft.T
    sums = np.zeros((width * width, width * width // 2 + 1), dtype=complex)
    step = max(1, _BLOCK_POINTS // grid)
    z1, z2 = _grid_points(grid)
    for start in range(0, grid, step):
        rows = slice(start, start + step)
        left = dft[:, rows]
        # every atom maps the torus to itself, so no point is ever at infinity here
        (t1, t2), _, _ = _walk(word, (z1[rows], z2), (None, None))
        t2_inverse = np.conj(t2)
        p1 = np.ones_like(t1)
        for n1 in range(band + 1):
            if n1:
                p1 *= t1
            first = n1 * width  # the column of mode (n1, 0)
            chains = [(t2, range(first, first + band + 1))]
            if n1:
                chains.append((t2_inverse, range(first - 1, first - band - 1, -1)))
            for ratio, columns in chains:
                # one power array at a time: the chain down starts at t1^n1 / t2
                v = p1 * ratio if ratio is t2_inverse else p1.copy()
                for i, column in enumerate(columns):
                    if i:
                        v *= ratio
                    sums[:, column] += (left @ (v @ right)).reshape(-1)
    return sums


def _weighted_half(word, nu, band, grid):
    """The columns n >= 0 of the weighted matrix on one grid: nu(k) S[k, n] / (nu(n) grid^2).

    S, from `_band_sums`, is weighted in place, in row chunks of about _BLOCK_POINTS entries.
    """
    half = _band_sums(word, band, grid)
    step = max(1, _BLOCK_POINTS // half.shape[1])
    for start in range(0, nu.size, step):
        block = half[start:start + step]
        block /= grid ** 2
        block *= nu[start:start + step, None]
        block /= nu[nu.size // 2:]
    return half


def _change(coarse, fine):
    """max |coarse - fine| over two weighted halves, in row chunks; a NaN gives NaN.

    Entry (-k, -n) of the mirror of column n > 0 is the conjugate of entry
    (k, n), so the halves hold every change of the whole matrix.
    """
    step = max(1, _BLOCK_POINTS // fine.shape[1])
    worst = [np.abs(coarse[s:s + step] - fine[s:s + step]).max() for s in range(0, len(fine), step)]
    return float(np.max(worst))


def _mirrored(half, floor):
    """The whole weighted matrix from its columns n >= 0, entries below floor set to 0, formed in row chunks.

    t^-1 = conj(t) on the torus, so V_-n = conj(V_n); nu being even,
    entry (k, -n) is then conj(entry (-k, n)): the columns before mode
    (0, 0) are the half's conjugate mirror image.
    """
    size, centre = half.shape[0], half.shape[0] // 2
    matrix = np.empty((size, size), dtype=complex)
    flipped = half[::-1, :0:-1]
    step = max(1, _BLOCK_POINTS // size)
    for start in range(0, size, step):
        block = matrix[start:start + step]
        block[:, centre:] = half[start:start + step]
        np.conjugate(flipped[start:start + step], out=block[:, :centre])
        block[np.abs(block) < floor] = 0.0
    return matrix


def _grid_operator(word, nu, band):
    """The grid route of `assemble_operator`, for an even weight nu from `_mode_weights`: (matrix, grid, max_change, converged)."""
    grid = max(8 * band, 64)
    half = _weighted_half(word, nu, band, grid)
    max_change, converged = np.inf, False
    for _ in range(_MAX_DOUBLINGS):
        grid *= 2
        fine = _weighted_half(word, nu, band, grid)
        max_change = _change(half, fine)
        half = fine
        # a NaN change is not below _TOL, so it reads as not converged
        converged = max_change < _TOL
        if converged:
            break
    if not converged:
        warnings.warn(f"operator matrix still moving by {max_change:.3e} at grid {grid}", RuntimeWarning)
    # twice the certified resolution, kept within [_SNAP, _TOL]
    floor = min(max(_SNAP, 2.0 * max_change if converged else 0.0), _TOL)
    return _mirrored(half, floor), grid, max_change, converged


# ---------------------------------------------------------------------------
# Closed-form matrices
# ---------------------------------------------------------------------------


def _blaschke_powers(a: complex, top: int, span: int) -> np.ndarray:
    """Fourier coefficients of b^p, b(z) = (z + a) / (1 + conj(a) z), for |p| <= top and |j| <= span.

    Entry [p + top, j + span] is coefficient j of b^p on the unit circle.
    b is analytic in the closed disk, so b^p (p >= 0) has only j >= 0:
    c[1]_0 = a and c[1]_j = (1 - |a|^2) (-conj(a))^(j - 1) for j >= 1, and
    c[p] = c[p - 1] * c[1] (convolution), which the truncation at j = span
    leaves exact since no j > span feeds a lower one.  On the circle
    b^-p = conj(b^p), so c[-p]_j = conj(c[p]_-j).
    """
    first = np.zeros(span + 1, dtype=complex)
    first[0] = a
    ratio = np.full(span, -a.conjugate())
    ratio[0] = 1.0
    first[1:] = (1.0 - abs(a) ** 2) * np.cumprod(ratio)
    table = np.zeros((2 * top + 1, 2 * span + 1), dtype=complex)
    table[top, span] = 1.0
    power = table[top, span:]
    for p in range(1, top + 1):
        power = np.convolve(power, first)[: span + 1]
        table[top + p, span:] = power
        table[top - p, span::-1] = power.conj()
    return table


def _u_blocks(atoms):
    """The (k, a) of the u_blocks that the atoms spell, in word order, or None if they spell anything else.

    Each block is read off its head G(0, a) and the run of F atoms after it,
    and stands only if its atoms are `u_block(k, a)`.
    """
    blocks = []
    i = 0
    while i < len(atoms):
        k = 0
        while i + 1 + k < len(atoms) and atoms[i + 1 + k].kind == "F":
            k += 1
        a = atoms[i].b
        if not k or list(atoms[i:i + k + 3]) != u_block(k, a):
            return None
        blocks.append((k, a))
        i += k + 3
    return blocks


def _linear_matrix(atoms, nu, band, floor):
    """The weighted matrix of a word with no G atom: M[A^T n, n] = nu(A^T n) / nu(n), A = linear_part.

    z^n composed with z -> z^A is z^(A^T n), so each column holds one entry
    or, where A^T n leaves the band, none.  The images are taken in Python
    integers, since A may be near the int64 range.
    """
    (a11, a12), (a21, a22) = linear_part(atoms).tolist()
    modes = np.arange(-band, band + 1)
    width = modes.size
    n1 = np.repeat(modes, width).astype(object)
    n2 = np.tile(modes, width).astype(object)
    k1, k2 = a11 * n1 + a21 * n2, a12 * n1 + a22 * n2
    inside = (np.abs(k1) <= band) & (np.abs(k2) <= band)
    columns = np.flatnonzero(inside)
    rows = ((k1[inside] + band) * width + k2[inside] + band).astype(np.int64)
    values = nu[rows] / nu[columns]
    values[values < floor] = 0.0
    matrix = _lazy_zeros(nu.size)
    matrix[rows, columns] = values
    return matrix


def _lazy_zeros(size):
    """A zero complex (size, size) matrix whose pages take no memory until they are written.

    A private anonymous mapping reads as zeros, and a page of it is backed
    only once written; huge pages are declined where the platform can, so
    one entry written does not back 2 MB.  np.zeros would instead ask for
    huge pages on a large array, and the few entries of a linear word's
    matrix, about one per column, would then back most of it.  Where mmap
    has no private mapping, np.zeros is used.
    """
    import mmap  # only linear words need it, and the CLI's import time is measured

    if not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((size, size), dtype=complex)
    pages = mmap.mmap(-1, size * size * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=complex).reshape(size, size)


def _coefficient_cube(k: int, a: complex, band: int) -> np.ndarray:
    """cube[x, y, z] = c[k y]_(x - z) over the band's modes x, y, z, with c from `_blaschke_powers`."""
    modes = np.arange(-band, band + 1)
    table = _blaschke_powers(a, k * band, 2 * band)
    # row k y + k band of the table is p = k y, column x - z + 2 band is j = x - z
    return table[k * (modes + band)[None, :, None], (modes[:, None] - modes + 2 * band)[:, None, :]]


def _box_index(matrix, band, box):
    """The flat index of A^T n in the lexicographic box of half-width `box`, for every band mode n."""
    (a, b), (c, d) = matrix
    n1, n2 = np.indices((2 * band + 1, 2 * band + 1)).reshape(2, -1) - band
    return (a * n1 + c * n2 + box) * (2 * box + 1) + b * n1 + d * n2 + box


def _block_matrix(blocks, rows, columns, box, nu, floor):
    """The weighted matrix M[m, n] = nu(m) C[rows[m], columns[n]] / nu(n) of a chain of two or more u_blocks.

    With c[p]_j from `_blaschke_powers`, one block (k, a) sends z^n to
    b(z1)^(k n1) z1^n2 z2^n1, so C[(m1, m2), (n1, n2)] = [m2 = n1] c[k n1]_(m1 - n2).
    With L blocks, block 1 the rightmost, s_0 = m1, s_1 = m2, s_L = n1 and
    s_(L+1) = n2, C[m, n] sums over s_2 .. s_(L-1) the products over i of
    c_i[k_i s_i]_(s_(i-1) - s_(i+1)), entries of the (2 box + 1)^3 cubes
    from `_coefficient_cube`, into which nu(m) and 1 / nu(n) are folded at
    the box indices of m and n.  Two blocks need no sum, and each further
    one is a batched matrix product over s_i.  The tables are one-sided
    (c[p]_j = 0 for j < 0 if p > 0, for j > 0 if p < 0), so no s_i outside
    the box carries a term: the truncation is exact.  Every index j lies in
    [-2 box, 2 box].  The rows are formed in chunks of about _BLOCK_POINTS
    box entries, straight into the matrix where `columns` relabels nothing.
    """
    width, size = 2 * box + 1, nu.size
    weights = np.zeros((2, width * width))
    weights[0, rows], weights[1, columns] = nu, 1.0 / nu
    # block 1 is applied first, and is the last one in the word
    cubes = [_coefficient_cube(k, complex(a), box) for k, a in reversed(blocks)]
    cubes[0] *= weights[0].reshape(width, width)[:, :, None]
    cubes[-1] *= weights[1].reshape(width, width)
    straight = np.array_equal(columns, np.arange(size))
    matrix = np.zeros((size, size), dtype=complex)
    step = max(1, _BLOCK_POINTS // width ** 2)
    for start in range(0, size, step):
        s0, s1 = np.divmod(rows[start:start + step], width)
        block = matrix[start:start + s0.size]
        chain = block if straight else np.empty((s0.size, width * width), dtype=complex)
        cube = chain.reshape(s0.size, width, width)  # [row, s_1, s_2], then [row, s_(i-1), s_i] block by block
        np.multiply(cubes[0][s0, s1][:, :, None], cubes[1][s1], out=cube)
        for later in cubes[2:]:
            cube[...] = np.matmul(cube.transpose(2, 0, 1), later.transpose(1, 0, 2)).transpose(1, 0, 2)
        if not straight:
            np.take(chain, columns, axis=1, out=block)
        block[np.abs(block) < floor] = 0.0
    return matrix


def _closed_form_matrix(atoms, nu, band, floor):
    """The weighted matrix of a word left . chain . right (see `assemble_operator`); None for any other word."""
    at = [i for i, atom in enumerate(atoms) if atom.kind == "G"] or [len(atoms)]  # no G: all of it is `left`
    blocks = _u_blocks(atoms[at[0]:at[-1] + 1])
    if not blocks:  # the empty chain: a linear word
        return None if blocks is None else _linear_matrix(atoms, nu, band, floor)
    # A_R^-1 and A_L in Python integers, so a wide frame is refused before any array is built
    right, left = (functools.reduce(_mat2_mul, map(_atom_matrix, run), ((1, 0), (0, 1)))
                   for run in (inverse(atoms[at[-1] + 1:]), atoms[:at[0]]))
    if len(blocks) == 1:  # u_block(0, 0) is R, and C of R . block is C of the block, columns swapped
        blocks, left = [(0, 0)] + blocks, _mat2_mul(left, ((0, 1), (1, 0)))
    box = band * max(abs(x) + abs(y) for x, y in (*zip(*left), *zip(*right)))
    if (2 * box + 1) ** 3 > nu.size ** 2:
        return None
    return _block_matrix(blocks, *(_box_index(frame, band, box) for frame in (right, left)), box, nu, floor)


def assemble_operator(
    word,
    weight: QuadrantWeight,
    band: int,
    kind: str = "composition",
    force: bool = False,
) -> AssembledOperator:
    """Matrix of the (composition or transfer) operator on the mode band.

    Modes n with max(|n1|, |n2|) <= band are ordered lexicographically by
    (n1, n2), so mode -n sits at the mirrored index.  Only the weighted
    composition matrix M_C of `word` is assembled.  Substituting x = h(y) in
    the transfer integral gives L[k, n] = C[-n, -k] for the unweighted
    matrices, and the transfer operator acts on the dual space, weighted by
    1 / nu; for an even weight, nu(-n) = nu(n), its truncation is therefore
    M_C[::-1, ::-1].T, and `transfer` returns that view of M_C, not a copy.
    Every QuadrantWeight is even; any other weight raises ValueError, since
    the transposition and the change check both rest on it.

    Words left . chain . right, read off the atoms rather than the text, are
    built in closed form with no grid: `left` is every atom before the first
    G atom, `right` every atom after the last, and the atoms between spell a
    chain of u_blocks, possibly empty.  z^n composed with z -> z^A is
    z^(A^T n), so M[m, n] = nu(m) C[A_R^-T m, A_L^T n] / nu(n), with A_L, A_R
    the frames' linear parts and C the chain's matrix.  A linear word is the
    empty chain, M[A^T n, n] = nu(A^T n) / nu(n) with A = linear_part(word);
    any other C is a sum of products of Fourier coefficients of Blaschke
    powers, exact to a few ulps (`_block_matrix`) on the box of half-width
    band times the largest column sum of |A_L| or |A_R|.  A word whose
    (2 box + 1)^3 coefficient cubes would outgrow the (2 band + 1)^4 matrix,
    and every other word (W blocks, a lone G core, stray G atoms), takes the
    grid route below, which is also the closed form's reference in the tests.
    The closed form snaps entries below 1e-13 to zero, the floor of a grid
    with no change, and forms the matrix in row chunks.  Such an operator
    reports converged=True, max_change=0.0 and grid = 4 band + 1: not a
    torus grid, but the mode span |j| <= 2 band of the band's tables.

    On the grid route, every column n >= 0 (standing also for its mirror
    -n) is summed on the grid max(8*band, 64) and then, from scratch, on
    each doubled grid, at most three times.  The route stops at the first
    doubling where the weighted matrix moves by less than 1e-8 in every
    entry; a matrix that never gets there (or moves by NaN) is returned with
    a warning rather than silently trusted.  `grid` is the last grid summed,
    `max_change` the change measured there and `converged` whether it fell
    below 1e-8.  The sums walk the grid in row blocks of a fixed size and
    keep only the band's coefficients; a column costs about
    (2 band + 1) G^2 complex multiply-adds on grid G, so a route that ends
    on grid 4g sums 21/16 of that grid's points.  Each grid's sums are
    weighted once, in place, into the half of the matrix with n >= 0; the
    change is the largest entrywise difference of two grids' halves, and
    the matrix is the last half and its conjugate mirror image.  The
    assembly holds at most two halves, those of the last two grids, and
    then the last half and the matrix.  Bands above 16 need
    force=True on either route: the matrix, and with it the closed form's
    assembly and the spectrum of a triangular matrix, grow like band^4, and
    the grid route's assembly like band^5.

    Entries smaller than the certified resolution of the doubling pass (on
    the grid route) are snapped to exact zero.  Mode-permutation
    truncations (automorphisms) are otherwise drowned in rounding noise
    that hides the exact zeros `operator_spectrum` splits the matrix along
    and smears their nilpotent part into spurious eigenvalues.  The closed
    form needs no snap for that: its zeros are exact.
    """
    if band < 1:
        raise ValueError("band must be positive")
    if band > _BAND_LIMIT and not force:
        raise TruncationSizeError(
            f"band {band} exceeds {_BAND_LIMIT}: assembly time and memory grow fast "
            "with the band; pass --force (force=True) to assemble it anyway"
        )
    if kind not in ("composition", "transfer"):
        raise ValueError("kind must be 'composition' or 'transfer'")
    nu = _mode_weights(weight, band)
    if not np.array_equal(nu, nu[::-1]):
        raise ValueError("the weight must be even under n -> -n")
    matrix = _closed_form_matrix(_atoms(word), nu, band, _SNAP)
    route = _grid_operator(word, nu, band) if matrix is None else (matrix, 4 * band + 1, 0.0, True)
    matrix, grid, max_change, converged = route
    if kind == "transfer":
        matrix = matrix[::-1, ::-1].T
    return AssembledOperator(matrix, band, grid, kind, max_change, converged)


# ---------------------------------------------------------------------------
# Spectrum bookkeeping
# ---------------------------------------------------------------------------


def _sort_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Largest modulus first; a modulus tie is ordered by argument in [0, 2 pi).

    Moduli within a relative _TIE_REL of the largest one not yet placed tie
    with it, so rounding noise in the last bits cannot swap the members of a
    conjugate pair.  An imaginary part below _TIE_REL |v| counts as zero, so
    a near-real value has argument 0 or pi rather than almost 2 pi.  Values
    still tied go by imaginary part, real part, and then +0 before -0 in
    each, so the order depends only on the values, not on their input order.
    """
    return values[_sort_order(values)[0]]


def _sort_order(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The order of `_sort_eigenvalues`, and each value's tie group (0 for the largest moduli)."""
    moduli = np.abs(values)
    ranked = np.argsort(-moduli, kind="stable")
    labels = []
    count, lead = -1, 0.0
    for modulus in moduli[ranked].tolist():
        if count < 0 or lead - modulus > _TIE_REL * lead:
            count, lead = count + 1, modulus
        labels.append(count)
    group = np.empty(values.size, dtype=np.int64)
    group[ranked] = labels
    imag = np.where(np.abs(values.imag) < _TIE_REL * moduli, 0.0, values.imag)
    args = np.mod(np.arctan2(imag, values.real), 2.0 * np.pi)
    # the signs of zero parts come last, so values equal but for a signed zero
    # do not keep the order in which the eigensolver listed them
    keys = (np.signbit(values.imag), np.signbit(values.real), values.imag, values.real, args, group)
    return np.lexsort(keys), group


def _strong_components(starts, targets):
    """Strongly connected components of the graph with edges v -> targets[starts[v]:starts[v + 1]].

    Tarjan's algorithm with an explicit stack of (node, next edge) frames,
    so no recursion limit applies; `starts` and `targets` are lists.  Each
    component is a list of nodes, and every node is in exactly one.
    """
    count = len(starts) - 1
    order = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    stack, components, found = [], [], 0
    for root in range(count):
        if order[root] >= 0:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        on_stack[root] = True
        path = [[root, starts[root]]]
        while path:
            frame = path[-1]
            v, edge = frame
            end = starts[v + 1]
            while edge < end:
                w = targets[edge]
                edge += 1
                if order[w] < 0:
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                # every edge of v is done: v closes a component or hands its low link up
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                continue
            frame[1] = edge
            order[w] = low[w] = found
            found += 1
            stack.append(w)
            on_stack[w] = True
            path.append([w, starts[w]])
    return components


def _diagonal_blocks(pattern):
    """A matrix's diagonal blocks from its nonzero pattern: (peeled nodes, index arrays of the larger blocks).

    The graph has an edge i -> j wherever pattern[i, j] is set; its
    diagonal should be clear, since a self-loop only keeps a node from
    being peeled (it still ends as a block of size 1).  A node with no
    in-edges or no out-edges among the nodes still alive lies on no cycle,
    so it is a diagonal block of its own and its eigenvalue is its
    diagonal entry; such nodes are stripped, round after round, with the
    in- and out-degree counts lowered by the stripped rows and columns.
    What survives is split into strongly connected components; those of
    size 1 join the peeled nodes.  The matrix's eigenvalues are the
    diagonal entries of the peeled nodes and those of its principal
    submatrices on the larger blocks.
    """
    out_degree = np.count_nonzero(pattern, axis=1)
    in_degree = np.count_nonzero(pattern, axis=0)
    alive = np.ones(pattern.shape[0], dtype=bool)
    while True:
        stripped = np.flatnonzero(alive & ((out_degree == 0) | (in_degree == 0)))
        if not stripped.size:
            break
        alive[stripped] = False
        in_degree -= np.count_nonzero(pattern[stripped], axis=0)
        out_degree -= np.count_nonzero(pattern[:, stripped], axis=1)
    core = np.flatnonzero(alive)
    rows, columns = np.nonzero(pattern[np.ix_(core, core)])
    starts = np.zeros(core.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=core.size), out=starts[1:])
    blocks = [core[component] for component in _strong_components(starts.tolist(), columns.tolist())]
    singles = [block for block in blocks if block.size == 1]
    peeled = np.concatenate([np.flatnonzero(~alive)] + singles)
    return peeled, [block for block in blocks if block.size > 1]


def operator_spectrum(operator) -> np.ndarray:
    """Eigenvalues of an assembled operator: largest modulus first, ties by argument.

    The matrix's exact zeros split it, after a permutation, into diagonal
    blocks (`_diagonal_blocks`): every peeled node gives its diagonal entry,
    and only the larger blocks go to a dense eigensolve.  Closed-form
    matrices are permutation-similar to triangular ones (with blocks of
    size 2 after I11 or for an odd number of blocks), so on them this reads
    the spectrum off the diagonal.  A matrix with an inf or NaN raises
    LinAlgError, as np.linalg.eigvals does.
    """
    matrix = operator.matrix if isinstance(operator, AssembledOperator) else np.asarray(operator)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise np.linalg.LinAlgError("the matrix must be square")
    pattern = matrix != 0
    # an inf or a NaN is nonzero, so the nonzero entries hold every one
    if not np.isfinite(matrix[pattern]).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    np.fill_diagonal(pattern, False)
    peeled, blocks = _diagonal_blocks(pattern)
    values = [matrix[peeled, peeled].astype(complex)]
    values += [np.linalg.eigvals(matrix[np.ix_(block, block)]) for block in blocks]
    return _sort_eigenvalues(np.concatenate(values))


def numeric_trace_power(operator, k: int) -> complex:
    """tr(M^k) as sum(M^a * (M^b).T) with a = ceil(k/2), b = floor(k/2).

    Only M^b and, for odd k, M^a = M^b M are formed: k = 1..5 take 4 matrix
    products in all, where matrix_power would take 8.
    """
    matrix = operator.matrix if isinstance(operator, AssembledOperator) else np.asarray(operator)
    if int(k) != k or k < 1:
        raise ValueError("k must be a positive integer")
    k = int(k)
    if k == 1:
        return complex(np.trace(matrix))
    low = np.linalg.matrix_power(matrix, k // 2)
    high = low @ matrix if k % 2 else low
    return complex(np.sum(high * low.T))


@dataclass(frozen=True)
class MatchReport:
    pairs: Tuple[Tuple[complex, complex, float], ...]
    unmatched_predicted: Tuple[complex, ...]
    unmatched_computed: Tuple[complex, ...]
    max_rel_err: float


def match_spectra(predicted, computed, floor: float = 0.0) -> MatchReport:
    """Greedily pair predicted eigenvalues with computed ones.

    `predicted` is a sequence of enumeration entries (value, multiplicity) or
    bare complex numbers; values of modulus below `floor` are ignored on the
    predicted side and reported unmatched on the computed side.  Pairing runs
    through predictions by decreasing modulus, each taking the closest
    still-unused computed eigenvalue, the first one listed on a tie.
    """
    flat: list = []
    for item in predicted:
        if hasattr(item, "multiplicity"):
            flat.extend([complex(item.value)] * item.multiplicity)
        else:
            flat.append(complex(item))
    flat = [v for v in flat if abs(v) >= floor]
    flat.sort(key=lambda v: -abs(v))
    pool = np.asarray(computed, dtype=complex)
    used = np.zeros(pool.size, dtype=bool)
    pairs = []
    missing = []
    worst = 0.0
    for p in flat:
        if len(pairs) == pool.size:
            missing.append(p)
            continue
        # hypot, not np.abs: numpy's vectorised complex modulus can differ
        # from the scalar abs(p - c) in the last bit, which would reorder ties
        free = np.flatnonzero(~used)
        gap = p - pool[free]
        i = int(free[np.argmin(np.hypot(gap.real, gap.imag))])
        used[i] = True
        c = pool[i]
        rel = abs(p - c) / max(abs(p), 1e-300)
        worst = max(worst, rel)
        pairs.append((p, c, rel))
    leftovers = tuple(c for c in pool[~used] if abs(c) >= floor)
    return MatchReport(tuple(pairs), tuple(missing), leftovers, worst)


# ---------------------------------------------------------------------------
# Flat-file export
# ---------------------------------------------------------------------------


def write_spectrum_csv(path, values: Sequence[complex], plot_data: bool = False) -> None:
    """Spectrum as CSV; plot_data adds rank/sqrt-rank/-log columns instead.

    `path` may also be an open text stream.
    """
    values = np.asarray(values, dtype=complex)
    if hasattr(path, "write"):
        _spectrum_rows(path, values, plot_data)
    else:
        with open(path, "w") as fh:
            _spectrum_rows(fh, values, plot_data)


def _spectrum_rows(fh, values, plot_data: bool) -> None:
    if plot_data:
        fh.write("index,modulus,sqrt_index,neglog\n")
        for i, v in enumerate(values, start=1):
            mod = abs(v)
            neglog = -np.log(mod) + 0.0 if mod > 0.0 else np.inf
            fh.write("%d,%.17g,%.17g,%.17g\n" % (i, mod, np.sqrt(float(i)), neglog))
    else:
        fh.write("re,im,modulus\n")
        for v in values:
            # + 0.0 turns -0 into 0, so rounding noise cannot pick the sign of a zero part
            fh.write("%.17g,%.17g,%.17g\n" % (v.real + 0.0, v.imag + 0.0, abs(v)))
