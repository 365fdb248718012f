"""Integer-matrix plumbing: standard-form reduction and word realization.

Every hyperbolic class in GL2(Z) is conjugate, up to an overall sign, to a
product of blocks [[k, 1], [1, 0]] with k >= 1.  `reduce` finds that product
together with an exact integer conjugator and certifies the factorization by
reassembly.  `matrix_to_word` writes an arbitrary unimodular matrix as a
generator word, and `build_homotopic_map` combines the two with the
twisted-shear constructors to produce a nonlinear torus map homotopic to a
requested matrix with a requested resonance-decay profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .map_algebra import (
    Atom,
    MapWord,
    _mat2_mul,
    atom_F,
    atom_Finv,
    atom_I,
    atom_R,
    concat,
    inverse,
    linear_part,
    psi_word,
    xi_word,
)
from .resonance_theory import decay_classification, spectrum_model_psi

_REDUCE_STEPS = 200
# doubles `_parameter_for_rate` may step from its closed-form estimate
_ULP_STEPS = 64
# longest word `build_homotopic_map` expands; seeded matrices with entries
# up to 20 need about 30 atoms
_ATOM_BUDGET = 1000

Mat = Tuple[Tuple[int, int], Tuple[int, int]]

_IDENT: Mat = ((1, 0), (0, 1))


class TargetInfeasible(Exception):
    """The requested decay profile cannot be realized over this matrix."""


def _as_mat(m) -> Mat:
    """The matrix with exact int entries, each checked before any cast."""
    a = np.asarray(m, dtype=object)
    if a.shape != (2, 2):
        raise ValueError("expected a 2x2 integer matrix")
    entries = []
    for v in a.flat:
        try:
            n = int(v)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"matrix entries must be integers, got {v!r}") from None
        if n != v:
            raise ValueError(f"matrix entries must be integers, got {v!r}")
        if not -2 ** 63 <= n < 2 ** 63:
            raise ValueError(f"matrix entry {n} does not fit in int64")
        entries.append(n)
    return ((entries[0], entries[1]), (entries[2], entries[3]))


def _det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _inv(m: Mat) -> Mat:
    d = _det(m)
    if d == 1:
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    if d == -1:
        return ((-m[1][1], m[0][1]), (m[1][0], -m[0][0]))
    raise ValueError("matrix is not unimodular")


def _neg(m: Mat) -> Mat:
    return ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))


def _block(k: int) -> Mat:
    return ((k, 1), (1, 0))


def is_hyperbolic(m) -> bool:
    """Unimodular and without eigenvalues on the unit circle."""
    mm = _as_mat(m)
    det = _det(mm)
    if det not in (1, -1):
        raise ValueError("matrix must have determinant +1 or -1")
    tr = mm[0][0] + mm[1][1]
    if det == 1:
        return abs(tr) > 2
    return tr != 0


@dataclass(frozen=True)
class StandardForm:
    sign_flips: int
    factors: Tuple[int, ...]
    conjugator: Mat

    def standard_matrix(self) -> Mat:
        out = _IDENT
        for k in self.factors:
            out = _mat2_mul(out, _block(k))
        if self.sign_flips:
            out = _neg(out)
        return out


def _try_peel(x: Mat) -> Optional[Tuple[int, ...]]:
    """Write x as a block product by stripping factors from the left.

    The first column holds the continuants of [k_1; ...; k_n], so k_1 = a // c,
    less 1 when c divides a and (c, d) != (1, 0): [..., k, 1] and [..., k + 1]
    share a first column only.  The factorization is unique, and c falls at
    every other step, so the loop ends.
    """
    factors = []
    while x != _IDENT:
        (a, b), (c, d) = x
        if c <= 0:
            return None
        k = a // c - (a % c == 0 and (c, d) != (1, 0))
        if k < 1:
            return None
        factors.append(k)
        x = ((c, d), (a - k * c, b - k * d))
    return tuple(factors)


def reduce(m) -> StandardForm:
    """Exact conjugation of a hyperbolic matrix into its block standard form.

    Returns (s, K, Q) with Q m Q^{-1} = (-1)^s prod_i [[K_i,1],[1,0]], all in
    exact integers; the identity is re-checked before returning.  Exponents
    are read off exactly, for any number of blocks, between continued-fraction
    conjugation steps.  Raises ValueError for non-hyperbolic input and
    ArithmeticError if the steps run out (made loud by the certification).
    """
    original = _as_mat(m)
    if not is_hyperbolic(original):
        raise ValueError("matrix is not hyperbolic")
    x = original
    s = 0
    if x[0][0] + x[1][1] < 0:
        s = 1
        x = _neg(x)
    det = _det(x)
    acc = _IDENT
    factors: Optional[Tuple[int, ...]] = None
    for _ in range(_REDUCE_STEPS):
        factors = _try_peel(x)
        if factors is not None:
            break
        (a, b), (c, d) = x
        if b == 1 and c == -1 and d == 0 and a >= 3:
            # corner form [[a,1],[-1,0]]: one explicit shear conjugation
            shear = ((1, 0), (1, 1))
            factors = (1, a - 2)
            acc = _mat2_mul(acc, _inv(shear))
            break
        # continued-fraction step on the expanding fixed direction
        p = a - d
        q2 = 2 * c
        disc = (a + d) ** 2 - 4 * det
        t = p + math.isqrt(disc)
        k = t // q2
        if q2 < 0 and t % q2 == 0:
            k -= 1
        g = _block(k)
        x = _mat2_mul(_mat2_mul(_inv(g), x), g)
        acc = _mat2_mul(acc, g)
    if factors is None:
        raise ArithmeticError("standard-form reduction did not terminate")
    result = StandardForm(s, factors, _inv(acc))
    reassembled = _mat2_mul(_mat2_mul(result.conjugator, original), _inv(result.conjugator))
    if reassembled != result.standard_matrix():
        raise ArithmeticError("standard-form certification failed")
    return result


def _generator_runs(mat: Mat) -> List[Tuple[Atom, int]]:
    """The atoms of `matrix_to_word` as (atom, repeat count) runs.

    A Euclid quotient k becomes one run of |k| shears, so the word's length
    is known before any run is expanded.
    """
    x = [list(mat[0]), list(mat[1])]
    runs = []
    for _ in range(4 * (abs(x[0][0]) + abs(x[1][0]) + 2)):
        if x[1][0] == 0:
            break
        if abs(x[0][0]) < abs(x[1][0]):
            runs.append((atom_R(), 1))
            x[0], x[1] = x[1], x[0]
            continue
        k = x[0][0] // x[1][0]
        runs.append((atom_F() if k > 0 else atom_Finv(), abs(k)))
        x[0] = [x[0][0] - k * x[1][0], x[0][1] - k * x[1][1]]
    u, b = x[0]
    d = x[1][1]
    k = b * d
    if k:
        runs.append((atom_F() if k > 0 else atom_Finv(), abs(k)))
    if (u, d) != (1, 1):
        runs.append((atom_I((1 - u) // 2, (1 - d) // 2), 1))
    return runs


def matrix_to_word(m) -> MapWord:
    """A generator word whose induced lattice action is exactly this matrix."""
    mat = _as_mat(m)
    if _det(mat) not in (1, -1):
        raise ValueError("matrix must be unimodular")
    word = MapWord(tuple(atom for atom, count in _generator_runs(mat) for _ in range(count)))
    if not np.array_equal(linear_part(word), np.asarray(mat)):
        raise ArithmeticError("word reassembly failed")
    return word


def random_hyperbolic(rng, entry_bound: int = 50) -> Mat:
    """Random hyperbolic matrix with entries within the bound.

    Built as a conjugated signed block product, so the full reduction
    machinery gets exercised rather than just near-standard inputs.
    """
    while True:
        n = rng.randrange(1, 5)
        core = _IDENT
        for _ in range(n):
            core = _mat2_mul(core, _block(rng.randrange(1, 4)))
        conj = _IDENT
        for _ in range(rng.randrange(0, 5)):
            kind = rng.randrange(3)
            k = rng.randrange(1, 3) * (1 if rng.randrange(2) else -1)
            if kind == 0:
                g = ((1, k), (0, 1))
            elif kind == 1:
                g = ((1, 0), (k, 1))
            else:
                g = ((0, 1), (1, 0))
            conj = _mat2_mul(conj, g)
        m = _mat2_mul(_mat2_mul(_inv(conj), core), conj)
        if rng.randrange(2):
            m = _neg(m)
        if max(abs(e) for row in m for e in row) <= entry_bound:
            return m


# ---------------------------------------------------------------------------
# Nonlinear realization with a requested decay profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomotopicMap:
    word: MapWord
    standard_form: StandardForm
    decay_dimension: int
    eta: Optional[float]
    parameter: float


def _parameter_for_rate(factors, s, eta, make_params) -> Tuple[float, int, float]:
    """The parameter a at which the psi family decays at rate eta: (a, d, achieved).

    The family's multiplier moduli are integer powers of sqrt(a), and while none
    underflows the rate is homogeneous of degree 1 in their logs: eta(a) =
    eta(0.5) log2(1 / a).  Stepping from there to the adjacent doubles lo < hi
    with eta(lo) > eta >= eta(hi) gives (lo + hi) / 2, where a bisection of
    [1e-6, 1 - 1e-6] ends.  A decay dimension other than at 0.5 on the way (an
    underflowed modulus) or more than _ULP_STEPS steps raise TargetInfeasible.
    A probe at 1e-6 whose decay dimension differs bounds no range: the walk
    refuses any target whose parameter lies where a modulus underflows.
    """
    lo, hi = 1e-6, 1.0 - 1e-6

    def rate(a: float):
        return decay_classification(
            spectrum_model_psi(factors, make_params(a), s)
        )

    d_half, eta_half = rate(0.5)
    d_lo, eta_lo = rate(lo)
    if d_lo != d_half:
        eta_lo = math.inf
    d_hi, eta_hi = rate(hi)
    # rate falls monotonically as the parameter approaches 1
    if not (eta_hi <= eta <= eta_lo):
        raise TargetInfeasible(
            f"decay rate {eta:g} outside the achievable range "
            f"[{eta_hi:.3g}, {eta_lo:.3g}]"
        )
    a = min(max(0.5 ** (eta / eta_half), math.nextafter(lo, 1.0)), hi)
    for _ in range(_ULP_STEPS):
        d, achieved = rate(a)
        if d != d_half:
            raise TargetInfeasible(f"a multiplier modulus underflows near the parameter for rate {eta:g}")
        below = math.nextafter(a, 0.0)
        if achieved > eta:
            a = math.nextafter(a, 1.0)
        elif below > lo and rate(below)[1] <= eta:
            a = below
        else:
            break
    else:
        raise TargetInfeasible(f"rate {eta:g} not crossed within {_ULP_STEPS} doubles of its closed form")
    a = 0.5 * (below + a)
    d, achieved = rate(a)
    if abs(achieved - eta) > 1e-6:
        raise TargetInfeasible("bisection failed to pin the requested rate")
    return a, d, achieved


def _build_atom_count(form: StandardForm, decay: str) -> int:
    """Length of the word `build_homotopic_map` makes from this standard form.

    The frame word of the conjugator appears twice (itself and its inverse)
    around the core: `xi_word` for the trivial family, `psi_word` otherwise.
    """
    frame = sum(count for _, count in _generator_runs(form.conjugator))
    per_block = 2 if decay == "trivial" else 3
    core = form.sign_flips + sum(form.factors) + per_block * len(form.factors)
    return 2 * frame + core


def build_homotopic_map(m, decay: str, eta: Optional[float] = None) -> HomotopicMap:
    """Torus map homotopic to the given hyperbolic matrix with chosen decay.

    decay = "trivial" gives the resonance-free family (spectrum {1}),
    "exponential" a single-axis spectrum with 1D rate eta, "stretched" a
    full planar spectrum with 2D rate eta, at the Blaschke parameter read off
    the closed-form rate, eta proportional to -log a.  The induced lattice
    action of the returned word equals the input matrix exactly.  A word
    longer than _ATOM_BUDGET atoms is refused with ValueError before it is
    expanded: shear exponents and the conjugator grow with the matrix entries.
    """
    form = reduce(m)
    atoms = _build_atom_count(form, decay)
    if atoms > _ATOM_BUDGET:
        raise ValueError(
            f"the built word would have {atoms} atoms, over the budget of {_ATOM_BUDGET}"
        )
    n = len(form.factors)
    frame = matrix_to_word(form.conjugator)
    frame_inv = inverse(frame)
    if decay == "trivial":
        if n < 2:
            raise TargetInfeasible(
                "the resonance-free family needs at least two blocks"
            )
        core = xi_word(form.factors, 0.5, form.sign_flips)
        dim, achieved, parameter = 0, None, 0.5
    elif decay in ("stretched", "exponential"):
        if eta is None or not (eta > 0.0):
            raise ValueError("a positive decay rate is required")
        if decay == "stretched":
            make = lambda a: (a,) * n
        else:
            if n % 2 == 1:
                raise TargetInfeasible(
                    "single-axis decay needs an even block count "
                    "(determinant +1 standard form)"
                )
            make = lambda a: (a,) + (0.0,) + (a,) * (n - 2)
        parameter, dim, achieved = _parameter_for_rate(
            form.factors, form.sign_flips, eta, make
        )
        core = psi_word(form.factors, make(parameter), form.sign_flips)
    else:
        raise ValueError("decay must be 'trivial', 'exponential' or 'stretched'")
    word = concat(frame_inv, core, frame)
    if not np.array_equal(linear_part(word), np.asarray(_as_mat(m))):
        raise ArithmeticError("homotopy-class invariant failed")
    return HomotopicMap(word, form, dim, achieved, parameter)
