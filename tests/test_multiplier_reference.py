"""Sector multipliers against an extended-precision reference.

Truncation checks a predicted spectrum only as far as the band resolves it,
and only psi words have a closed form for their multipliers, so this file
keeps a second route to every family's multipliers.  The reference walks a
word's atoms in mpmath at 40 digits on homogeneous pairs (p, q) for
z = p / q: each atom is then a polynomial map, and a point at 0 or at
infinity, or an orbit through one, needs no special case.  For each record
of `all_fixed_point_data` it conjugates the record's active map (the word or
its inverse, squared in the reflecting case "ER") by the sector chart
I(k, l), runs Newton (`mp.findroot`) from the record's point in that chart,
takes the Jacobian by central differences at h = 1e-18 and its eigenvalues
by `mp.eig`.  Multipliers do not depend on the chart, so the two pairs
compare directly.

The bound is 1e-13 of the pair's larger reference modulus.  A 2x2
eigensolve in double is accurate to some ulps of that scale, not of the
smaller multiplier: on a W word the multiplier 3.3e-8 next to 0.058 is off
by 1.3e-12 of itself but 5e-16 of the pair.  Where both reference
multipliers are zero (the same-sign pairs of W words, as 1e-25 or less after
the central differences) the package's pair must be within 1e-13 of zero.
Over 60 seeded words of each family below the worst error was 2.1e-14, so
the bound leaves a factor of about 5 for rounding and sits five orders below
the 1e-8 split of equal multipliers, which the strict xfail at the end pins.
"""

import cmath
import math
import random

import pytest
from mpmath import mp

from torspec.dynamics_checks import CertificationError, resolve_cases
from torspec.fixed_points import all_fixed_point_data
from torspec.gl2z import TargetInfeasible, build_homotopic_map, matrix_to_word, random_hyperbolic
from torspec.map_algebra import (
    INF,
    IndeterminatePointError,
    MapWord,
    atom_F,
    atom_Finv,
    atom_G,
    atom_I,
    concat,
    inverse,
    orientation,
    parse_word,
    psi_word,
    u_block,
    w_block,
    xi_word,
)
from torspec.resonance_theory import SpectrumModel, enumerate_eigenvalues, spectrum_model_from_fixed_points

_DIGITS = 40
_STEP = "1e-18"
_BOUND = 1e-13
_ZERO = 1e-20  # a reference pair below this modulus is zero
_CUTOFF = 1e-3
_LIST_BOUND = 1e-11  # per eigenvalue, relative; the worst seen was 3.3e-13 at cutoff 1e-4

# --- the reference: homogeneous pairs at 40 digits


def _walk(atoms, u):
    """The pairs (p, q) the atoms, applied right to left, take the point u to."""
    c = [(mp.mpc(v), mp.mpc(1)) for v in u]
    for atom in reversed(atoms):
        (p1, q1), (p2, q2) = c
        if atom.kind == "F":
            c[0] = (p1 * p2, q1 * q2)
        elif atom.kind == "Finv":
            c[0] = (p1 * q2, q1 * p2)
        elif atom.kind == "R":
            c.reverse()
        elif atom.kind == "I":
            c = [(q, p) if bit else (p, q) for (p, q), bit in zip(c, (atom.k, atom.l))]
        else:
            # b_a(z) = (z - a) / (1 - conj(a) z)
            c = [(p - a * q, q - mp.conj(a) * p) for (p, q), a in zip(c, (mp.mpc(atom.a), mp.mpc(atom.b)))]
    return c


def _inverse_atoms(atoms):
    swap = {"F": atom_Finv(), "Finv": atom_F()}
    return [swap.get(a.kind, atom_G(-a.a, -a.b) if a.kind == "G" else a) for a in reversed(atoms)]


def _reference_multipliers(word, record):
    """The multiplier pair of one record's fixed point, from the reference walk."""
    with mp.workdps(_DIGITS):
        active = list(word.atoms) if record.ell == 1 else _inverse_atoms(word.atoms)
        if record.case == "ER":
            active = active * 2
        bits = [(1 + s) // 2 for s in record.sigma]
        chart = [atom_I(*bits)]
        atoms = chart + active + chart

        def g(*u):
            return [p / q for p, q in _walk(atoms, u)]

        start = [mp.mpc(0) if z is INF else mp.mpc(z) ** (1 - 2 * bit) for z, bit in zip(record.point, bits)]
        root = mp.findroot(lambda *u: [v - w for v, w in zip(g(*u), u)], start)
        u = [root[0], root[1]]
        h = mp.mpf(_STEP)
        jac = mp.matrix(2, 2)
        for j in range(2):
            up, down = list(u), list(u)
            up[j] += h
            down[j] -= h
            for i, (a, b) in enumerate(zip(g(*up), g(*down))):
                jac[i, j] = (a - b) / (2 * h)
        return tuple(complex(v) for v in mp.eig(jac, left=False, right=False))


def _pair_error(got, ref):
    """How far the unordered pair `got` is from `ref`, relative to the larger reference modulus."""
    scale = max(abs(v) for v in ref)
    (a, b), (x, y) = got, ref
    error = min(max(abs(a - x), abs(b - y)), max(abs(a - y), abs(b - x)))
    return error if scale < _ZERO else error / scale


def _is_double(ref):
    # a pair closer than 1e-6 is a double: the split defect leaves ~1e-8
    x, y = ref
    return abs(x - y) < 1e-6 * max(abs(x), abs(y))


# --- seeded words of each family


def _disk(rng, radius):
    return rng.uniform(0.05, radius) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _psi(rng):
    n = rng.randrange(2, 4)
    return psi_word([rng.randrange(1, 4) for _ in range(n)], [_disk(rng, 0.7) for _ in range(n)], rng.randrange(2))


def _xi(rng):
    return xi_word([rng.randrange(1, 4) for _ in range(rng.randrange(2, 4))], _disk(rng, 0.7), rng.randrange(2))


def _w(rng):
    # W blocks, one in three swapped for a U block
    atoms = []
    for _ in range(rng.randrange(2, 4)):
        atoms += (w_block if rng.randrange(3) else u_block)(rng.randrange(1, 3), _disk(rng, 0.6))
    return MapWord(atoms)


def _lone_g(rng):
    # a linear word of a hyperbolic class with one or two G atoms put in
    atoms = list(matrix_to_word(random_hyperbolic(rng, 6)).atoms)
    for _ in range(rng.randrange(1, 3)):
        atoms.insert(rng.randrange(len(atoms) + 1), atom_G(_disk(rng, 0.35), _disk(rng, 0.35)))
    return MapWord(atoms)


def _build(rng):
    decay = rng.choice(("exponential", "stretched"))
    return build_homotopic_map(random_hyperbolic(rng, 12), decay, rng.uniform(0.5, 1.5)).word


def _inverse(rng):
    # I01 . inverse(h) . I01 certifies where inverse(h) does not, and its
    # same-sign sectors are the mixed sectors of h
    base = rng.choice((_psi, _xi, _w, _lone_g))(rng)
    return concat(parse_word("I01"), inverse(base), parse_word("I01"))


FAMILIES = {"psi": _psi, "xi": _xi, "W": _w, "lone G": _lone_g, "build": _build, "inverse": _inverse}


def _seeded(family, seed):
    """The first word of the family's seeded stream with multipliers, and their reference pairs.

    A word the package refuses has no multipliers to compare, so the stream
    draws again: `build` refusing the target, no certificate, or the chart
    iteration meeting 0 * inf (a known defect of mixed-sign words).  So does
    a word with a double pair (stretched `build` words, mostly): equal
    multipliers are split by a known defect, which the xfail below pins.
    """
    rng = random.Random(seed)
    while True:
        try:
            word = FAMILIES[family](rng)
            data = all_fixed_point_data(word, resolve_cases(word))
        except (TargetInfeasible, CertificationError, IndeterminatePointError):
            continue
        refs = {r.sigma: _reference_multipliers(word, r) for r in data.records}
        if not any(map(_is_double, refs.values())):
            return word, data, refs


def _check(word, data, refs):
    for record in data.records:
        error = _pair_error(record.multipliers, refs[record.sigma])
        assert error <= _BOUND, (str(word), record.sigma, record.multipliers, refs[record.sigma])
    omega = orientation(word)
    got = enumerate_eigenvalues(spectrum_model_from_fixed_points(data, omega), _CUTOFF)
    model = SpectrumModel(omega, data.cases.forward.case, data.cases.backward.case, refs[(-1, -1)], refs[(-1, 1)])
    want = enumerate_eigenvalues(model, _CUTOFF)
    assert [e.multiplicity for e in got] == [e.multiplicity for e in want]
    for g, w in zip(got, want):
        assert abs(g.value - w.value) <= _LIST_BOUND * abs(w.value), (str(word), g, w)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", FAMILIES)
def test_multipliers_match_reference(family, seed):
    _check(*_seeded(family, seed))


def test_reference_takes_points_at_zero_and_infinity():
    # psi words fix (0, 0), (inf, inf), (0, inf) and (inf, 0), and the orbit
    # of an antipodal word passes through infinity; a W word's same-sign
    # pairs are zero
    for text in ("U(1,0.5) . U(1,0.3)", "I11 . U(2,0.5+0.1i) . U(1,-0.3)", "W(1,0.2) . W(2,0.3)"):
        word = parse_word(text)
        data = all_fixed_point_data(word)
        _check(word, data, {r.sigma: _reference_multipliers(word, r) for r in data.records})
    assert all_fixed_point_data(parse_word("U(1,0.5) . U(1,0.3)")).record((1, 1)).point == (INF, INF)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect (ROADMAP: double multipliers to full precision): the fixed points "
    "form the discriminant as tr^2 - 4 det, which cancels where the two multipliers are equal "
    "and splits them by about 1e-8",
)
@pytest.mark.parametrize(
    "word",
    [parse_word("U(1,0.3) . U(1,0.3)"), build_homotopic_map([[0, 1], [1, 3]], "stretched", 1.0).word],
    ids=["U(1,0.3) . U(1,0.3)", "build [[0,1],[1,3]]"],
)
def test_double_multipliers_match_reference(word):
    data = all_fixed_point_data(word)
    _check(word, data, {r.sigma: _reference_multipliers(word, r) for r in data.records})
