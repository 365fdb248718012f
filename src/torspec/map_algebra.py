"""Finite words in the rational torus-map generators.

A map of the complex 2-torus is represented as a word in five generator atoms:

  * ``F``            -- the shear (z1, z2) -> (z1*z2, z2),
  * ``Finv``         -- its inverse (z1, z2) -> (z1/z2, z2),
  * ``R``            -- the coordinate swap,
  * ``I(k, l)``      -- componentwise inversions (z1^(1-2k), z2^(1-2l)), k, l in {0, 1},
  * ``G(a, b)``      -- componentwise disk automorphisms (b_a(z1), b_b(z2)) with
                        b_a(z) = (z - a) / (1 - conj(a) z) and |a|, |b| < 1.

Words are applied right to left: ``[F, R]`` is the map z -> F(R(z)).

Evaluation works on the extended coordinates: each component is a complex
number, and the point at infinity is ``INF``, complex infinity, for single
points and arrays alike.  Truly indeterminate configurations (0 * inf, 0/0,
inf/inf) raise ``IndeterminatePointError`` naming the offending atom.
Evaluation and the Jacobians take whole arrays of points as well as single
points.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np


class WordSyntaxError(ValueError):
    """Raised when a word string cannot be parsed; carries the atom position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (atom {position})")
        self.position = position


class IndeterminatePointError(ValueError):
    """Raised when evaluation hits a genuine 0*inf / 0/0 / inf/inf configuration."""

    def __init__(self, message: str, atom_index: int):
        super().__init__(f"{message} (atom index {atom_index})")
        self.atom_index = atom_index


class PoleInChainError(ValueError):
    """Raised when a Jacobian chain passes through a pole or an infinite point.

    Callers that need derivatives at such points should first conjugate the word
    by an I(k, l) atom so every intermediate point of the chain is finite.
    """


# The point at infinity of one coordinate sphere.  Any complex infinity is
# read as it; every single point at infinity the package returns is this
# object, so `x is INF` is a valid test on outputs.
INF = complex(math.inf, 0.0)

ExtendedPoint = Tuple[complex, complex]

_DISK_TOL = 1e-12


def _require_disk(value: complex, what: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    if abs(value) >= 1.0 - _DISK_TOL:
        raise ValueError(f"{what} must lie strictly inside the unit disk, got {value!r}")
    return value


@dataclass(frozen=True)
class Atom:
    """One generator atom. ``kind`` is 'F', 'Finv', 'R', 'I', or 'G'."""

    kind: str
    k: int = 0
    l: int = 0
    a: complex = 0j
    b: complex = 0j

    def __post_init__(self):
        if self.kind not in ("F", "Finv", "R", "I", "G"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.kind == "I":
            if self.k not in (0, 1) or self.l not in (0, 1):
                raise ValueError("I(k, l) requires k, l in {0, 1}")
        if self.kind == "G":
            object.__setattr__(self, "a", _require_disk(self.a, "G parameter a"))
            object.__setattr__(self, "b", _require_disk(self.b, "G parameter b"))


def atom_F() -> Atom:
    return Atom("F")


def atom_Finv() -> Atom:
    return Atom("Finv")


def atom_R() -> Atom:
    return Atom("R")


def atom_I(k: int, l: int) -> Atom:
    return Atom("I", k=int(k), l=int(l))


def atom_G(a: complex, b: complex) -> Atom:
    return Atom("G", a=complex(a), b=complex(b))


@dataclass(frozen=True)
class MapWord:
    """A composition of atoms, applied right to left."""

    atoms: Tuple[Atom, ...]

    def __init__(self, atoms: Iterable[Atom] = ()):
        object.__setattr__(self, "atoms", tuple(atoms))
        for i, atom in enumerate(self.atoms):
            if not isinstance(atom, Atom):
                raise TypeError(f"atom {i} is not an Atom: {atom!r}")

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)

    def __getitem__(self, idx):
        return self.atoms[idx]

    def __str__(self):
        return word_to_text(self)


WordLike = Union[MapWord, Sequence[Atom]]


def _atoms(word: WordLike) -> Tuple[Atom, ...]:
    """The atoms of a MapWord or of a sequence of atoms, checked once here."""
    return word.atoms if isinstance(word, MapWord) else MapWord(word).atoms


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"\s*([A-Za-z]+[01]{0,2})\s*(?:\((.*)\))?\s*$", re.S)

_NUMBER_FORBIDDEN = re.compile(r"[^0-9eEjJiI+\-.() ]")


def _parse_complex(token: str, position: int) -> complex:
    cleaned = token.strip()
    if not cleaned or _NUMBER_FORBIDDEN.search(cleaned):
        raise WordSyntaxError(f"bad numeric literal {token!r}", position)
    normalized = cleaned.replace(" ", "").replace("i", "j").replace("I", "J")
    try:
        value = complex(normalized)
    except ValueError:
        raise WordSyntaxError(f"bad numeric literal {token!r}", position) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise WordSyntaxError(f"non-finite literal {token!r}", position)
    return value


def _parse_int(token: str, position: int) -> int:
    token = token.strip()
    if not re.fullmatch(r"[+-]?\d+", token):
        raise WordSyntaxError(f"expected an integer, got {token!r}", position)
    return int(token)


def _split_top_level(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise WordSyntaxError("unbalanced ')'", len(parts))
        if ch == "." and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise WordSyntaxError("unbalanced '('", len(parts))
    parts.append("".join(current))
    return parts


def _expand_sugar(name: str, args: List[str], position: int) -> List[Atom]:
    blocks = {"U": u_block, "W": w_block}
    if name not in blocks:
        raise WordSyntaxError(f"unknown atom {name!r}", position)
    if len(args) != 2:
        raise WordSyntaxError(f"{name} takes (k, a)", position)
    k = _parse_int(args[0], position)
    a = _parse_complex(args[1], position)
    if k < 1:
        raise WordSyntaxError(f"{name} requires k >= 1", position)
    try:
        return blocks[name](k, a)
    except ValueError as exc:
        raise WordSyntaxError(str(exc), position) from None


def parse_word(text: str) -> MapWord:
    """Parse a word string such as ``"I11 . U(2, 0.5+0.1i) . U(1, -0.3)"``.

    Atoms are separated by ``.``; complex literals use ``i`` for the imaginary
    unit.  ``U(k, a)`` and ``W(k, a)`` are sugar expanding to their defining
    atom sequences.  Raises WordSyntaxError (with the atom position) on bad
    syntax and ValueError on parameters outside the open unit disk.
    """
    if not isinstance(text, str):
        raise TypeError("parse_word expects a string")
    if not text.strip():
        raise WordSyntaxError("empty word", 0)
    atoms: List[Atom] = []
    for position, chunk in enumerate(_split_top_level(text)):
        if not chunk.strip():
            raise WordSyntaxError("empty atom", position)
        match = _ATOM_RE.match(chunk)
        if match is None:
            raise WordSyntaxError(f"cannot parse atom {chunk.strip()!r}", position)
        name, argtext = match.group(1), match.group(2)
        args = [] if argtext is None else argtext.split(",")
        if name in ("F", "Finv", "R", "I00", "I01", "I10", "I11"):
            if argtext is not None:
                raise WordSyntaxError(f"{name} takes no arguments", position)
            atoms.append(atom_I(int(name[1]), int(name[2])) if name[0] == "I" else Atom(name))
        elif name == "I":
            if len(args) != 2:
                raise WordSyntaxError("I takes (k, l)", position)
            k = _parse_int(args[0], position)
            l = _parse_int(args[1], position)
            if k not in (0, 1) or l not in (0, 1):
                raise WordSyntaxError("I(k, l) requires k, l in {0, 1}", position)
            atoms.append(atom_I(k, l))
        elif name == "G":
            if len(args) != 2:
                raise WordSyntaxError("G takes (a, b)", position)
            a = _parse_complex(args[0], position)
            b = _parse_complex(args[1], position)
            try:
                atoms.append(atom_G(a, b))
            except ValueError as exc:
                raise WordSyntaxError(str(exc), position) from None
        else:
            atoms.extend(_expand_sugar(name, args, position))
    return MapWord(atoms)


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def format_complex(value: complex) -> str:
    """Render a complex number in the word grammar (``re``, ``imi``, ``re+imi``)."""
    value = complex(value)
    if value.imag == 0.0:
        return _format_real(value.real)
    if value.real == 0.0:
        return _format_real(value.imag) + "i"
    sign = "+" if value.imag > 0 else "-"
    return f"{_format_real(value.real)}{sign}{_format_real(abs(value.imag))}i"


def word_to_text(word: WordLike) -> str:
    """Inverse of parse_word (up to sugar: U/W are written out as atoms)."""
    pieces = []
    for atom in _atoms(word):
        if atom.kind in ("F", "Finv", "R"):
            pieces.append(atom.kind)
        elif atom.kind == "I":
            pieces.append(f"I{atom.k}{atom.l}")
        else:
            pieces.append(f"G({format_complex(atom.a)},{format_complex(atom.b)})")
    return " . ".join(pieces)


# ---------------------------------------------------------------------------
# The word interpreter
# ---------------------------------------------------------------------------
#
# Every evaluation and Jacobian of a word runs through `_interpret` over the
# `_ACTIONS` table, which gives each atom kind one action per column: complex
# values, lifted angles and projective charts.  `_walk` runs the first two on
# numpy arrays, on one point or on a whole grid: values are broadcast to one
# shape up front on the complex side; a lifted walk keeps an open grid's
# column and row apart until an atom mixes them.  The scalar API passes
# 1-element arrays, so a point of a grid call has the same bits as the scalar
# call at that point.  On the complex side the point at infinity is a boolean
# mask per coordinate (the value array holds garbage under the mask); a
# product or quotient beyond the float range joins the mask, as it lies within
# 1/1.8e308 of infinity on the sphere.  A coordinate has no mask (None) while
# none of its points is at infinity, as on every torus sample.  An atom forms
# its new values first; if its inputs have no mask and those values are all
# finite, it skips its fault checks and mask algebra, and its new coordinate
# has no mask.  That changes no result: each check of the column (0 * inf,
# 0/0, inf/inf, the quotient divided again, the poles and infinite points of
# a Jacobian) fires only where an input mask is set or a new value is not
# finite, and then the atom runs them all, an absent mask read as all false.
# The chart column runs on Python complex scalars for the sector fixed points
# (see `fixed_points`), and raises an indeterminate point at once.
# The 2x2 Jacobian travels as two rows and takes the chain rule as row operations.


class _Walk:
    """A point part-way through a word: values, infinity masks, Jacobian rows.

    In the complex column a coordinate's mask is None while none of its
    points is at infinity (see the column comment above).  In the chart
    column `w` holds the two stored values (modulus <= 1), `inf` the two
    chart bits (1 means the coordinate stores 1/z) and `jac` is None or two
    numpy rows.
    """

    __slots__ = ("w", "inf", "jac", "index", "fault")

    def __init__(self, w, inf, jac):
        self.w = w
        self.inf = inf
        self.jac = jac
        self.index = 0
        self.fault = None

    def flag(self, mask, error: ValueError) -> None:
        """Remember the first failure of the walk; the caller raises it at the end."""
        if self.fault is None and np.any(mask):
            self.fault = error

    def finite(self, *coords: int) -> None:
        for i in coords:
            if self.inf[i] is not None:
                self.flag(self.inf[i], PoleInChainError(f"z{i + 1} is infinite; conjugate by I(k, l) first"))

    def scale_row(self, i: int, factor) -> None:
        self.jac[i] = [factor * self.jac[i][0], factor * self.jac[i][1]]


def _swap(s: _Walk, atom: Atom) -> None:
    s.w.reverse()
    if s.inf is not None:
        s.inf.reverse()
    if s.jac is not None:
        s.jac.reverse()


def _all_finite(values) -> bool:
    return bool(np.isfinite(values).all())


def _mask(m, like):
    """The mask, an absent one as all false, for the checks a point at infinity or a non-finite value calls for."""
    return np.zeros(like.shape, dtype=bool) if m is None else m


def _quotient(s: _Walk, q, num, den, masked):
    """numpy's quotient q = num / den, divided again wherever it is not finite.

    numpy's complex division goes by way of the divisor's reciprocal, which
    overflows on a subnormal: 0 / 1e-320 comes out nan and 1e-320 / 1e-320
    inf + nan i.  Both operands are scaled by 2**54, which is exact and lifts
    the divisor out of the subnormal range; a quotient that truly overflows
    stays infinite.  Where that is still not finite and |den| >= 1, both are
    scaled by 2**-54 instead: huge over huge overflows numpy's denominator,
    and scaling up cannot mend that.  Points under `masked` and zero
    divisors keep numpy's quotient, and a nan operand gives nan; a nan that
    the second division makes of non-nan operands, with neither part
    infinite, is refused.
    """
    again = ~np.isfinite(q) & ~masked & (den != 0)
    if np.any(again):
        q = np.where(again, (num * 2.0 ** 54) / (den * 2.0 ** 54), q)
        down = again & ~np.isfinite(q) & (np.abs(den) >= 1.0)
        if np.any(down):
            q = np.where(down, (num * 2.0 ** -54) / (den * 2.0 ** -54), q)
        made = again & np.isnan(q) & ~np.isinf(q) & ~np.isnan(num) & ~np.isnan(den)
        s.flag(made, IndeterminatePointError("quotient is nan in floating point", s.index))
    return q


def _complex_F(s: _Walk, atom: Atom) -> None:
    (w1, w2), (m1, m2) = s.w, s.inf
    s.w[0] = w1 * w2
    quick = m1 is None and m2 is None and _all_finite(s.w[0])
    if s.jac is not None:
        s.finite(0, 1)
        (j11, j12), (j21, j22) = s.jac
        s.jac[0] = [w2 * j11 + w1 * j21, w2 * j12 + w1 * j22]
    if quick:
        return
    m1, m2 = _mask(m1, w1), _mask(m2, w1)
    zero_inf = (m1 & ~m2 & (w2 == 0)) | (m2 & ~m1 & (w1 == 0))
    s.flag(zero_inf, IndeterminatePointError("0 * inf is indeterminate", s.index))
    s.inf[0] = m1 | m2 | np.isinf(s.w[0])


def _complex_Finv(s: _Walk, atom: Atom) -> None:
    (w1, w2), (m1, m2) = s.w, s.inf
    s.w[0] = w1 / w2
    quick = m1 is None and m2 is None and _all_finite(s.w[0])
    if s.jac is not None:
        s.finite(0, 1)
        if not quick:
            s.flag(w2 == 0, PoleInChainError("Finv differentiated at z2 = 0"))
        (j11, j12), (j21, j22) = s.jac
        slope = w1 / (w2 * w2)
        s.jac[0] = [j11 / w2 - slope * j21, j12 / w2 - slope * j22]
    if quick:
        return
    m1, m2 = _mask(m1, w1), _mask(m2, w1)
    s.flag(m1 & m2, IndeterminatePointError("inf / inf is indeterminate", s.index))
    zero_zero = ~m1 & ~m2 & (w1 == 0) & (w2 == 0)
    s.flag(zero_zero, IndeterminatePointError("0 / 0 is indeterminate", s.index))
    s.w[0] = np.where(m2, 0j, _quotient(s, s.w[0], w1, w2, m1 | m2))
    s.inf[0] = ~m2 & (m1 | (w2 == 0) | np.isinf(s.w[0]))


def _complex_I(s: _Walk, atom: Atom) -> None:
    for i, bit in enumerate((atom.k, atom.l)):
        if not bit:
            continue
        w, m = s.w[i], s.inf[i]
        s.w[i] = 1.0 / w
        quick = m is None and _all_finite(s.w[i])
        if s.jac is not None:
            s.finite(i)
            if not quick:
                s.flag(w == 0, PoleInChainError("I(k, l) differentiated at 0"))
            s.scale_row(i, -1.0 / (w * w))
        if quick:
            continue
        m = _mask(m, w)
        s.w[i] = np.where(m, 0j, _quotient(s, s.w[i], 1.0, w, m))
        s.inf[i] = ~m & ((w == 0) | np.isinf(s.w[i]))


def _complex_G(s: _Walk, atom: Atom) -> None:
    if s.jac is not None:
        s.finite(0, 1)
    for i, a in enumerate((atom.a, atom.b)):
        if a == 0:
            continue
        # b_a(z) = (z - a) / (1 - conj(a) z), a pole where the denominator is 0
        w, m = s.w[i], s.inf[i]
        den = 1.0 - a.conjugate() * w
        s.w[i] = (w - a) / den
        if m is not None or not _all_finite(s.w[i]):
            m = _mask(m, w)
            s.w[i] = np.where(m, -1 / a.conjugate(), _quotient(s, s.w[i], w - a, den, m))
            s.inf[i] = ~m & (den == 0)
            if s.jac is not None:
                s.flag(den == 0, PoleInChainError("G differentiated at a pole"))
        if s.jac is not None:
            s.scale_row(i, (1.0 - abs(a) ** 2) / (den * den))


def _lifted_shear(sign: int):
    def action(s: _Walk, atom: Atom) -> None:
        s.w[0] = s.w[0] + sign * s.w[1]
        if s.jac is not None:
            (j11, j12), (j21, j22) = s.jac
            s.jac[0] = [j11 + sign * j21, j12 + sign * j22]

    return action


def _lifted_I(s: _Walk, atom: Atom) -> None:
    for i, bit in enumerate((atom.k, atom.l)):
        if bit:
            s.w[i] = -s.w[i]
            if s.jac is not None:
                s.jac[i] = [-s.jac[i][0], -s.jac[i][1]]


def _lifted_G(s: _Walk, atom: Atom) -> None:
    for i, a in enumerate((atom.a, atom.b)):
        if a == 0:
            continue
        g, gp = moebius_lift(a, s.w[i])
        s.w[i] = s.w[i] + g
        if s.jac is not None:
            s.scale_row(i, 1.0 + gp)


def _log_mod(v: complex) -> float:
    r = abs(v)
    return -math.inf if r == 0.0 else math.log(r)


def _chart_shear(sign: int):
    def action(s: _Walk, atom: Atom) -> None:
        # coordinate 1 becomes z1 * z2^sign; exponents are tracked through charts
        (v1, v2), (c1, c2) = s.w, s.inf
        a = 1 - 2 * c1
        b = (1 - 2 * c2) * sign
        log_out = a * _log_mod(v1) + b * _log_mod(v2)
        if math.isnan(log_out):
            raise IndeterminatePointError("0 * inf inside a shear", s.index)
        c_out = 0 if log_out <= 0 else 1
        g1 = a * (1 - 2 * c_out)
        g2 = b * (1 - 2 * c_out)
        # chart choice guarantees g = +1 whenever the stored value is 0
        try:
            stored = (v1 ** g1) * (v2 ** g2)
        except OverflowError:
            # 1 / v overflows on a subnormal v, yet |stored| <= 1 with |v1|, |v2| <= 1,
            # so the exponents are +1 and -1: form the same value as one quotient
            num, den = (v1, v2) if g1 > 0 else (v2, v1)
            stored = num / den
        if s.jac is not None:
            # 1 / v overflows on a subnormal v, as a power (raised) or a quotient (inf)
            try:
                d1 = (v2 ** g2) if v1 == 0 else g1 * stored / v1
                d2 = (v1 ** g1) if v2 == 0 else g2 * stored / v2
                if not (cmath.isfinite(d1) and cmath.isfinite(d2)):
                    raise OverflowError
            except OverflowError:
                raise PoleInChainError(f"chart derivative overflows inside a shear (atom index {s.index})") from None
            s.jac[0] = d1 * s.jac[0] + d2 * s.jac[1]
        s.w[0] = stored
        s.inf[0] = c_out

    return action


def _chart_I(s: _Walk, atom: Atom) -> None:
    # 1/z in the old chart is exactly the stored value in the flipped chart,
    # so stored values and derivatives are untouched
    s.inf[0] ^= atom.k
    s.inf[1] ^= atom.l


def _chart_G(s: _Walk, atom: Atom) -> None:
    # disk automorphisms preserve |z| <=> 1, so the chart bit never changes;
    # in chart 1 the conjugated-parameter variant keeps the stored form exact
    for i, a in enumerate((atom.a, atom.b)):
        if a == 0:
            continue
        v = s.w[i]
        if s.inf[i] == 0:
            den = 1 - a.conjugate() * v
            new = (v - a) / den
        else:
            den = 1 - a * v
            new = (v - a.conjugate()) / den
        if s.jac is not None:
            s.jac[i] *= (1 - abs(a) ** 2) / (den * den)
        s.w[i] = new


# atom kind -> (action on complex values, on lifted angles, on chart values)
_ACTIONS = {
    "F": (_complex_F, _lifted_shear(1), _chart_shear(1)),
    "Finv": (_complex_Finv, _lifted_shear(-1), _chart_shear(-1)),
    "R": (_swap, _swap, _swap),
    "I": (_complex_I, _lifted_I, _chart_I),
    "G": (_complex_G, _lifted_G, _chart_G),
}
_CHART = 2


def _interpret(state: _Walk, atoms: Tuple[Atom, ...], column: int) -> None:
    """Carry the state through the atoms, rightmost first, by one column of `_ACTIONS`."""
    for index in range(len(atoms) - 1, -1, -1):
        state.index = index
        _ACTIONS[atoms[index].kind][column](state, atoms[index])


def _walk(word: WordLike, point, inf=None, jacobian: bool = False):
    """Carry a point (and its Jacobian rows, if asked) through the word.

    `point` is a pair of arrays; `inf` their infinity masks for a complex
    walk (None for a coordinate with no point at infinity), or None for a
    walk on lifted angles, which need only broadcast together.  Returns
    (values at the broadcast shape, masks, Jacobian rows or None); the first
    pole or indeterminate configuration met at any point is raised once the
    walk is over.
    """
    lifted = inf is None
    values = list(point if lifted else np.broadcast_arrays(*point))
    shape = np.broadcast_shapes(values[0].shape, values[1].shape)
    if not lifted:
        inf = [m if m is None else np.broadcast_to(m, shape) for m in inf]
    jac = None
    if jacobian:  # no local keeps the identity's planes alive once the rows move on
        jac = [[np.ones(shape, values[0].dtype), np.zeros(shape, values[0].dtype)]]
        jac.append(jac[0][::-1])
    state = _Walk(values, inf, jac)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _interpret(state, _atoms(word), lifted)
    if state.fault is not None:
        raise state.fault
    return np.broadcast_arrays(*state.w), state.inf, state.jac


def _extended_in(coords):
    """Values and infinity masks of extended coordinates, and whether all were scalars.

    A scalar travels as a 1-element array: numpy runs arithmetic on 0-d arrays
    through its scalar routines, whose complex products round differently from
    the array loops.  Any complex infinity marks the point at infinity; a
    coordinate with none has no mask (None).
    """
    values = [np.atleast_1d(np.asarray(c, dtype=complex)) for c in coords]
    masks = [m if m.any() else None for m in map(np.isinf, values)]
    return values, masks, all(np.ndim(c) == 0 for c in coords)


def _extended_out(w, inf, scalar: bool):
    """Back to the caller's form, with INF at the points at infinity (a new array)."""
    if scalar:
        return INF if inf is not None and inf[0] else complex(w[0])
    return w.copy() if inf is None else np.where(inf, INF, w)


def _matrix(jac, scalar: bool) -> np.ndarray:
    """Jacobian rows as one 2x2 array, or a (..., 2, 2) view of four contiguous entry planes."""
    (a, b), (c, d) = jac
    stack = np.moveaxis(np.stack((a, b, c, d)).reshape((2, 2) + a.shape), (0, 1), (-2, -1))
    return stack[0] if scalar else stack


def evaluate(word: WordLike, z) -> ExtendedPoint:
    """Apply the word to an extended point, rightmost atom first.

    `z` is a pair of coordinates, each a complex number or an array (all
    arrays broadcast to one shape).  Any complex infinity, INF among them, is
    the point at infinity; on the way out it is INF.  The call raises
    IndeterminatePointError if any point meets 0 * inf, 0/0 or inf/inf, or
    a quotient of non-nan operands that stays nan when formed again with
    both scaled by 2**54, or by 2**-54 where |divisor| >= 1 (a subnormal
    divisor, and huge over huge, are mended so).
    """
    values, masks, scalar = _extended_in(z)
    (w1, w2), (m1, m2), _ = _walk(word, values, masks)
    return (_extended_out(w1, m1, scalar), _extended_out(w2, m2, scalar))


def inverse(word: WordLike) -> MapWord:
    """The inverse word: reversed atom order, each atom inverted."""
    out: List[Atom] = []
    for atom in reversed(_atoms(word)):
        if atom.kind == "F":
            out.append(atom_Finv())
        elif atom.kind == "Finv":
            out.append(atom_F())
        elif atom.kind == "G":
            out.append(atom_G(-atom.a, -atom.b))
        else:
            out.append(atom)  # R and I(k, l) are involutions
    return MapWord(out)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


def complex_jacobian(word: WordLike, z) -> np.ndarray:
    """Exact chain-rule Jacobian d(word)/dz at a finite chain of points.

    Every intermediate point must be finite and off the atom poles; otherwise
    PoleInChainError is raised (conjugate by an I(k, l) chart first).  On
    array input the result has shape z1.shape + (2, 2).
    """
    values, masks, scalar = _extended_in(z)
    _, _, jac = _walk(word, values, masks, jacobian=True)
    return _matrix(jac, scalar)


def moebius_lift(a: complex, theta):
    """Angular displacement of b_a on the circle and its derivative.

    Returns (g, g') with b_a(e^{i theta}) = e^{i (theta + g)} and
    d/dtheta arg b_a(e^{i theta}) = 1 + g'.  g' > -1 always.  `theta` may
    be an array.
    """
    a = complex(a)
    r = abs(a)
    alpha = cmath.phase(a)
    c = np.cos(theta - alpha)
    g = 2.0 * np.arctan2(r * np.sin(theta - alpha), 1.0 - r * c)
    gp = 2.0 * (r * c - r * r) / (1.0 - 2.0 * r * c + r * r)
    if np.ndim(theta) == 0:
        return (float(g), float(gp))
    return (g, gp)


def _as_angles(x):
    """Angle arrays (a scalar as a 1-element array, see _extended_in) and whether x was scalar."""
    angles = [np.atleast_1d(np.asarray(c, dtype=float)) for c in (x[0], x[1])]
    return angles, np.ndim(x[0]) == 0 and np.ndim(x[1]) == 0


def evaluate_lifted(word: WordLike, x) -> Tuple[float, float]:
    """Apply the lifted (angle-coordinate) word to x in R^2 (or to angle arrays that broadcast)."""
    angles, scalar = _as_angles(x)
    (y1, y2), _, _ = _walk(word, angles)
    if scalar:
        return (float(y1[0]), float(y2[0]))
    return (y1, y2)


def lifted_jacobian(word: WordLike, x) -> np.ndarray:
    """Real 2x2 derivative of the lifted word at angle coordinates x.

    On arrays of angles the result has shape broadcast(x1, x2).shape + (2, 2).
    """
    angles, scalar = _as_angles(x)
    _, _, jac = _walk(word, angles, jacobian=True)
    return _matrix(jac, scalar)


# ---------------------------------------------------------------------------
# Algebraic structure
# ---------------------------------------------------------------------------

_ATOM_MATRIX = {
    "F": ((1, 1), (0, 1)),
    "Finv": ((1, -1), (0, 1)),
    "R": ((0, 1), (1, 0)),
}


def _atom_matrix(atom: Atom) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    if atom.kind in _ATOM_MATRIX:
        return _ATOM_MATRIX[atom.kind]
    if atom.kind == "I":
        return ((1 - 2 * atom.k, 0), (0, 1 - 2 * atom.l))
    return ((1, 0), (0, 1))  # G has trivial degree matrix


def _mat2_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def linear_part(word: WordLike) -> np.ndarray:
    """Exact integer degree matrix of the word (product over atoms in word order)."""
    acc = ((1, 0), (0, 1))
    for atom in _atoms(word):
        acc = _mat2_mul(acc, _atom_matrix(atom))
    if max(abs(v) for row in acc for v in row) >= 2 ** 62:
        raise OverflowError("degree matrix entries exceed the int64 range")
    return np.array(acc, dtype=np.int64)


def orientation(word: WordLike) -> int:
    """+1 if the word preserves orientation, -1 otherwise; each atom's degree matrix has determinant +-1."""
    m = linear_part(word)
    return 1 if int(m[0, 0]) * int(m[1, 1]) > int(m[0, 1]) * int(m[1, 0]) else -1


def _merge_blaschke_params(a: complex, c: complex):
    """Parameter e with b_a(b_c(z)) = u * b_e(z), u unimodular; None unless u == 1.

    The composition law gives u = (1 + a conj(c)) / (1 + conj(a) c), so the merge
    keeps the plain b_e form only when a conj(c) is real.
    """
    u = 1 + a * c.conjugate()
    if u == 0:  # |a| = |c| < 1 rules this out, kept as a guard
        return None
    if abs(u.imag) > 1e-15 * abs(u):
        return None
    return (a + c) / (1 + a.conjugate() * c)


def _try_rewrite(atoms: List[Atom], i: int) -> bool:
    """Apply one local rewrite at position i (pair i, i+1); True if changed."""
    x = atoms[i]
    y = atoms[i + 1]
    if x.kind in ("F", "Finv") and y.kind == "I":
        if y.k != y.l:
            flipped = atom_Finv() if x.kind == "F" else atom_F()
            atoms[i : i + 2] = [y, flipped]
            return True
        if y.k == 1 and y.l == 1:
            atoms[i : i + 2] = [y, x]
            return True
    if x.kind == "R" and y.kind == "I":
        atoms[i : i + 2] = [atom_I(y.l, y.k), atom_R()]
        return True
    if x.kind == "G" and y.kind == "I":
        a = x.a.conjugate() if y.k == 1 else x.a
        b = x.b.conjugate() if y.l == 1 else x.b
        atoms[i : i + 2] = [y, atom_G(a, b)]
        return True
    if x.kind == "I" and y.kind == "I":
        k = 0 if x.k == y.k else 1
        l = 0 if x.l == y.l else 1
        atoms[i : i + 2] = [atom_I(k, l)]
        return True
    if x.kind == "G" and y.kind == "R":
        atoms[i : i + 2] = [atom_R(), atom_G(x.b, x.a)]
        return True
    if x.kind == "G" and y.kind == "G":
        ea = _merge_blaschke_params(x.a, y.a)
        eb = _merge_blaschke_params(x.b, y.b)
        if ea is not None and eb is not None:
            atoms[i : i + 2] = [atom_G(ea, eb)]
            return True
    return False


def _is_identity_atom(atom: Atom) -> bool:
    if atom.kind == "I" and atom.k == 0 and atom.l == 0:
        return True
    if atom.kind == "G" and atom.a == 0 and atom.b == 0:
        return True
    return False


def simplify(word: WordLike) -> MapWord:
    """Normalize a word using the exact commutation and merge relations.

    Identity atoms are dropped, I(k, l) factors migrate left and coalesce,
    R moves left past G, and adjacent G atoms merge when the composition is
    again a plain disk automorphism.  The result is pointwise equal to the
    input map.  One scan does it: every rule moves an I or R atom left or
    shortens the word, so the scan ends, and it steps back a place after each
    rewrite, so no pair behind it can still be rewritten.
    """
    atoms = [a for a in _atoms(word) if not _is_identity_atom(a)]
    i = 0
    while i + 1 < len(atoms):
        if _try_rewrite(atoms, i):
            # the list held no identity atom, and a rewrite makes new atoms only at i and i + 1
            atoms[i : i + 2] = [a for a in atoms[i : i + 2] if not _is_identity_atom(a)]
            i = max(i - 1, 0)
        else:
            i += 1
    return MapWord(atoms)


def concat(*words: WordLike) -> MapWord:
    """Concatenate words (composition in word order: leftmost applied last)."""
    out: List[Atom] = []
    for w in words:
        out.extend(_atoms(w))
    return MapWord(out)


def word_power(word: WordLike, n: int) -> MapWord:
    """The word repeated n times (inverse word repeated |n| times if n < 0)."""
    if n == 0:
        return MapWord(())
    base = _atoms(word) if n > 0 else _atoms(inverse(word))
    return MapWord(base * abs(n))


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------


def u_block(k: int, a: complex) -> List[Atom]:
    """The twisted-shear block (z1, z2) -> (b_{-a}(z1)^k z2, z1), as atoms."""
    if int(k) != k or k < 1:
        raise ValueError("u_block requires an integer k >= 1")
    return [atom_G(0, a)] + [atom_F()] * int(k) + [atom_R(), atom_G(-complex(a), 0)]


def w_block(k: int, a: complex) -> List[Atom]:
    """The block (z1, z2) -> (b_a(z2) z1^k, z1), as atoms."""
    if int(k) != k or k < 1:
        raise ValueError("w_block requires an integer k >= 1")
    return [atom_F()] * int(k) + [atom_R(), atom_G(0, complex(a))]


def psi_word(ks: Sequence[int], params: Sequence[complex], s: int = 0) -> MapWord:
    """Product of u-blocks, optionally prefixed by the antipode I11.

    ``ks`` are the shear exponents and ``params`` the disk parameters, one per
    block; block i is applied i-th from the right.
    """
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    ks = [int(k) for k in ks]
    params = [complex(a) for a in params]
    if len(ks) != len(params) or not ks:
        raise ValueError("need equally many exponents and parameters, at least one")
    atoms: List[Atom] = [atom_I(1, 1)] * s
    for k, a in zip(ks, params):
        atoms.extend(u_block(k, a))
    return MapWord(atoms)


def xi_word(ks: Sequence[int], a: complex, s: int = 0) -> MapWord:
    """Product of w-blocks with a single disk parameter on the last block."""
    if s not in (0, 1):
        raise ValueError("s must be 0 or 1")
    ks = [int(k) for k in ks]
    if len(ks) < 2:
        raise ValueError("need at least two blocks")
    atoms: List[Atom] = [atom_I(1, 1)] * s
    for k in ks[:-1]:
        atoms.extend(w_block(k, 0))
    atoms.extend(w_block(ks[-1], complex(a)))
    return MapWord(atoms)
