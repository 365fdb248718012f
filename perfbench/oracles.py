"""Output oracles: a second route to every number the benchmark checks.

They run after the timed loop.  Each one judges a finished CLI call from its
exit code and captured output (see `judge`).  Only an exit 3 from weight
tuning is a refusal; a crash, exit 2 on these valid inputs, exit 4, or
output that disagrees with the oracle is a failure.

The eigenvalue lists are enumerated here from the closed-form multipliers
of the two-block twisted-shear words, and the degree matrix and the GL2(Z)
identities are recomputed in integer arithmetic, so a defect in the
program's enumeration, matching or reduction cannot also pass its check.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

import numpy as np

from torspec.resonance_theory import closed_form_multipliers_psi

SECTOR_KEYS = {(-1, -1): "--", (1, 1): "++", (-1, 1): "-+", (1, -1): "+-"}

_MULTIPLIER_TOL = 1e-9
_VALUE_REL_TOL = 1e-9
_MATCH_REL_TOL = 1e-6  # the CLI's default --tolerance
_ETA_TOL = 1e-6
_MARGIN_ZERO = 1e-12
_NONZERO = 1e-8
# resolve_cases, behind auto_weight, raises CertificationError with this text
_TUNING_REFUSAL = "could not certify the"
SPECTRUM_FLOOR = 1e-3


class Mismatch(Exception):
    """The output disagrees with the oracle."""


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


# ---------------------------------------------------------------------------
# Independent closed-form spectrum of U(k1,a) . U(k2,b)
# ---------------------------------------------------------------------------


def _lattice(c1: complex, c2: complex, floor: float, start: int) -> List[complex]:
    """c1^i c2^j over i, j >= start (origin excluded) with modulus >= floor."""
    out = []
    i = start
    while True:
        lead = c1 ** i
        if abs(lead) < floor or (i > start and c1 == 0):
            break
        j = start
        while True:
            value = lead * c2 ** j
            if abs(value) < floor or (j > start and c2 == 0):
                break
            if i or j:
                out.append(value)
            j += 1
        i += 1
    return out


def two_block_spectrum(ks, params, floor: float) -> List[complex]:
    """Resonances of modulus >= floor, one entry per multiplicity.

    Both directions of a two-block word without antipode classify as "EP"
    and the word preserves orientation, so the list is 1, the products of
    the same-sign multipliers over the nonnegative lattice, the products of
    the mixed multipliers over the positive lattice, and their conjugates.
    """
    sectors = closed_form_multipliers_psi(ks, params, 0)
    lam = sectors[(-1, -1)]
    mu = sectors[(-1, 1)]
    values = [1.0 + 0j]
    for v in _lattice(lam[0], lam[1], floor, 0) + _lattice(mu[0], mu[1], floor, 1):
        values.extend((v, v.conjugate()))
    return values


def _flatten_entries(entries) -> np.ndarray:
    flat = []
    for re, im, mult in entries:
        flat.extend([complex(float(re), float(im))] * int(mult))
    return np.array(flat, dtype=complex)


def _same_multiset(got: np.ndarray, want: np.ndarray, floor: float, what: str) -> None:
    """Equal multisets up to a relative tolerance, ignoring the cutoff seam."""
    seam_lo, seam_hi = floor * (1 - 1e-9), floor * (1 + 1e-9)
    got = got[(np.abs(got) < seam_lo) | (np.abs(got) > seam_hi)]
    want = want[(np.abs(want) < seam_lo) | (np.abs(want) > seam_hi)]
    _require(len(got) == len(want), "%s: %d values, expected %d" % (what, len(got), len(want)))
    if not len(got):
        return
    dist = np.abs(got[:, None] - want[None, :]) / np.abs(want)[None, :]
    _require(
        float(dist.min(axis=0).max()) <= _VALUE_REL_TOL and float(dist.min(axis=1).max()) <= _VALUE_REL_TOL,
        "%s: values differ from the closed form" % what,
    )


def _greedy_match(expected: List[complex], computed: np.ndarray, floor: float) -> Tuple[float, int]:
    """Worst relative error and count of computed strays >= 2*floor."""
    used = np.zeros(len(computed), dtype=bool)
    worst = 0.0
    for p in sorted((v for v in expected if abs(v) >= floor), key=lambda v: -abs(v)):
        dist = np.abs(computed - p)
        dist[used] = np.inf
        i = int(np.argmin(dist))
        if not np.isfinite(dist[i]):
            return np.inf, 0
        used[i] = True
        worst = max(worst, float(dist[i]) / abs(p))
    strays = int(np.sum(~used & (np.abs(computed) >= 2.0 * floor)))
    return worst, strays


# ---------------------------------------------------------------------------
# Integer matrix helpers
# ---------------------------------------------------------------------------


def _mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _as_mat(rows):
    return ((int(rows[0][0]), int(rows[0][1])), (int(rows[1][0]), int(rows[1][1])))


_ATOM_DEGREE = {
    "F": ((1, 1), (0, 1)),
    "Finv": ((1, -1), (0, 1)),
    "R": ((0, 1), (1, 0)),
    "I00": ((1, 0), (0, 1)),
    "I01": ((1, 0), (0, -1)),
    "I10": ((-1, 0), (0, 1)),
    "I11": ((-1, 0), (0, -1)),
}


def degree_matrix(word_text: str):
    """Degree matrix of a written-out word: product of atom matrices in word order."""
    acc = ((1, 0), (0, 1))
    for atom in word_text.split(" . "):
        atom = atom.strip()
        if atom.startswith("G("):
            continue  # Blaschke twists have trivial degree
        acc = _mul(acc, _ATOM_DEGREE[atom])
    return acc


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------


def _check_resonances_predict(item, report) -> None:
    _require(report["case"] == {"l1": "EP", "lm1": "EP"}, "case is not EP/EP")
    _require(report["omega"] == 1, "orientation is not +1")
    closed = closed_form_multipliers_psi(item.ks, item.params, 0)
    for sigma, key in SECTOR_KEYS.items():
        got = sorted((complex(*v) for v in report["multipliers"][key]), key=lambda z: (z.real, z.imag))
        want = sorted(closed[sigma], key=lambda z: (z.real, z.imag))
        _require(
            all(abs(g - w) <= _MULTIPLIER_TOL for g, w in zip(got, want)) and len(got) == 2,
            "sector %s multipliers differ from the closed form" % key,
        )
    cutoff = float(report["cutoff"])
    want = np.array(two_block_spectrum(item.ks, item.params, cutoff), dtype=complex)
    _same_multiset(_flatten_entries(report["eigenvalues"]), want, cutoff, "eigenvalues")


def _check_verify(item, report) -> None:
    verify = report["verify"]
    _require(verify["verified"] is True, "verified is not true")
    _require(verify["converged"] is True, "operator did not converge")
    _require(verify["band"] == item.band, "band differs from the request")
    expected = len(two_block_spectrum(item.ks, item.params, float(verify["floor"])))
    _require(verify["matched"] == expected, "matched %d, expected %d" % (verify["matched"], expected))


def _check_build(item, report) -> None:
    _require(_as_mat(report["matrix"]) == item.matrix, "matrix echo differs")
    _require(degree_matrix(report["word"]) == item.matrix, "word degree matrix differs from the input")
    _require(report["decay_dimension"] == 2, "stretched decay is not two-dimensional")
    _require(abs(float(report["eta"]) - item.eta) <= _ETA_TOL, "eta misses the target")
    nested = report["report"]
    _require(abs(float(nested["decay"]["eta"]) - item.eta) <= _ETA_TOL, "fixed-point eta misses the target")
    _require(nested["eigenvalues"][0] == [1, 0, 1], "leading eigenvalue is not a simple 1")


def _check_reduce(item, report) -> None:
    q = _as_mat(report["conjugator"])
    det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    _require(det in (1, -1), "conjugator is not unimodular")
    q_inv = ((det * q[1][1], -det * q[0][1]), (-det * q[1][0], det * q[0][0]))
    product = ((1, 0), (0, 1))
    for k in report["factors"]:
        _require(int(k) >= 1, "block exponent below 1")
        product = _mul(product, ((int(k), 1), (1, 0)))
    if report["sign_flips"]:
        product = tuple(tuple(-v for v in row) for row in product)
    _require(_as_mat(report["standard"]) == product, "standard form is not the block product")
    _require(_mul(_mul(q, item.matrix), q_inv) == product, "conjugation does not give the standard form")


def _check_certificate(item, report, code) -> None:
    should_pass = len(item.ks) >= 2
    _require(report["passed"] is should_pass, "verdict %s for %d blocks" % (report["passed"], len(item.ks)))
    _require(code == (0 if should_pass else 3), "exit %s does not match the verdict" % code)
    if should_pass:
        _require(float(report["margin"]) > 0, "passing margin is not positive")
    else:
        _require(abs(float(report["margin"])) <= _MARGIN_ZERO, "single-block margin is not 0")
        _require(len(report["witnesses"]) > 0, "failing certificate has no witnesses")


def _read_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "re,im,modulus", "CSV header missing")
    values = []
    for line in lines[1:]:
        re, im, _ = line.split(",")
        values.append(complex(float(re), float(im)))
    return np.array(values, dtype=complex)


def _check_spectrum(item, text) -> None:
    values = _read_csv(text)
    _require(len(values) == (2 * item.band + 1) ** 2, "eigenvalue count is not the mode count")
    _require(abs(values[0] - 1.0) <= 1e-9, "leading eigenvalue is not 1")
    if item.ks:
        expected = two_block_spectrum(item.ks, item.params, SPECTRUM_FLOOR)
        worst, strays = _greedy_match(expected, values, SPECTRUM_FLOOR)
        _require(worst <= _MATCH_REL_TOL, "transfer spectrum misses the closed form (%.3g)" % worst)
        _require(strays == 0, "%d transfer eigenvalues match nothing" % strays)
    else:
        nonzero = int(np.sum(np.abs(values) > _NONZERO))
        _require(nonzero == 1, "linear word has %d nonzero eigenvalues" % nonzero)


def judge(item, code: Optional[int], stdout: str, stderr: str) -> Tuple[str, str]:
    """Outcome of one finished call and the reason when it is not "ok".

    Outcomes: "ok"; "refused" (exit 3 from weight tuning); "failed" (crash or
    exit 2 on these valid inputs); "wrong" (exit 4, or output that disagrees
    with the oracle).  "failed" and "wrong" both count as failures.
    """
    if code is None:
        return "failed", "crash: " + (stderr.strip().splitlines() or ["?"])[-1]
    command = item.argv[0]
    if code == 3 and command != "check" and _TUNING_REFUSAL in stdout + stderr:
        return "refused", "weight tuning refused the word"
    if code == 2:
        return "failed", "exit 2: " + stderr.strip()
    try:
        if command == "spectrum":
            _require(code == 0, "exit %s" % code)
            _check_spectrum(item, stdout)
            return "ok", ""
        report = json.loads(stdout)
        if command == "check":
            _check_certificate(item, report, code)
            return "ok", ""
        _require(code == 0, "exit %s" % code)
        if command == "resonances" and item.workload == "verify":
            _check_verify(item, report)
        elif command == "resonances":
            _check_resonances_predict(item, report)
        elif command == "build":
            _check_build(item, report)
        else:
            _check_reduce(item, report)
    except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", str(exc)
    return "ok", ""
