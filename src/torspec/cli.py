"""Command line front end.

Subcommands:

  resonances   closed-form eigenvalue report for a word, optionally verified
               against a truncated operator matrix
  check        sampled cone-invariance certificate for a word
  reduce       exact block standard form of a hyperbolic integer matrix
  build        synthesize a word homotopic to a matrix with a chosen decay
  spectrum     eigenvalues of the truncated operator as CSV
  embed        singular values and rate fit for a weight-space embedding

All reports are JSON with a top-level "schema": 1 and floats printed with
%.17g, so identical inputs give byte-identical output.  Exit codes: 0 ok,
2 bad input, an input too large to hold in memory, or a sector fixed point
that cannot be located, 3 certification failed, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .cone_geometry import QuadrantWeight, sigma_key
from .dynamics_checks import (
    CertificationError,
    MappingCase,
    auto_weight,
    check_psec,
    resolve_cases,
)
from .fixed_points import FixedPointError, all_fixed_point_data
from .gl2z import TargetInfeasible, build_homotopic_map, reduce as reduce_matrix
from .map_algebra import orientation, parse_word, word_to_text
from .operator_numerics import (
    assemble_operator,
    match_spectra,
    operator_spectrum,
    write_spectrum_csv,
)
from .resonance_theory import (
    decay_classification,
    embedding_eta_formula,
    embedding_gaps,
    embedding_singular_values,
    enumerate_eigenvalues,
    fit_stretched_rate,
    spectrum_model_from_fixed_points,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CERTIFICATION = 3
EXIT_VERIFY = 4

_MIN_CHECK_GRID = 8


# ---------------------------------------------------------------------------
# Deterministic JSON rendering
# ---------------------------------------------------------------------------


def _float_token(x: float) -> str:
    # non-finite values are not valid JSON numbers; ship them as strings
    x = float(x)
    if math.isfinite(x):
        return "%.17g" % x
    return '"%s"' % repr(x)


# the token of a value of one of these types, looked up by its exact type first
_TOKENS = {
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    int: str,
    float: _float_token,
    complex: lambda z: "[%s, %s]" % (_float_token(z.real), _float_token(z.imag)),
    str: json.dumps,
}
_ROW_FIELDS = {float: "%.17g", int: "%d"}


def _row_block(rows, indent: int) -> Optional[str]:
    """A list of same-typed flat rows of finite floats and ints, written with one row template.

    The template forms each field as its token does.  None for any other
    list, which `render_json` then writes element by element.
    """
    first = rows[0]
    if type(first) is not list and type(first) is not tuple:
        return None
    kinds = tuple(map(type, first))
    fields = [_ROW_FIELDS.get(kind) for kind in kinds]
    if None in fields:
        return None
    for row in rows:
        if (type(row) is not list and type(row) is not tuple) or tuple(map(type, row)) != kinds:
            return None
    template = "  " * (indent + 1) + "[" + ", ".join(fields) + "]"
    text = ",\n".join([template] * len(rows)) % tuple(v for row in rows for v in row)
    # %.17g writes inf and nan with an "n", a finite float or an int never
    if "n" in text:
        return None
    return "[\n%s\n%s]" % (text, "  " * indent)


def render_json(obj, indent: int = 0) -> str:
    """Render nested dicts/lists with stable float formatting."""
    token = _TOKENS.get(type(obj))
    if token is not None:
        return token(obj)
    # bool and None have no subclasses; numpy's float64 is a float
    for kind in (int, float, complex, str):
        if isinstance(obj, kind):
            return _TOKENS[kind](obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        rows = ",\n".join(
            "%s%s: %s" % (pad, json.dumps(str(k)), render_json(v, indent + 1)) for k, v in obj.items()
        )
        return "{\n%s\n%s}" % (rows, "  " * indent)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        block = _row_block(obj, indent)
        if block is not None:
            return block
        parts = [render_json(v, indent + 1) for v in obj]
        if any(isinstance(v, (dict, list, tuple)) for v in obj):
            pad = "  " * (indent + 1)
            return "[\n%s\n%s]" % (",\n".join(pad + p for p in parts), "  " * indent)
        return "[%s]" % ", ".join(parts)
    # numpy scalars and anything else with a clean float view
    if hasattr(obj, "item"):
        return render_json(obj.item(), indent)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _emit(report, out: Optional[str]) -> None:
    text = render_json(report) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _re_im(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# Shared input parsing
# ---------------------------------------------------------------------------


def _parse_matrix(text: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(f"matrix must be JSON such as [[2,1],[1,1]], got {text!r}")
    if (
        not isinstance(raw, list)
        or len(raw) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in raw)
        or any(not isinstance(v, int) or isinstance(v, bool) for row in raw for v in row)
    ):
        raise ValueError("matrix must be a 2x2 array of integers")
    return ((raw[0][0], raw[0][1]), (raw[1][0], raw[1][1]))


def _parse_float_pair(text: str, name: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{name} must be two comma-separated numbers, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _resolve_weight(word, spec: str, need_cases: bool):
    """Weight from the --weight flag: 'auto' tunes one, else a1,a2,g1,g2."""
    if spec == "auto":
        weight, cases = auto_weight(word)
        return weight, cases, True
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError("--weight must be 'auto' or four numbers a1,a2,g1,g2")
    vals = [float(p) for p in parts]
    weight = QuadrantWeight.standard((vals[0], vals[1]), (vals[2], vals[3]))
    cases = resolve_cases(word) if need_cases else None
    return weight, cases, False


# ---------------------------------------------------------------------------
# Report builders
# ---------------------------------------------------------------------------


def _weight_dict(weight: QuadrantWeight, cases: Optional[MappingCase], tuned: bool) -> dict:
    out = {
        "P": [list(row) for row in weight.basis],
        "alpha": list(weight.alpha),
        "gamma": list(weight.gamma),
        "tuned": tuned,
    }
    if cases is not None:
        out["t_forward"] = cases.forward.t
        out["t_backward"] = cases.backward.t
    return out


def _certificate_dict(report) -> dict:
    return {
        "passed": report.passed,
        "margin": report.margin,
        "grid": report.grid,
        "criterion": report.criterion,
        "witnesses": [
            {"x": list(w["x"]), "kind": w["kind"], "value": w["value"]} for w in report.witnesses
        ],
    }


def _resonance_payload(word, weight, cases, cutoff, tuned):
    """Fixed points, closed-form model and enumeration of a word: its report and entries."""
    data = all_fixed_point_data(word, cases)
    model = spectrum_model_from_fixed_points(data, orientation(word))
    entries = enumerate_eigenvalues(model, cutoff)
    d, eta = decay_classification(model)
    payload = {
        "schema": SCHEMA,
        "word": word_to_text(word),
        "weight": _weight_dict(weight, cases, tuned),
        "case": {"l1": cases.forward.case, "lm1": cases.backward.case},
        "omega": model.omega,
        "multipliers": {
            sigma_key(rec.sigma): [_re_im(m) for m in rec.multipliers] for rec in data.records
        },
        "cutoff": cutoff,
        "eigenvalues": [[e.value.real, e.value.imag, e.multiplicity] for e in entries],
        "decay": {"d": d, "eta": eta},
    }
    return payload, entries


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_resonances(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be a positive finite number, got {args.tolerance!r}")
    word = parse_word(args.word)
    try:
        weight, cases, tuned = _resolve_weight(word, args.weight, need_cases=True)
    except CertificationError as exc:
        report = {
            "schema": SCHEMA,
            "word": word_to_text(word),
            "error": "certification-failed",
            "message": str(exc),
            "certificate": _certificate_dict(check_psec(word, grid=32)),
        }
        _emit(report, args.out)
        return EXIT_CERTIFICATION

    report, entries = _resonance_payload(word, weight, cases, args.cutoff, tuned)

    code = EXIT_OK
    if args.verify:
        operator = assemble_operator(word, weight, args.band, force=args.force)
        computed = operator_spectrum(operator)
        match = match_spectra(entries, computed, floor=args.cutoff)
        # computed strays below twice the cutoff are truncation noise, not a mismatch
        strays = [c for c in match.unmatched_computed if abs(c) >= 2.0 * args.cutoff]
        verified = (
            not match.unmatched_predicted
            and not strays
            and match.max_rel_err <= args.tolerance
        )
        report["verify"] = {
            "band": operator.band,
            "grid": operator.grid,
            "converged": operator.converged,
            "floor": args.cutoff,
            "tolerance": args.tolerance,
            "matched": len(match.pairs),
            "max_rel_err": match.max_rel_err,
            "unmatched_predicted": [_re_im(v) for v in match.unmatched_predicted],
            "unmatched_computed": [_re_im(v) for v in strays],
            "verified": verified,
        }
        if not verified:
            code = EXIT_VERIFY
    _emit(report, args.out)
    return code


def _cmd_check(args) -> int:
    if args.grid < _MIN_CHECK_GRID:
        raise ValueError(f"grid too small: need at least {_MIN_CHECK_GRID}, got {args.grid}")
    word = parse_word(args.word)
    report = check_psec(word, grid=args.grid)
    payload = {"schema": SCHEMA, "word": word_to_text(word)}
    payload.update(_certificate_dict(report))
    _emit(payload, args.out)
    return EXIT_OK if report.passed else EXIT_CERTIFICATION


def _cmd_reduce(args) -> int:
    matrix = _parse_matrix(args.matrix)
    form = reduce_matrix(matrix)
    report = {
        "schema": SCHEMA,
        "matrix": [list(row) for row in matrix],
        "sign_flips": form.sign_flips,
        "factors": list(form.factors),
        "conjugator": [list(row) for row in form.conjugator],
        "standard": [list(row) for row in form.standard_matrix()],
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    matrix = _parse_matrix(args.matrix)
    built = build_homotopic_map(matrix, args.decay, eta=args.eta)

    word = built.word
    weight, cases = auto_weight(word)
    report = {
        "schema": SCHEMA,
        "matrix": [list(row) for row in matrix],
        "decay": args.decay,
        "eta_target": args.eta,
        "word": word_to_text(word),
        "parameter": built.parameter,
        "decay_dimension": built.decay_dimension,
        "eta": built.eta,
        "standard_form": {
            "sign_flips": built.standard_form.sign_flips,
            "factors": list(built.standard_form.factors),
            "conjugator": [list(row) for row in built.standard_form.conjugator],
        },
        "report": _resonance_payload(word, weight, cases, args.cutoff, True)[0],
    }
    _emit(report, args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    word = parse_word(args.word)
    weight, _, _ = _resolve_weight(word, args.weight, need_cases=False)
    operator = assemble_operator(word, weight, args.band, kind=args.kind, force=args.force)
    values = operator_spectrum(operator)
    if args.out:
        write_spectrum_csv(args.out, values)
    else:
        write_spectrum_csv(sys.stdout, values)
    if args.plot_data:
        write_spectrum_csv(args.plot_data, values, plot_data=True)
    return EXIT_OK


def _cmd_embed(args) -> int:
    alpha = _parse_float_pair(args.alpha, "--alpha")
    gamma = _parse_float_pair(args.gamma, "--gamma")
    alpha_out = _parse_float_pair(args.alpha_out, "--alpha-out")
    gamma_out = _parse_float_pair(args.gamma_out, "--gamma-out")
    same, mixed = embedding_gaps(alpha, gamma, alpha_out, gamma_out)
    values = embedding_singular_values(alpha, gamma, alpha_out, gamma_out, args.band)
    count = len(values)
    lo = max(2, min(100, count // 4))
    hi = min(7000, count)
    slope, intercept = fit_stretched_rate(values, lo, hi)
    report = {
        "schema": SCHEMA,
        "alpha": list(alpha),
        "gamma": list(gamma),
        "alpha_out": list(alpha_out),
        "gamma_out": list(gamma_out),
        "band": args.band,
        "gaps": {"same": list(same), "mixed": list(mixed)},
        "count": count,
        "fit_ranks": [lo, hi],
        "eta_fit": slope,
        "eta_formula": embedding_eta_formula(alpha, gamma, alpha_out, gamma_out),
    }
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torspec",
        description="Closed-form resonance spectra of rational torus maps, with numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the report to this file instead of stdout")

    p = sub.add_parser("resonances", help="closed-form eigenvalue report for a word")
    p.add_argument("--word", required=True, help="generator word, e.g. 'U(1,0.5) . U(1,0.3)'")
    p.add_argument("--cutoff", type=float, default=1e-3, help="list eigenvalues of modulus >= this")
    p.add_argument("--weight", default="auto", help="'auto' or explicit a1,a2,g1,g2")
    p.add_argument("--verify", action="store_true", help="also diagonalize a truncated operator")
    p.add_argument("--band", type=int, default=10, help="truncation band for --verify")
    p.add_argument("--tolerance", type=float, default=1e-6, help="relative tolerance for --verify matches")
    p.add_argument("--force", action="store_true", help="allow bands above 16, where assembly time and memory grow fast")
    add_out(p)
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("check", help="sampled cone-invariance certificate")
    p.add_argument("--word", required=True)
    p.add_argument("--grid", type=int, default=64, help=f"sample grid per axis, at least {_MIN_CHECK_GRID}")
    add_out(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="block standard form of a hyperbolic matrix")
    p.add_argument("--matrix", required=True, help="2x2 integer matrix as JSON, e.g. [[2,1],[1,1]]")
    add_out(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("build", help="synthesize a word homotopic to a matrix with chosen decay")
    p.add_argument("--matrix", required=True, help="2x2 integer matrix as JSON")
    p.add_argument("--decay", required=True, choices=("trivial", "exponential", "stretched"))
    p.add_argument("--eta", type=float, help="target decay rate (required unless --decay trivial)")
    p.add_argument("--cutoff", type=float, default=1e-3, help="eigenvalue cutoff for the nested report")
    add_out(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("spectrum", help="truncated operator eigenvalues as CSV")
    p.add_argument("--word", required=True)
    p.add_argument("--band", type=int, default=8)
    p.add_argument("--weight", default="auto", help="'auto' or explicit a1,a2,g1,g2")
    p.add_argument("--kind", default="composition", choices=("composition", "transfer"))
    p.add_argument("--force", action="store_true", help="allow bands above 16, where assembly time and memory grow fast")
    p.add_argument("--plot-data", help="also write index/modulus/sqrt-index/-log columns to this file")
    p.add_argument("--out", help="write the CSV to this file instead of stdout")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("embed", help="singular values of a weight-space embedding")
    p.add_argument("--alpha", required=True, help="inner same-sign rates a1,a2")
    p.add_argument("--gamma", required=True, help="inner mixed-sign rates g1,g2")
    p.add_argument("--alpha-out", required=True, dest="alpha_out", help="outer same-sign rates")
    p.add_argument("--gamma-out", required=True, dest="gamma_out", help="outer mixed-sign rates")
    p.add_argument("--band", type=int, default=60, help="L1 radius of the mode ball")
    add_out(p)
    p.set_defaults(func=_cmd_embed)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TargetInfeasible, ArithmeticError, OSError, FixedPointError, MemoryError) as exc:
        print(f"torspec: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificationError as exc:
        print(f"torspec: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
