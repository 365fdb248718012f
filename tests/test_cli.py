"""Exit codes, report shapes, and byte stability of the command line."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torspec import cli
from torspec.operator_numerics import _sort_eigenvalues


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_resonances_cat_word(capsys):
    code, report = run_json(capsys, "resonances", "--word", "F . R")
    assert code == 0
    assert report["schema"] == 1
    assert report["eigenvalues"] == [[1, 0, 1]]
    assert report["decay"] == {"d": 0, "eta": None}
    assert report["case"] == {"l1": "EP", "lm1": "ER"}
    assert report["omega"] == -1


def test_resonances_report_shape(capsys):
    code, report = run_json(capsys, "resonances", "--word", "U(1,0.5) . U(1,0.3)")
    assert code == 0
    assert set(report) == {
        "schema", "word", "weight", "case", "omega",
        "multipliers", "cutoff", "eigenvalues", "decay",
    }
    assert set(report["multipliers"]) == {"--", "++", "-+", "+-"}
    assert report["weight"]["P"] == [[1, 0], [0, 1]]
    assert report["weight"]["tuned"] is True
    assert report["weight"]["t_forward"] > 0
    # leading entries: 1, then the two multiplier moduli with conjugate doubling
    head = report["eigenvalues"][:3]
    assert head[0] == [1, 0, 1]
    assert {(round(e[0], 12), e[2]) for e in head[1:]} == {(0.5, 2), (0.3, 2)}
    assert report["decay"]["d"] == 2


def test_resonances_merges_copies_of_one_value(capsys):
    # copies of one eigenvalue that differ in their last bits form one entry,
    # even when other values of the same modulus sort between them
    code, report = run_json(
        capsys, "resonances", "--word", "U(1,0.5) . U(2,0.3i) . U(1,0.4)", "--cutoff", "1e-5"
    )
    assert code == 0
    assert [e[2] for e in report["eigenvalues"]] == [1, 2, 2, 3, 5, 6, 6, 9, 7, 10, 10]
    assert report["eigenvalues"][3][:2] == [0.018, 0]


def test_resonances_parse_error_exit_2(capsys):
    code = cli.main(["resonances", "--word", "G(1.5,0)"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_resonances_certification_failure_exit_3(capsys):
    code, report = run_json(capsys, "resonances", "--word", "I00")
    assert code == 3
    assert report["error"] == "certification-failed"
    assert report["certificate"]["passed"] is False
    assert len(report["certificate"]["witnesses"]) >= 1


def test_resonances_verified(capsys):
    code, report = run_json(
        capsys, "resonances", "--word", "U(1,0.5) . U(1,0.3)",
        "--verify", "--band", "8", "--cutoff", "0.01",
    )
    assert code == 0
    v = report["verify"]
    assert v["verified"] is True
    assert v["max_rel_err"] < 1e-8
    assert v["unmatched_predicted"] == []
    assert v["matched"] > 20


def test_resonances_three_block_word_verified(capsys):
    # a chain of three u_blocks is built in closed form, with exact entries;
    # the grid route did not converge on it by grid 512
    code, report = run_json(
        capsys, "resonances", "--word",
        "U(2,-0.3451-0.0808i) . U(3,0.4868+0.3066i) . U(1,0.2642+0.5935i)",
        "--verify", "--band", "8",
    )
    assert code == 0
    v = report["verify"]
    assert (v["verified"], v["converged"], v["grid"]) == (True, True, 33)
    assert v["matched"] == 25 and v["max_rel_err"] <= 1e-13


def test_resonances_verify_mismatch_exit_4(capsys):
    # band 4 cannot resolve predictions near the cutoff
    code, report = run_json(
        capsys, "resonances", "--word", "U(1,0.5) . U(1,0.3)",
        "--verify", "--band", "4", "--cutoff", "0.001",
    )
    assert code == 4
    assert report["verify"]["verified"] is False


def test_resonances_fixed_point_failure_exit_2(capsys):
    # the word certifies, then the sector (-1, -1) iteration does not converge
    word = (
        "F . R . Finv . G(-0.23111887563107736-0.13845647653183457i,"
        "0.14288457398717036-0.2709094325504661i) . F . F . F . F"
    )
    assert cli.main(["resonances", "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "torspec: error: no convergence for sector (-1, -1) after 200 iterations\n"


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_resonances_rejects_bad_tolerance(capsys, tolerance):
    code = cli.main(["resonances", "--word", "F . R", "--verify", "--tolerance", tolerance])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_check_psi_passes(capsys):
    code, report = run_json(capsys, "check", "--word", "U(2,0.4) . U(1,0.2)", "--grid", "16")
    assert code == 0
    assert report["passed"] is True
    assert report["margin"] > 0
    assert report["witnesses"] == []


def test_check_cat_word_fails(capsys):
    code, report = run_json(capsys, "check", "--word", "F . R", "--grid", "16")
    assert code == 3
    assert report["passed"] is False
    assert len(report["witnesses"]) >= 1


def test_check_single_block_fails(capsys):
    # one-block words map the cone edge onto the other edge: margin 0, no pass
    code, report = run_json(capsys, "check", "--word", "I11 . U(2,0.4)", "--grid", "16")
    assert code == 3
    assert report["margin"] <= 0
    assert report["margin"] > -1e-12
    assert report["criterion"] is not None


def test_check_grid_too_small(capsys):
    code = cli.main(["check", "--word", "F . R", "--grid", "4"])
    assert code == 2


def test_reduce_fibonacci(capsys):
    code, report = run_json(capsys, "reduce", "--matrix", "[[2,1],[1,1]]")
    assert code == 0
    assert report["factors"] == [1, 1]
    assert report["sign_flips"] == 0
    assert report["conjugator"] == [[1, 0], [0, 1]]
    assert report["standard"] == [[2, 1], [1, 1]]


_CAT_33 = "[[44945570212853,27777890035288],[27777890035288,17167680177565]]"


def test_reduce_and_build_cat_map_33rd_power(capsys):
    # a product of 66 blocks [[1,1],[1,0]]: the exponents are read off in one pass
    code, report = run_json(capsys, "reduce", "--matrix", _CAT_33)
    assert code == 0
    assert report["factors"] == [1] * 66
    assert report["sign_flips"] == 0 and report["conjugator"] == [[1, 0], [0, 1]]
    code, report = run_json(capsys, "build", "--matrix", _CAT_33, "--decay", "stretched", "--eta", "1.0")
    assert code == 0
    assert report["standard_form"]["factors"] == [1] * 66
    assert report["decay_dimension"] == 2 and abs(report["eta"] - 1.0) < 1e-6


def test_build_refuses_a_rate_where_a_modulus_underflows(capsys):
    argv = ["build", "--matrix", "[[6361,120],[53,1]]", "--decay", "stretched", "--eta", "360"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "torspec: error: a multiplier modulus underflows near the parameter for rate 360\n"


def test_build_exponential_where_the_range_probe_underflows(capsys):
    # every multiplier modulus underflows at the range probe a = 1e-6, which
    # reads no rate there; before, the comparison with it raised a TypeError
    argv = ["build", "--matrix", "[[6361,120],[53,1]]", "--decay", "exponential", "--eta"]
    code, report = run_json(capsys, *argv, "1.0")
    assert code == 0
    assert report["parameter"] == 0.9834714538216174 and report["decay_dimension"] == 1
    assert cli.main(argv + ["1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "torspec: error: a multiplier modulus underflows near the parameter for rate 1000\n"


def test_reduce_rejects_parabolic(capsys):
    assert cli.main(["reduce", "--matrix", "[[1,1],[0,1]]"]) == 2


def test_reduce_rejects_bad_json(capsys):
    assert cli.main(["reduce", "--matrix", "[[2,1],[1"]) == 2
    assert cli.main(["reduce", "--matrix", "[[2.5,1],[1,1]]"]) == 2
    assert cli.main(["reduce", "--matrix", "[[2,1],[1,true]]"]) == 2


_INT64_MAX = 2 ** 63 - 1


def test_reduce_int64_bounds(capsys):
    code, report = run_json(capsys, "reduce", "--matrix", f"[[{_INT64_MAX},1],[-1,0]]")
    assert code == 0
    assert report["sign_flips"] == 0
    assert report["factors"] == [1, _INT64_MAX - 2]
    code, report = run_json(capsys, "reduce", "--matrix", f"[[{-_INT64_MAX - 1},1],[1,0]]")
    assert code == 0
    assert report["matrix"] == [[-_INT64_MAX - 1, 1], [1, 0]]


@pytest.mark.parametrize("matrix", [f"[[{_INT64_MAX + 1},1],[-1,0]]", f"[[{-_INT64_MAX - 2},1],[1,0]]"])
def test_reduce_rejects_entries_beyond_int64(capsys, matrix):
    assert cli.main(["reduce", "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("torspec: error: matrix entry ")


def test_build_rejects_entries_beyond_int64(capsys):
    # rejected before any word is built: its blocks would expand to 2^63 atoms
    argv = ["build", "--matrix", f"[[{_INT64_MAX + 1},1],[-1,0]]", "--decay", "stretched", "--eta", "1.0"]
    assert cli.main(argv) == 2
    assert "does not fit in int64" in capsys.readouterr().err


def test_build_rejects_words_over_the_atom_budget(capsys):
    # one block of 999 shears: a 1002-atom word, refused before it is expanded
    argv = ["build", "--matrix", "[[999,1],[1,0]]", "--decay", "stretched", "--eta", "1.0"]
    assert cli.main(argv) == 2
    assert "atoms, over the budget of 1000" in capsys.readouterr().err


def test_build_stretched(capsys):
    code, report = run_json(
        capsys, "build", "--matrix", "[[2,1],[1,1]]", "--decay", "stretched", "--eta", "1.0",
    )
    assert code == 0
    assert report["decay_dimension"] == 2
    assert abs(report["eta"] - 1.0) < 1e-6
    assert 0 < report["parameter"] < 1
    assert report["report"]["decay"]["d"] == 2


def test_build_word_verifies_in_closed_form(capsys):
    # four blocks framed by R . I11 and R: the closed form reads them with no
    # grid (grid 4 band + 1), where the grid route was still moving at grid 640
    code, built = run_json(capsys, "build", "--matrix", "[[-3,-7],[-8,-19]]", "--decay", "stretched", "--eta", "1.0")
    assert code == 0
    code, report = run_json(capsys, "resonances", "--word", built["word"], "--verify", "--band", "10")
    assert code == 0
    verify = report["verify"]
    assert verify["grid"] == 41 and verify["converged"] and verify["verified"]
    assert verify["matched"] == 47 and verify["max_rel_err"] < 1e-13


def test_build_trivial(capsys):
    code, report = run_json(capsys, "build", "--matrix", "[[2,1],[1,1]]", "--decay", "trivial")
    assert code == 0
    assert report["decay_dimension"] == 0
    assert report["eta"] is None
    assert report["report"]["eigenvalues"] == [[1, 0, 1]]


def test_build_rejects_swap(capsys):
    assert cli.main(["build", "--matrix", "[[0,1],[1,0]]", "--decay", "trivial"]) == 2


def test_build_infeasible_eta(capsys):
    assert cli.main(["build", "--matrix", "[[2,1],[1,1]]", "--decay", "stretched", "--eta", "1e9"]) == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the chart fixed-point iteration of this build's word "
    "meets '0 * inf inside a shear (atom index 17)' and the command exits 2",
)
@pytest.mark.parametrize("eta", ["0.9", "1.0", "1.408"])
def test_build_mixed_sign_stretched(capsys, eta):
    argv = ["build", "--matrix", "[[-1,-2],[-1,-1]]", "--decay", "stretched", "--eta", eta]
    assert cli.main(argv) == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: the fixed t ladder of the sector-mapping search finds "
    "no certifying t near the parabolic parameter, so the command exits 3",
)
def test_resonances_near_parabolic(capsys):
    assert cli.main(["resonances", "--word", "U(1,0.95) . U(1,0.95)"]) == 0


def test_spectrum_stdout(capsys):
    code, out = run(capsys, "spectrum", "--word", "F . F . R", "--band", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,modulus"
    assert lines[1] == "1,0,1"
    assert len(lines) == 1 + 81
    # automorphism word: every other eigenvalue is exactly zero
    assert all(line == "0,0,0" for line in lines[2:])


def test_spectrum_files(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    plot = tmp_path / "plot.csv"
    code = cli.main([
        "spectrum", "--word", "U(1,0.5) . U(1,0.3)", "--band", "4",
        "--out", str(out), "--plot-data", str(plot),
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "re,im,modulus"
    plot_rows = plot.read_text().strip().split("\n")
    assert plot_rows[0] == "index,modulus,sqrt_index,neglog"
    assert plot_rows[1] == "1,1,1,0"
    values = [complex(float(re), float(im)) for re, im, _ in (r.split(",") for r in rows[1:])]
    moduli = [float(r.split(",")[1]) for r in plot_rows[1:]]
    assert moduli == [abs(v) for v in values]
    # largest modulus first up to ties at a relative 1e-12, which go by
    # argument: the rows are in the canonical order of their own values
    assert all(abs(w) <= abs(v) * (1 + 2e-12) for v, w in zip(values, values[1:]))
    assert list(_sort_eigenvalues(np.array(values[::-1]))) == values


def test_embed_report(capsys):
    code, report = run_json(
        capsys, "embed", "--alpha", "0.3,0.3", "--gamma", "0.5,0.5",
        "--alpha-out", "0.5,0.5", "--gamma-out", "0.3,0.3", "--band", "25",
    )
    assert code == 0
    assert report["gaps"] == {"same": [0.2, 0.2], "mixed": [0.2, 0.2]}
    assert report["count"] == 2 * 25 * 25 + 2 * 25 + 1
    assert report["eta_formula"] == pytest.approx(1.0 / 50.0 ** 0.5)
    assert report["eta_fit"] == pytest.approx(report["eta_formula"], rel=0.02)


def test_embed_rejects_nonpositive_gap(capsys):
    for alpha, gamma_out in (("0.2,0.2", "0.4,0.4"), ("nan,0.3", "0.1,0.1"), ("0.2,0.2", "0.1,-inf")):
        code = cli.main([
            "embed", "--alpha", alpha, "--gamma", "0.2,0.2",
            "--alpha-out", "0.4,0.4", "--gamma-out", gamma_out,
        ])
        assert code == 2


_EMBED = ["embed", "--alpha", "0.3,0.3", "--gamma", "0.5,0.5", "--alpha-out", "0.1,0.1", "--gamma-out", "0.2,0.2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_EMBED[:2] + ["0.3"] + _EMBED[3:], "--alpha must be two comma-separated numbers, got '0.3'"),
        (_EMBED[:4] + ["0.5,0.5,0.5"] + _EMBED[5:], "--gamma must be two comma-separated numbers, got '0.5,0.5,0.5'"),
        (_EMBED[:8] + [""], "--gamma-out must be two comma-separated numbers, got ''"),
        (["resonances", "--word", "U(1,0.5) . U(1,0.3)", "--weight", "0.1,0.1,0.05"],
         "--weight must be 'auto' or four numbers a1,a2,g1,g2"),
        (["spectrum", "--word", "U(1,0.5) . U(1,0.3)", "--weight", "auto,1"],
         "--weight must be 'auto' or four numbers a1,a2,g1,g2"),
    ],
)
def test_refusals_exit_2(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"torspec: error: {message}\n"


def test_embed_underflowed_singular_values_exit_2(capsys):
    # exp(-399.7 |n|) underflows to 0 inside the fit window
    code = cli.main([
        "embed", "--alpha", "0.3,0.3", "--gamma", "0.5,0.5",
        "--alpha-out", "400,400", "--gamma-out", "0.3,0.3", "--band", "4",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "modulus at rank 18 is 0.0, not positive and finite" in captured.err


def test_embed_band_beyond_memory_exit_2(capsys):
    # the L1 ball of radius 3e6 has 1.8e13 modes: 262 TiB of int64 indices,
    # beyond a 47-bit user address space, so the allocation fails at once
    code = cli.main([
        "embed", "--alpha", "0.1,0.1", "--gamma", "0.3,0.3",
        "--alpha-out", "0.2,0.2", "--gamma-out", "0.2,0.2", "--band", "3000000",
    ])
    assert code == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_check_grid_beyond_memory_exit_2(capsys):
    # a 5e6 x 5e6 Jacobian plane takes 182 TiB, beyond a 47-bit user address
    # space, so the allocation fails at once
    code = cli.main(["check", "--word", "U(1,0.5) . U(1,0.3)", "--grid", "5000000"])
    assert code == 2
    assert "Unable to allocate" in capsys.readouterr().err


def test_reports_byte_stable(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        assert cli.main(["resonances", "--word", "I11 . U(2,0.4) . U(1,0.1)", "--out", str(p)]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_main_repeats_byte_identical(capsys):
    # the parser is built once per process; neither a parse nor a parse
    # error (argparse's SystemExit(2)) may leave anything behind in it
    calls = (
        ["resonances", "--word", "U(1,0.5) . U(1,0.3)"],
        ["reduce", "--matrix", "[[2,1],[1,1]]"],
        ["spectrum", "--word", "F . R", "--band", "2"],
    )
    first = [(cli.main(argv), capsys.readouterr()) for argv in calls]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["resonances", "--band", "3"])
        assert exc.value.code == 2
        assert "--word" in capsys.readouterr().err
        assert [(cli.main(argv), capsys.readouterr()) for argv in calls] == first
    assert [code for code, _ in first] == [0, 0, 0]


def test_render_json_tokens():
    assert cli.render_json({"x": 0.1}) == '{\n  "x": 0.10000000000000001\n}'
    assert cli.render_json([1, True, None]) == "[1, true, null]"
    assert cli.render_json(float("inf")) == '"inf"'
    assert cli.render_json(float("-inf")) == '"-inf"'
    assert cli.render_json(complex(1, -2)) == "[1, -2]"
    with pytest.raises(TypeError):
        cli.render_json(object())


def _reference_render_json(obj, indent=0):
    """render_json as it was: every value through one isinstance chain."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return cli._float_token(obj)
    if isinstance(obj, complex):
        return "[%s, %s]" % (cli._float_token(obj.real), cli._float_token(obj.imag))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        rows = ",\n".join(
            "%s%s: %s" % (pad, json.dumps(str(k)), _reference_render_json(v, indent + 1)) for k, v in obj.items()
        )
        return "{\n%s\n%s}" % (rows, "  " * indent)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [_reference_render_json(v, indent + 1) for v in obj]
        if any(isinstance(v, (dict, list, tuple)) for v in obj):
            pad = "  " * (indent + 1)
            return "[\n%s\n%s]" % (",\n".join(pad + p for p in parts), "  " * indent)
        return "[%s]" % ", ".join(parts)
    if hasattr(obj, "item"):
        return _reference_render_json(obj.item(), indent)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


report_floats = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308]),
)
report_ints = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
report_leaves = st.one_of(
    report_floats,
    report_ints,
    st.booleans(),
    st.none(),
    st.text(alphabet=st.one_of(st.sampled_from('"\\/\n\t\u00e9\u2028\U0001f600'), st.characters()), max_size=6),
    st.builds(complex, report_floats, report_floats),
    report_floats.map(np.float64),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def report_rows(draw):
    """Rows of one type signature of floats and ints, at times with one field of another leaf."""
    kinds = draw(st.lists(st.sampled_from([report_floats, report_ints]), max_size=4))
    rows = [[draw(kind) for kind in kinds] for _ in range(draw(st.integers(1, 5)))]
    if kinds and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(kinds) - 1))] = draw(report_leaves)
    return [tuple(row) if draw(st.booleans()) else row for row in rows]


report_trees = st.recursive(
    st.one_of(report_leaves, report_rows()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), children, max_size=4),
    ),
    max_leaves=24,
)


@given(report_trees, st.integers(0, 3))
@example([[0.5, -0.0, 2], [1e-310, 3.0, -1]], 0)
@example({"rows": [[1.0, math.inf], [2.0, 3.0]], "mixed": [[1, 2.0], [1.0, 2]]}, 1)
@settings(max_examples=400, deadline=None)
def test_render_json_matches_the_isinstance_chain(tree, indent):
    assert cli.render_json(tree, indent) == _reference_render_json(tree, indent)


def test_explicit_weight_flag(capsys):
    code, report = run_json(
        capsys, "resonances", "--word", "U(1,0.5) . U(1,0.3)",
        "--weight", "0.1,0.1,0.05,0.05",
    )
    assert code == 0
    assert report["weight"]["alpha"] == [0.1, 0.1]
    assert report["weight"]["gamma"] == [0.05, 0.05]
    assert report["weight"]["tuned"] is False
