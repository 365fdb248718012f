"""Tests of the benchmark itself, not of torspec.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _argv_lists(workload, seed, count=6):
    source = workloads.rounds(workload, seed)
    return [[item.argv for item in next(source)] for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_argv_list(workload):
    assert _argv_lists(workload, 7) == _argv_lists(workload, 7)
    assert _argv_lists(workload, 7) != _argv_lists(workload, 8)


def test_predict_runs_a_round_count_the_clock_does_not_change():
    args = run.argparse.Namespace(workload="predict", seed=4, seconds=2.0)
    source, seconds = run.workload_rounds(workloads, args)
    assert seconds == float("inf")
    assert len(list(source)) == workloads.round_limit("predict", 2.0) == 3
    for workload in ("verify", "spectrum", "certify"):
        assert workloads.round_limit(workload, 2.0) is None


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_are_restored_after_the_traced_pass():
    cli = run.load_program()
    modules = tracing.program_modules()
    before = {id(m): dict(vars(m)) for m in modules}
    original_main = cli.main
    tracer = tracing.Tracer()
    item = next(workloads.rounds("predict", 3))[-1]  # a reduce call
    with tracer.installed():
        assert cli.main is not original_main
        # the importing module's binding is wrapped, not only the defining one
        assert cli.auto_weight is not before[id(cli)]["auto_weight"]
        checks = sys.modules["torspec.dynamics_checks"]
        assert checks.lifted_jacobian is not before[id(checks)]["lifted_jacobian"]
        call = run.execute(cli, item)
    assert call.code == 0
    recorded = tracer.span_count
    assert recorded > 0
    for m in modules:
        now = vars(m)
        for name, value in before[id(m)].items():
            assert now[name] is value, "%s.%s was not restored" % (m.__name__, name)
    run.execute(cli, item)
    assert tracer.span_count == recorded


def _last_two_lines(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "predict", "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    report, result = _last_two_lines(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: v["unit"] for name, v in result["metrics"].items()}
    assert printed == declared
    if trace == 0:
        for name in ("item_tail_s", "fail_ratio", "refused_ratio"):
            assert name in report["end_to_end"]
        for fact in ("nproc", "python", "numpy", "scipy", "blas_caps", "seed"):
            assert fact in report["facts"]


def test_oracles_reject_altered_outputs():
    cli = run.load_program()
    resonances, *_, reduce_item = next(workloads.rounds("predict", 5))
    call = run.execute(cli, resonances)
    assert oracles.judge(resonances, call.code, call.stdout, call.stderr) == ("ok", "")
    report = json.loads(call.stdout)
    report["eigenvalues"][1][0] *= 1.0 + 1e-6
    assert oracles.judge(resonances, 0, json.dumps(report), "")[0] == "wrong"

    call = run.execute(cli, reduce_item)
    report = json.loads(call.stdout)
    report["factors"] = report["factors"][::-1] + [1]
    assert oracles.judge(reduce_item, 0, json.dumps(report), "")[0] == "wrong"


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19)[0] is None
    value, p, beyond = run.tail([float(i) for i in range(200)])
    assert (p, beyond) == (95, 10) and value == 189.0
