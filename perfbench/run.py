#!/usr/bin/env python3
"""torspec benchmark: the real CLI in process, one client, closed loop.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ./src.  Each
item is one `torspec.cli.main(argv)` call with stdout captured, and the
next call starts only when the last one has returned.  The loop runs whole
rounds of items (see workloads.py) until `--seconds` have passed (`predict`
runs a fixed number of rounds sized from `--seconds` instead), then the
oracles judge every output outside the timed region.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same items twice, untraced and then with spans around every layer
entry point, and prints the per-layer metrics plus the tracing overhead
(traced wall time minus untraced wall time).  The line before the result
is a report with the machine facts, outcome counts and the end-to-end
metrics that are not in the result (item_tail_s, fail_ratio,
refused_ratio).  The last line is the result object.
"""

import os

# One interpreter thread runs the loop; cap BLAS below nproc before numpy loads.
BLAS_CAPS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_CAPS)

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 7
TAIL_BEYOND = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import torspec, torspec.cli; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Call:
    item: object
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float


def load_program():
    """Import torspec from ./src of this checkout, nowhere else."""
    if not (SRC / "torspec" / "__init__.py").is_file():
        sys.exit("perfbench: no torspec sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import torspec.cli

    if Path(torspec.__file__).resolve().parent != SRC / "torspec":
        sys.exit("perfbench: imported torspec from %s, not from ./src" % torspec.__file__)
    return torspec.cli


def measure_setup() -> float:
    """Median wall time of `import torspec, torspec.cli` in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", IMPORT_PROBE]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(command, env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first process may still be writing bytecode caches
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def execute(cli, item) -> Call:
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(item.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return Call(item, code, out.getvalue(), err.getvalue(), seconds)


def closed_loop(cli, rounds: Iterable[list], seconds: float) -> Tuple[List[Call], List[list], float]:
    """Run whole rounds until `seconds` have passed or the rounds run out."""
    calls: List[Call] = []
    used: List[list] = []
    start = time.perf_counter()
    for items in rounds:
        used.append(items)
        for item in items:
            calls.append(execute(cli, item))
        if time.perf_counter() - start >= seconds:
            break
    return calls, used, time.perf_counter() - start


def workload_rounds(workloads, args) -> Tuple[Iterable[list], float]:
    """The rounds of one run and the clock limit that ends it."""
    source = workloads.rounds(args.workload, args.seed)
    limit = workloads.round_limit(args.workload, args.seconds)
    if limit is None:
        return source, args.seconds
    return itertools.islice(source, limit), math.inf


def tail(times: List[float]) -> Tuple[Optional[float], Optional[int], int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    p = min(99, math.floor(100 * (1 - TAIL_BEYOND / n))) if n else 0
    if p < 50:
        return None, None, n
    rank = math.ceil(p * n / 100)
    return sorted(times)[rank - 1], p, n - rank


def machine_facts(args) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_caps": BLAS_CAPS,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "client": "closed loop, 1 client, 1 thread",
    }


def judge_all(oracles, calls: List[Call]) -> List[Tuple[str, str]]:
    return [oracles.judge(c.item, c.code, c.stdout, c.stderr) for c in calls]


def summarize(calls: List[Call], outcomes, wall: float) -> dict:
    counts = {k: sum(1 for o, _ in outcomes if o == k) for k in ("ok", "refused", "failed", "wrong")}
    ok_times = [c.seconds for c, (o, _) in zip(calls, outcomes) if o == "ok"]
    tail_value, tail_p, beyond = tail(ok_times)
    return {
        "counts": counts,
        "attempted": len(calls),
        "failed": counts["failed"] + counts["wrong"],
        "ok_per_s": counts["ok"] / wall,
        "item_p50_s": statistics.median(ok_times or [c.seconds for c in calls]),
        "tail": (tail_value, tail_p, beyond),
        "problems": [
            {"argv": list(c.item.argv), "outcome": o, "reason": why[:200]}
            for c, (o, why) in zip(calls, outcomes)
            if o in ("failed", "wrong")
        ],
    }


def strata_seconds(calls: List[Call]) -> dict:
    """Median item time per stratum, to show that a round's cost mix is fixed."""
    by: dict = {}
    for c in calls:
        by.setdefault(c.item.stratum, []).append(c.seconds)
    return {k: round(statistics.median(v), 4) for k, v in sorted(by.items())}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_untraced(args, cli, workloads, oracles, facts) -> Tuple[str, str]:
    setup_s = measure_setup()
    calls, used, wall = closed_loop(cli, *workload_rounds(workloads, args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = judge_all(oracles, calls)
    s = summarize(calls, outcomes, wall)
    tail_value, tail_p, beyond = s["tail"]
    metrics = {
        "ok_per_s": {"value": s["ok_per_s"], "unit": "items/s"},
        "item_p50_s": {"value": s["item_p50_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    extra = {
        "item_tail_s": (
            {"value": tail_value, "unit": "s", "percentile": tail_p, "beyond": beyond}
            if tail_value is not None
            else {"value": None, "unit": "s", "omitted": "fewer than %d passing items" % (2 * TAIL_BEYOND)}
        ),
        "fail_ratio": {"value": s["failed"] / s["attempted"], "unit": "1"},
        "refused_ratio": {"value": s["counts"]["refused"] / s["attempted"], "unit": "1"},
    }
    report = {
        "workload": args.workload,
        "trace": 0,
        "facts": facts,
        "rounds": len(used),
        "wall_s": wall,
        "outcomes": s["counts"],
        "end_to_end": dict(metrics, **extra),
        "stratum_median_s": strata_seconds(calls),
        "problems": s["problems"],
    }
    return json.dumps({"report": report}), result_line(s["counts"]["wrong"] == 0, s["attempted"], s["failed"], metrics)


def run_traced(args, cli, workloads, oracles, tracing, facts) -> Tuple[str, str]:
    plain, used, plain_wall = closed_loop(cli, *workload_rounds(workloads, args))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, _, traced_wall = closed_loop(cli, iter(used), math.inf)
    outcomes_plain = judge_all(oracles, plain)
    outcomes = judge_all(oracles, traced)
    s = summarize(traced, outcomes, traced_wall)
    item_seconds = sum(c.seconds for c in traced)
    overhead = traced_wall - plain_wall
    values = tracer.metrics(item_seconds, overhead)
    units = dict(tracing.PER_LAYER)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    largest, largest_s = tracer.largest_subtree()
    report = {
        "workload": args.workload,
        "trace": 1,
        "facts": facts,
        "rounds": len(used),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "tracing_overhead_s": overhead,
        "note": "per-layer times come from the traced pass and include its overhead; "
        "end-to-end numbers come only from --trace 0 runs",
        "waiting": "omitted: one thread, no queue, so no layer waits on another",
        "spans": tracer.span_count,
        "largest_subtree_under_cli_main": {"name": largest, "s": largest_s},
        "outcomes": s["counts"],
        "problems": s["problems"],
    }
    wrong = s["counts"]["wrong"] + sum(1 for o, _ in outcomes_plain if o == "wrong")
    return json.dumps({"report": report}), result_line(wrong == 0, s["attempted"], s["failed"], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "spectrum", "certify", "predict"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    import oracles
    import tracing
    import workloads

    facts = machine_facts(args)
    if args.trace:
        report, result = run_traced(args, cli, workloads, oracles, tracing, facts)
    else:
        report, result = run_untraced(args, cli, workloads, oracles, facts)
    print(report)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
