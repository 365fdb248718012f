"""Spans around the torspec layer entry points, recorded from outside the program.

`Tracer.installed()` replaces each function named in `LAYERS` by a wrapper
in every torspec module that holds it.  `cli`, `dynamics_checks`,
`fixed_points` and the others bind imported names at import time, so the
wrapper has to go into the importing module's attribute, not just the
defining module's; leaving the context puts every original back.

A span is (name, start, end, parent, item).  Spans stay in flat arrays in
memory until the run ends and are folded into per-layer metrics only then.
Self time is a span's duration minus the durations of its child spans,
which nest strictly because the loop is single-threaded.
"""

from __future__ import annotations

import contextlib
import math
import sys
import tracemalloc
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# module -> public entry points that get a span
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cli": ("main", "render_json"),
    "map_algebra": ("parse_word", "evaluate", "lifted_jacobian"),
    "cone_geometry": ("sample_torus",),
    "fixed_points": ("all_fixed_point_data",),
    "gl2z": ("reduce", "build_homotopic_map"),
    "resonance_theory": ("enumerate_eigenvalues", "decay_classification"),
    "operator_numerics": ("assemble_operator", "operator_spectrum", "match_spectra", "write_spectrum_csv"),
    "dynamics_checks": ("auto_weight", "classify_mapping", "check_psec"),
}

# (metric, unit) in output order; every trace run prints all of them, with
# zero for layers the workload never reaches
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("operator_numerics.assemble_operator.s", "s"),
    ("operator_numerics.assemble_operator.self_s", "s"),
    ("operator_numerics.assemble_operator.self_share", "1"),
    ("operator_numerics.assemble_operator.calls", "count"),
    ("operator_numerics.assemble_operator.grids_tried", "count"),
    ("operator_numerics.assemble_operator.grid_points", "count"),
    ("operator_numerics.assemble_operator.converged_ratio", "1"),
    ("operator_numerics.assemble_operator.peak_alloc_mb", "MB"),
    ("operator_numerics.operator_spectrum.s", "s"),
    ("operator_numerics.match_spectra.s", "s"),
    ("operator_numerics.match_spectra.max_rel_err", "1"),
    ("operator_numerics.write_spectrum_csv.s", "s"),
    ("dynamics_checks.check_psec.s", "s"),
    ("dynamics_checks.check_psec.share", "1"),
    ("dynamics_checks.check_psec.calls", "count"),
    ("dynamics_checks.check_psec.points", "count"),
    ("map_algebra.lifted_jacobian.s", "s"),
    ("map_algebra.lifted_jacobian.calls", "count"),
    ("dynamics_checks.auto_weight.s", "s"),
    ("dynamics_checks.auto_weight.share", "1"),
    ("dynamics_checks.auto_weight.calls", "count"),
    ("dynamics_checks.auto_weight.refused", "count"),
    ("dynamics_checks.classify_mapping.s", "s"),
    ("dynamics_checks.classify_mapping.calls", "count"),
    ("dynamics_checks.classify_mapping.t_steps", "count"),
    ("dynamics_checks.classify_mapping.useful_ratio", "1"),
    ("map_algebra.evaluate.s", "s"),
    ("map_algebra.evaluate.calls", "count"),
    ("cone_geometry.sample_torus.s", "s"),
    ("cone_geometry.sample_torus.calls", "count"),
    ("fixed_points.all_fixed_point_data.s", "s"),
    ("fixed_points.all_fixed_point_data.calls", "count"),
    ("gl2z.reduce.s", "s"),
    ("gl2z.build_homotopic_map.s", "s"),
    ("resonance_theory.decay_classification.s", "s"),
    ("resonance_theory.decay_classification.calls", "count"),
    ("resonance_theory.enumerate_eigenvalues.s", "s"),
    ("resonance_theory.enumerate_eigenvalues.entries", "count"),
    ("cli.render_json.s", "s"),
    ("cli.render_json.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("map_algebra.parse_word.s", "s"),
    ("items.s", "s"),
    ("trace.overhead_s", "s"),
)

Hook = Callable[["Tracer", object, Optional[BaseException], bool, tuple, dict], None]


def _assemble_hook(tracer, result, exc, nested, args, kwargs):
    if exc is not None:
        return
    # nominal work from the public result: grids double from max(8*band, 64)
    first = max(8 * result.band, 64)
    tried = int(round(math.log2(result.grid / first))) + 1
    tracer.counts["operator_numerics.assemble_operator.grids_tried"] += tried
    tracer.counts["operator_numerics.assemble_operator.grid_points"] += sum(
        (first * 2 ** i) ** 2 for i in range(tried)
    )
    tracer.counts["operator_numerics.assemble_operator.converged"] += bool(result.converged)


def _match_hook(tracer, result, exc, nested, args, kwargs):
    if exc is None:
        key = "operator_numerics.match_spectra.max_rel_err"
        tracer.counts[key] = max(tracer.counts[key], float(result.max_rel_err))


def _check_hook(tracer, result, exc, nested, args, kwargs):
    if exc is None:
        tracer.counts["dynamics_checks.check_psec.points"] += result.grid ** 2


def _auto_weight_hook(tracer, result, exc, nested, args, kwargs):
    if exc is not None:
        tracer.counts["dynamics_checks.auto_weight.refused"] += 1


def _classify_hook(tracer, result, exc, nested, args, kwargs):
    if exc is not None:
        return
    t_search = kwargs.get("t_search", args[5] if len(args) > 5 else False)
    # with t_search the scale is halved from 0.5 until a case certifies
    steps = int(round(math.log2(0.5 / result.t))) + 1 if t_search else 1
    tracer.counts["dynamics_checks.classify_mapping.t_steps"] += steps
    tracer.counts["dynamics_checks.classify_mapping.useful"] += result.case != "FAIL"


def _enumerate_hook(tracer, result, exc, nested, args, kwargs):
    if exc is None:
        tracer.counts["resonance_theory.enumerate_eigenvalues.entries"] += len(result)


def _render_hook(tracer, result, exc, nested, args, kwargs):
    if exc is None and not nested:
        tracer.counts["cli.render_json.bytes"] += len(result)


HOOKS: Dict[str, Hook] = {
    "operator_numerics.assemble_operator": _assemble_hook,
    "operator_numerics.match_spectra": _match_hook,
    "dynamics_checks.check_psec": _check_hook,
    "dynamics_checks.auto_weight": _auto_weight_hook,
    "dynamics_checks.classify_mapping": _classify_hook,
    "resonance_theory.enumerate_eigenvalues": _enumerate_hook,
    "cli.render_json": _render_hook,
}

# tracemalloc slows every allocation, so it runs only inside these calls
PEAK_ALLOC = ("operator_numerics.assemble_operator",)


def program_modules() -> List[object]:
    return [m for name, m in sorted(sys.modules.items()) if name == "torspec" or name.startswith("torspec.")]


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self.item_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook: Optional[Hook]):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        if name in PEAK_ALLOC:
            fn = self._with_peak_alloc(name, fn)

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            nested = parent >= 0 and self.name_id[parent] == nid
            self.name_id.append(nid)
            self.parent.append(parent)
            self.item.append(self.item_id)
            self.end.append(0.0)
            stack.append(idx)
            result = exc = None
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(self, result, exc, nested, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _with_peak_alloc(self, name: str, fn):
        key = name + ".peak_alloc_mb"

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                self.counts[key] = max(self.counts[key], peak)

        return measured

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function in every torspec module; restore on exit."""
        modules = program_modules()
        try:
            for module_name, functions in LAYERS.items():
                home = sys.modules["torspec." + module_name]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    name = "%s.%s" % (module_name, fn_name)
                    wrapper = self._wrap(name, original, HOOKS.get(name))
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patches.append((module, attr, original))
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def metrics(self, item_seconds: float, overhead_s: float) -> Dict[str, float]:
        """Per-layer metrics, in PER_LAYER order."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        inclusive: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_id[i]]
            self_time[name] += duration[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.name_id[p] != self.name_id[i]:
                inclusive[name] += duration[i]
                calls[name] += 1

        values: Dict[str, float] = {}
        for name in self.names:
            values[name + ".s"] = inclusive[name]
            values[name + ".self_s"] = self_time[name]
            values[name + ".calls"] = calls[name]
        values.update(self.counts)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        assemble = "operator_numerics.assemble_operator"
        classify = "dynamics_checks.classify_mapping"
        values[assemble + ".self_share"] = ratio(self_time[assemble], item_seconds)
        values[assemble + ".converged_ratio"] = ratio(values.get(assemble + ".converged", 0), calls[assemble])
        values[classify + ".useful_ratio"] = ratio(
            values.get(classify + ".useful", 0), values.get(classify + ".t_steps", 0)
        )
        for name in ("dynamics_checks.check_psec", "dynamics_checks.auto_weight"):
            values[name + ".share"] = ratio(inclusive[name], item_seconds)
        values["items.s"] = item_seconds
        values["trace.overhead_s"] = overhead_s
        return {metric: float(values.get(metric, 0.0)) for metric, _ in PER_LAYER}

    def largest_subtree(self) -> Tuple[str, float]:
        """The layer function with the most time directly under cli.main."""
        totals: Dict[str, float] = defaultdict(float)
        main = self.names.index("cli.main")
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.name_id[p] == main:
                totals[self.names[self.name_id[i]]] += self.end[i] - self.start[i]
        if not totals:
            return "", 0.0
        name = max(totals, key=totals.get)
        return name, totals[name]

    @property
    def span_count(self) -> int:
        return len(self.start)
