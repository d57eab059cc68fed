"""Per-layer tracing of `arrr`, installed from outside the package.

`install()` wraps each public function listed in SPANS at every module-level
binding in `arrr` that refers to it, and fails (CoverageError) when a listed
function is missing or a reference to it is left unwrapped. Each call records
one span [name, start, end, parent, error, extra] in memory; the worker writes
the list out when its CLI call ends. `pass_metrics()` turns the spans of one
pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
import types
from typing import Dict, List, Tuple

import numpy as np

# (module, function) -> span name. The span name's first part is the layer.
SPANS = {
    ("spectral", "decompose"): "spectral.decompose",
    ("spectral", "truncate_rank"): "spectral.truncate_rank",
    ("spectral", "select_gap_rank"): "spectral.select_gap_rank",
    ("spectral", "select_threshold_rank"): "spectral.select_threshold_rank",
    ("spectral", "angle_matrix"): "spectral.angle_matrix",
    ("estimator", "estimate_noise_sigma"): "estimator.pilot",
    ("estimator", "step1_pca_x"): "estimator.stage1",
    ("estimator", "step2_pca_denoise"): "estimator.stage2",
    ("estimator", "fit_adaptive_rrr"): "estimator.fit",
    ("estimator", "save_model"): "estimator.save_model",
    ("estimator", "load_model"): "estimator.load_model",
    ("estimator", "predict"): "estimator.predict",
    ("baselines", "fit_baseline"): "baselines.fit",
    ("baselines", "validate_hyperparams"): "baselines.validate",
    ("baselines", "predict_linear"): "baselines.predict_linear",
    ("synth", "make_instance"): "synth.make_instance",
    ("synth", "gen_dataset"): "synth.gen_dataset",
    ("synth", "gen_covariance"): "synth.gen_covariance",
    ("synth", "gen_coefficients"): "synth.gen_coefficients",
    ("synth", "gen_design"): "synth.gen_design",
    ("metrics", "evaluate"): "metrics.evaluate",
    ("metrics", "recovered_rank_of"): "metrics.recovered_rank",
    ("metrics", "merge_splits"): "metrics.merge_splits",
    ("dataio", "load_panel_csv"): "dataio.load_panel",
    ("dataio", "make_features"): "dataio.make_features",
    ("dataio", "rolling_splits"): "dataio.rolling_splits",
    ("_serde", "write_matrix_csv"): "serde.write",
    ("_serde", "read_matrix_csv"): "serde.read",
    ("packing", "build_family"): "packing.build_family",
    ("packing", "verify_packing"): "packing.verify",
    ("cli", "main"): "cli.main",
    ("cli", "write_results"): "cli.write_results",
}
BASELINE_METHODS = ("ridge", "rrr", "reduced_rank_ridge", "pcr", "lasso", "nuclear")
# Sum of layer self times plus cli.self_s must equal cli.main wall time
# within this share; they differ only if spans fail to nest.
ATTRIBUTION_TOLERANCE = 1e-6


class CoverageError(RuntimeError):
    """A traced function is missing, or a binding of it escaped wrapping."""


def _size(path) -> int:
    return os.path.getsize(path)


# span name -> (args, kwargs, result) -> extra payload recorded with the span
EXTRAS = {
    "spectral.decompose": lambda a, k, r: list(np.shape(a[0] if a else k["a"])),
    "baselines.fit": lambda a, k, r: [r.method.method, int(r.iterations_used), bool(r.converged)],
    "dataio.load_panel": lambda a, k, r: _size(a[0] if a else k["path"]),
    "serde.write": lambda a, k, r: _size(a[0] if a else k["path"]),
    "serde.read": lambda a, k, r: _size(a[0] if a else k["path"]),
    "cli.write_results": lambda a, k, r: _size(r),
}


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(self, fn, name):
        spans, stack, extra = self.spans, self.stack, EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced


def _arrr_modules() -> List[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "arrr" or n.startswith("arrr.")) and m is not None]


def _escaped(originals: Dict[int, str], wrappers: Dict[int, object]) -> List[str]:
    """Places in the arrr modules that still hold an unwrapped target:
    module attributes, module-level containers, and the defaults and
    closures of module-level functions and class members."""
    found = []
    traced = {id(w) for w in wrappers.values()}

    def check(where, value):
        if id(value) in originals:
            found.append("%s -> %s" % (where, originals[id(value)]))

    def check_function(where, fn):
        for v in (fn.__defaults__ or ()):
            check(where + " default", v)
        for v in (fn.__kwdefaults__ or {}).values():
            check(where + " kwdefault", v)
        for cell in (fn.__closure__ or ()):
            try:
                check(where + " closure", cell.cell_contents)
            except ValueError:  # empty cell
                pass

    for mod in _arrr_modules():
        for attr, value in vars(mod).items():
            where = "%s.%s" % (mod.__name__, attr)
            check(where, value)
            if id(value) in traced:
                continue
            if isinstance(value, dict):
                for v in value.values():
                    check(where + "[]", v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    check(where + "[]", v)
            elif isinstance(value, types.FunctionType):
                check_function(where, value)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    check(where + "." + name, member)
                    if isinstance(member, types.FunctionType):
                        check_function(where + "." + name, member)
    return found


def install() -> Recorder:
    """Wrap every SPANS target at every binding; raise CoverageError on a gap."""
    rec = Recorder()
    wrappers: Dict[int, object] = {}
    originals: Dict[int, str] = {}
    missing = []
    for (module, func), name in SPANS.items():
        mod = importlib.import_module("arrr." + module)
        fn = getattr(mod, func, None)
        if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
            missing.append("arrr.%s.%s" % (module, func))
            continue
        wrappers[id(fn)] = rec.wrap(fn, name)
        originals[id(fn)] = "arrr.%s.%s" % (module, func)
    if missing:
        raise CoverageError("traced functions not found: %s" % ", ".join(missing))
    for mod in _arrr_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and isinstance(value, types.FunctionType):
                setattr(mod, attr, wrappers[id(value)])
    escaped = _escaped(originals, wrappers)
    if escaped:
        raise CoverageError("unwrapped bindings: %s" % "; ".join(escaped))
    return rec


# ------------------------------------------------------------ aggregation


def svd_flops(m: int, n: int) -> float:
    """Flop count of a thin SVD with both factors (R-SVD, Golub & Van Loan):
    6*m*n^2 + 20*n^3 for m >= n. Computed from shapes, not measured."""
    m, n = max(m, n), min(m, n)
    return 6.0 * m * n * n + 20.0 * n ** 3


def _self_times(spans: List[list]) -> Tuple[List[float], List[str]]:
    """Self time of each span and any span not nested under cli.main."""
    child = [0.0] * len(spans)
    problems = []
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
        elif name != "cli.main":
            problems.append("span %s ran outside cli.main" % name)
    return [s[2] - s[1] - c for s, c in zip(spans, child)], problems


def pass_metrics(workers: List[List[list]]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one pass from the span lists of its workers."""
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    errors: Dict[str, int] = {}
    extras: Dict[str, list] = {}
    main_wall, problems = 0.0, []
    for worker_spans in workers:
        selfs, bad = _self_times(worker_spans)
        problems += bad
        for span, own in zip(worker_spans, selfs):
            name = span[0]
            if name == "baselines.fit":
                name = "baselines." + span[5][0] if span[5] else name
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if span[4] is not None:
                key = "%s:%s" % (name, span[4])
                errors[key] = errors.get(key, 0) + 1
            if span[5] is not None:
                extras.setdefault(name, []).append(span[5])
            if name == "cli.main":
                main_wall += span[2] - span[1]
    attributed = sum(self_s.values())
    if abs(attributed - main_wall) > ATTRIBUTION_TOLERANCE * max(main_wall, 1e-9):
        problems.append("layer self times sum to %.9f s, cli.main took %.9f s"
                        % (attributed, main_wall))

    c = lambda n: float(calls.get(n, 0))
    s = lambda n: self_s.get(n, 0.0)
    total = lambda n: float(sum(extras.get(n, [])))
    m: Dict[str, float] = {}
    m["spectral.decompose.calls"] = c("spectral.decompose")
    m["spectral.decompose.self_s"] = s("spectral.decompose")
    m["spectral.svd_flops"] = sum(svd_flops(*shape) for shape in extras.get("spectral.decompose", []))
    m["spectral.truncate_rank.calls"] = c("spectral.truncate_rank")
    m["spectral.self_s"] = sum(v for k, v in self_s.items() if k.startswith("spectral."))
    for short in ("pilot", "stage1", "stage2"):
        m["estimator.%s.calls" % short] = c("estimator." + short)
        m["estimator.%s.self_s" % short] = s("estimator." + short)
    m["estimator.fit.calls"] = c("estimator.fit")
    nogap = errors.get("estimator.fit:NoGapError", 0)
    m["estimator.nogap_ratio"] = nogap / c("estimator.fit") if calls.get("estimator.fit") else 0.0
    for short in ("save_model", "load_model", "predict"):
        m["estimator.%s.self_s" % short] = s("estimator." + short)
    fits = 0
    for method in BASELINE_METHODS:
        name = "baselines." + method
        runs = extras.get(name, [])
        fits += len(runs)
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = s(name)
        m[name + ".iters"] = float(sum(r[1] for r in runs))
        m[name + ".nonconverged"] = float(sum(1 for r in runs if not r[2]))
    m["baselines.validate.calls"] = c("baselines.validate")
    m["baselines.validate.self_s"] = s("baselines.validate")
    m["baselines.fits_per_selection"] = fits / c("baselines.validate") if calls.get("baselines.validate") else 0.0
    for name in ("synth.make_instance", "synth.gen_dataset",
                 "metrics.evaluate", "metrics.recovered_rank"):
        m[name + ".calls"] = c(name)
        m[name + ".self_s"] = s(name)
    m["dataio.load_panel.self_s"] = s("dataio.load_panel")
    m["dataio.load_panel.bytes"] = total("dataio.load_panel")
    m["dataio.make_features.self_s"] = s("dataio.make_features")
    for name in ("serde.write", "serde.read"):
        m[name + ".calls"] = c(name)
        m[name + ".bytes"] = total(name)
        m[name + ".self_s"] = s(name)
    m["packing.build_family.self_s"] = s("packing.build_family")
    m["packing.verify.self_s"] = s("packing.verify")
    m["cli.self_s"] = s("cli.main")
    m["cli.write_results.self_s"] = s("cli.write_results")
    m["cli.write_results.bytes"] = total("cli.write_results")
    m["trace.unattributed_share"] = s("cli.main") / main_wall if main_wall > 0 else 0.0
    return m, problems


def is_count(metric: str) -> bool:
    """Counts must repeat exactly across passes; times are summarized by median."""
    return not (metric.endswith("_s") or metric.startswith("trace."))


def combine(per_pass: List[Dict[str, float]]) -> Tuple[Dict[str, float], List[str]]:
    """Median of each time over the traced passes; counts must agree exactly."""
    out, problems = {}, []
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        if is_count(key):
            if len(set(values)) != 1:
                problems.append("%s differs between traced passes: %s" % (key, values))
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out, problems
