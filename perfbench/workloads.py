"""The four benchmark workloads: input generation, CLI invocations, cell
counts, and the per-workload output summaries that the output check uses.

Inputs are made here with numpy only, never with `arrr` code, so a change to
the program cannot change what the benchmark feeds it. Every input is a pure
function of (workload, seed, size).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

DEFAULT_SEED = 0
PANEL_STREAM = 7  # spawn key of the panel generator; frozen, it defines the inputs


@dataclass(frozen=True)
class Invocation:
    name: str             # label used in reports and failure messages
    argv: Tuple[str, ...]  # arguments to arrr.cli.main; "{out}" is the pass directory
    outputs: Tuple[str, ...]  # paths under the pass directory this call writes


@dataclass(frozen=True)
class Workload:
    cells: int
    invocations: Tuple[Invocation, ...]
    files: Dict[str, str]  # input file name -> contents, written before timing
    summarize: Callable[[str], Dict[str, object]]  # pass dir -> flat output record
    schema: Callable[[str], List[str]]             # pass dir -> problems found
    tolerance: Callable[[str], object]             # record key -> rule


# ------------------------------------------------------------ shared helpers


def _json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _read_rows(path: str) -> Tuple[List[str], List[Dict[str, str]]]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        return list(reader.fieldnames or []), list(reader)


def _csv_record(path: str, key_cols: Tuple[str, ...], prefix: str = "") -> Dict[str, object]:
    """Flatten a results.csv into {"<prefix><key>:<col>": value}.

    Columns holding integers stay ints, the rest become floats, and string
    columns (method, split, config_hash) stay strings.
    """
    _, rows = _read_rows(path)
    rec: Dict[str, object] = {}
    for r in rows:
        key = prefix + "|".join(r[c] for c in key_cols)
        for col, raw in r.items():
            if col in key_cols:
                continue
            try:
                val: object = int(raw)
            except ValueError:
                try:
                    val = float(raw)
                except ValueError:
                    val = raw
            rec["%s:%s" % (key, col)] = val
    return rec


def _header_problems(path: str, required: Tuple[str, ...], n_rows: int) -> List[str]:
    if not os.path.isfile(path):
        return ["missing %s" % os.path.basename(path)]
    header, rows = _read_rows(path)
    problems = []
    absent = [c for c in required if c not in header]
    if absent:
        problems.append("%s lacks columns %s" % (path, absent))
    if len(rows) != n_rows:
        problems.append("%s has %d rows, expected %d" % (path, len(rows), n_rows))
    return problems


# Exact: selections and identities. Direct solvers: last-few-ulp drift allowed
# (a factor-once rewrite moves results by ~1e-14). Iterative solvers (lasso,
# nuclear): a faster solver that stops at the same objective may move fitted
# coefficients by ~1e-3, so their scores get 1e-2; their recovered_rank counts
# singular values of a stopped iterate and is not compared.
EXACT = "exact"
DIRECT = (1e-9, 1e-12)
ITERATIVE = (1e-2, 1e-3)
SKIP = "skip"
SELECTION_COLS = {"k1", "k2", "mu", "rank", "recovered_rank", "seed", "n_obs", "fold",
                  "row", "col", "config_hash", "method", "split", "eta"}


def _direct_tolerance(key: str) -> object:
    return EXACT if key.rsplit(":", 1)[1] in SELECTION_COLS else DIRECT


def _per_seed_calls(kind: str, seeds: List[int], config: Callable[[int], dict]):
    """One `arrr <kind>` call per seed, each with its own config file and
    output directory. Returns (files, invocations, results path function)."""
    files, invocations = {}, []
    for s in seeds:
        files["%s-%d.json" % (kind, s)] = _json(config(s))
        invocations.append(Invocation(
            "%s-%d" % (kind, s), (kind, "--config", "%s-%d.json" % (kind, s),
                                  "--out", "{out}/%s/%d" % (kind, s)),
            ("%s/%d" % (kind, s),)))

    def results(out: str, s: int) -> str:
        return os.path.join(out, kind, str(s), "results.csv")

    return files, tuple(invocations), results


def _merged_records(results: Callable[[str, int], str], out: str, seeds: List[int],
                    key_cols: Tuple[str, ...]) -> Dict[str, object]:
    rec: Dict[str, object] = {}
    for s in seeds:
        rec.update(_csv_record(results(out, s), key_cols))
    return rec


# ------------------------------------------------------------ sweep-rankpath


SWEEP_HEADER = ("config_hash", "method", "eta", "k1", "k2", "seed",
                "recon_error", "mse_out", "corr_out")


def sweep_rankpath(seed: int, tiny: bool) -> Workload:
    if tiny:
        shape = {"d1": 20, "d2": 10, "n": 15, "rank_m": 5}
        k1s, k2s, n_seeds = [10, 15], [2, 4], 2
    else:
        shape = {"d1": 200, "d2": 100, "n": 150, "rank_m": 50}
        k1s, k2s, n_seeds = [100, 150], list(range(30, 71, 5)), 16
    seeds = [n_seeds * seed + i for i in range(n_seeds)]
    files, invocations, results = _per_seed_calls("sweep", seeds, lambda s: {
        "kind": "sweep",
        "synth": dict(shape, eta=0.25, seed=s),
        "grids": {"k1": k1s, "k2": k2s, "seeds": [s]},
        "fit": {"theta": 2.0, "sigma_eps": "oracle"},
    })
    per_call = len(k1s) * len(k2s)

    def schema(out: str) -> List[str]:
        problems = []
        for s in seeds:
            path = results(out, s)
            found = _header_problems(path, SWEEP_HEADER, per_call)
            if not found:
                _, rows = _read_rows(path)
                got = sorted((int(r["k1"]), int(r["k2"]), int(r["seed"])) for r in rows)
                if got != sorted((a, b, s) for a in k1s for b in k2s):
                    found.append("rows do not cover the (k1, k2, seed) grid")
                for r in rows:
                    vals = [float(r[c]) for c in ("recon_error", "mse_out", "corr_out")]
                    if not all(math.isfinite(v) for v in vals) or vals[0] < 0 or abs(vals[2]) > 1:
                        found.append("row %s has out-of-range scores" % r)
                        break
            problems += ["sweep-%d: %s" % (s, f) for f in found]
        return problems

    return Workload(
        cells=per_call * len(seeds),
        invocations=invocations,
        files=files,
        summarize=lambda out: _merged_records(results, out, seeds,
                                              ("method", "eta", "k1", "k2", "seed")),
        schema=schema,
        tolerance=_direct_tolerance,
    )


# ------------------------------------------------------------ compare-solvers


COMPARE_HEADER = ("config_hash", "method", "eta", "k1", "k2", "mu", "rank", "seed",
                  "mse_in", "mse_out", "r2_in", "r2_out", "corr_out",
                  "recon_error", "recovered_rank", "gap_out_in")
COMPARE_BASELINES = [
    {"method": "ridge", "mu": [0.1, 1.0, 10.0]},
    {"method": "rrr", "rank": [2, 5, 10]},
    {"method": "pcr", "rank": [5, 10, 20]},
    {"method": "reduced_rank_ridge", "mu": 1.0, "rank": 5},
    {"method": "lasso", "mu": [0.3, 1.0, 3.0]},
    {"method": "nuclear", "mu": [0.3, 1.0, 3.0]},
]
ITERATIVE_METHODS = ("lasso", "nuclear")


def compare_solvers(seed: int, tiny: bool) -> Workload:
    if tiny:
        shape = {"d1": 12, "d2": 6, "n": 20, "rank_m": 2}
        base = [{"method": "ridge", "mu": [0.1, 1.0]}, {"method": "rrr", "rank": [1, 2]},
                {"method": "pcr", "rank": [2, 4]},
                {"method": "reduced_rank_ridge", "mu": 1.0, "rank": 2},
                {"method": "lasso", "mu": [1.0]}, {"method": "nuclear", "mu": [1.0, 3.0]}]
    else:
        shape = {"d1": 60, "d2": 30, "n": 80, "rank_m": 5}
        base = COMPARE_BASELINES
    # Solver iterations depend on the data: one (eta, seed) cell varies by
    # about 18% in cost between seeds, so a pass averages ten cells. Each
    # cell is its own `arrr compare` call, so each gets its own calibration.
    n_seeds = 2 if tiny else 10
    seeds = [n_seeds * seed + i for i in range(n_seeds)]
    methods = ["adaptive_rrr"] + [b["method"] for b in base]
    files, invocations, results = _per_seed_calls("compare", seeds, lambda s: {
        "kind": "compare",
        "synth": shape,
        "grids": {"eta": [1.0], "seeds": [s]},
        "fit": {"sigma_eps": "oracle"},
        "baselines": base,
    })

    def schema(out: str) -> List[str]:
        problems = []
        for s in seeds:
            path = results(out, s)
            found = _header_problems(path, COMPARE_HEADER, len(methods))
            if not found:
                _, rows = _read_rows(path)
                if sorted((r["method"], int(r["seed"])) for r in rows) != sorted(
                        (m, s) for m in methods):
                    found.append("rows do not cover (method, seed)")
                elif not all(math.isfinite(float(r[c])) for r in rows
                             for c in ("mse_in", "mse_out", "r2_out")):
                    found.append("non-finite scores")
            problems += ["compare-%d: %s" % (s, f) for f in found]
        return problems

    def tolerance(key: str) -> object:
        row, col = key.rsplit(":", 1)
        iterative = row.split("|", 1)[0] in ITERATIVE_METHODS
        if iterative and col == "recovered_rank":
            return SKIP
        if col in SELECTION_COLS:
            return EXACT
        return ITERATIVE if iterative else DIRECT

    return Workload(
        cells=len(seeds),
        invocations=invocations,
        files=files,
        summarize=lambda out: _merged_records(results, out, seeds, ("method", "eta", "seed")),
        schema=schema,
        tolerance=tolerance,
    )


# ------------------------------------------------------------ rolling-panel


ROLLING_HEADER = ("config_hash", "method", "fold", "split", "seed", "n_obs",
                  "mse", "r2", "corr", "k1", "k2", "mu", "rank")
ROLLING_METHODS = ("adaptive_rrr", "pcr", "reduced_rank_ridge", "ridge", "rrr")


def make_panel(seed: int, n_dates: int, n_assets: int, n_missing: int) -> str:
    """Log-return panel CSV: 3 AR(1) factors plus idiosyncratic noise, scale 1e-2.

    Missing cells sit on distinct, well separated dates, so each drops the
    same number of feature rows and the fold count does not depend on the seed.
    """
    rng = np.random.default_rng([seed, PANEL_STREAM])
    phi = np.array([0.85, 0.7, 0.5])
    shocks = rng.standard_normal((n_dates, phi.size))
    factors = np.zeros_like(shocks)
    for t in range(1, n_dates):
        factors[t] = phi * factors[t - 1] + shocks[t]
    loadings = rng.standard_normal((n_assets, phi.size))
    returns = 1e-2 * (factors @ loadings.T + rng.standard_normal((n_dates, n_assets)))
    span = (n_dates - 60) // n_missing
    for i in range(n_missing):
        t = 30 + i * span + int(rng.integers(0, span - 25))
        returns[t, int(rng.integers(0, n_assets))] = math.nan
    day0 = datetime.date(2000, 1, 1)
    lines = ["date," + ",".join("A%02d" % j for j in range(n_assets))]
    for t in range(n_dates):
        cells = ("" if math.isnan(v) else "%.17g" % v for v in returns[t])
        lines.append((day0 + datetime.timedelta(days=t)).isoformat() + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def rolling_panel(seed: int, tiny: bool) -> Workload:
    # Several short panels, one `arrr rolling` call each, so that a pass is
    # made of calls of about a second that the calibration can follow.
    if tiny:
        n_panels, shape = 2, {"n_dates": 200, "n_assets": 6, "n_missing": 2}
        splits = {"train_len": 40, "valid_len": 10, "test_len": 10, "gap_len": 2}
        lookbacks = [1, 5]
    else:
        n_panels, shape = 4, {"n_dates": 500, "n_assets": 50, "n_missing": 3}
        splits = {"train_len": 200, "valid_len": 40, "test_len": 40, "gap_len": 2}
        lookbacks = [1, 5, 20]
    seeds = [n_panels * seed + i for i in range(n_panels)]
    panels = {s: make_panel(s, **shape) for s in seeds}
    files, invocations, results = _per_seed_calls("rolling", seeds, lambda s: {
        "kind": "rolling",
        "panel": "returns-%d.csv" % s,
        "features": {"lookbacks": lookbacks, "horizon": 1},
        "splits": splits,
        "fit": {"delta": [1e-8, 1e-6, 1e-4, 1e-2, 1.0], "theta": [1.5, 2.0, 3.0],
                "sigma_eps": "auto"},
        "baselines": [
            {"method": "ridge", "mu": [1e-4, 1e-3, 1e-2]},
            {"method": "rrr", "rank": [1, 3, 5]},
            {"method": "pcr", "rank": [3, 10] if tiny else [3, 10, 30]},
            {"method": "reduced_rank_ridge", "mu": 1e-3, "rank": 3},
        ],
        "seed": s,
    })
    files.update(("returns-%d.csv" % s, text) for s, text in panels.items())
    n_folds = {s: _count_folds(text, lookbacks, splits) for s, text in panels.items()}

    def schema(out: str) -> List[str]:
        problems = []
        for s in seeds:
            path = results(out, s)
            n_rows = len(ROLLING_METHODS) * (2 * n_folds[s] + 1)
            found = _header_problems(path, ROLLING_HEADER, n_rows)
            if not found:
                _, rows = _read_rows(path)
                if sorted({r["method"] for r in rows}) != list(ROLLING_METHODS):
                    found.append("rows do not cover every method")
                for r in rows:
                    # an empty model (k2 = 0) predicts zeros: no correlation
                    if (r["split"] != "train" and r["k2"] != "0"
                            and not math.isfinite(float(r["corr"]))):
                        found.append("%s row has no correlation" % r["split"])
                        break
            problems += ["rolling-%d: %s" % (s, f) for f in found]
        return problems

    return Workload(
        cells=sum(n_folds.values()),
        invocations=invocations,
        files=files,
        summarize=lambda out: _merged_records(results, out, seeds,
                                              ("seed", "method", "fold", "split")),
        schema=schema,
        tolerance=_direct_tolerance,
    )


def _count_folds(panel: str, lookbacks: List[int], splits: Dict[str, int]) -> int:
    """Folds the rolling protocol yields on this panel, counted independently:
    an anchor row survives when its lookback windows and its next-period
    response have no missing cell."""
    rows = panel.strip().split("\n")[1:]
    missing = np.array([any(c == "" for c in r.split(",")[1:]) for r in rows])
    longest = max(lookbacks)
    usable = sum(
        1 for t in range(longest - 1, len(rows) - 1)
        if not missing[t - longest + 1: t + 2].any()
    )
    span = (splits["train_len"] + 2 * splits["gap_len"] + splits["valid_len"]
            + splits["test_len"])
    return (usable - span) // splits["test_len"] + 1


# ------------------------------------------------------------ oneshot-io


PRED_SAMPLES = 16


def oneshot_io(seed: int, tiny: bool) -> Workload:
    if tiny:
        d1, d2, n, rank, ang = 30, 20, 40, 3, (30, 20, 5)
    else:
        d1, d2, n, rank, ang = 300, 200, 400, 20, (300, 150, 20)
    # full size in both: smaller families are infeasible for some seeds
    packing_cfg = {"kind": "packing", "packing": {
        "d": 256, "rho": 0.0158, "sigma_eps": 1.0, "n_samples": 100,
        "k_patterns": 16, "s_size": 8, "seed": seed}}
    angles_cfg = {"kind": "angles", "synth": {"d1": ang[0], "omega": 2.0, "seed": seed},
                  "n": ang[1], "top_k": ang[2]}
    invocations = (
        Invocation("synth", ("synth", "--d1", str(d1), "--d2", str(d2), "--n", str(n),
                             "--rank", str(rank), "--eta", "0.5", "--seed", str(seed),
                             "--out", "{out}/data"), ("data",)),
        Invocation("fit", ("fit", "--x", "{out}/data/x.csv", "--y", "{out}/data/y.csv",
                           "--sigma", "auto", "--out", "{out}/model"), ("model",)),
        Invocation("predict", ("predict", "--model", "{out}/model", "--x",
                               "{out}/data/x.csv", "--out", "{out}/preds.csv"),
                   ("preds.csv",)),
        Invocation("packing", ("packing", "--config", "packing.json",
                               "--out", "{out}/packing"), ("packing",)),
        Invocation("angles", ("angles", "--config", "angles.json",
                              "--out", "{out}/angles"), ("angles",)),
    )
    top_k = ang[2]

    def summarize(out: str) -> Dict[str, object]:
        rec: Dict[str, object] = {}
        for name in ("x.csv", "y.csv", "m.csv", "lambda.csv"):
            rec["synth:%s:sha256" % name] = _sha256(os.path.join(out, "data", name))
        with open(os.path.join(out, "data", "meta.json")) as f:
            rec["synth:sigma_noise"] = json.load(f)["sigma_noise"]
        with open(os.path.join(out, "model", "meta.json")) as f:
            meta = json.load(f)
        for k in ("k1", "k2", "sigma_eps"):
            rec["fit:%s" % k] = meta[k]
        preds = np.loadtxt(os.path.join(out, "preds.csv"), delimiter=",", ndmin=2)
        rec["predict:shape"] = "%dx%d" % preds.shape
        rec["predict:fro"] = float(np.linalg.norm(preds))
        rows, cols = np.random.default_rng(0).integers(0, preds.shape, (PRED_SAMPLES, 2)).T
        for i, j in zip(rows, cols):
            rec["predict:%d,%d" % (i, j)] = float(preds[i, j])
        with open(os.path.join(out, "packing", "report.json")) as f:
            rep = json.load(f)
        for k in ("pass", "max_overlap", "min_pairwise_distance", "unitarity_residual"):
            rec["packing:%s" % k] = rep[k]
        for k, v in rep["measured_constants"].items():
            rec["packing:%s" % k] = v
        rec.update(_csv_record(os.path.join(out, "angles", "results.csv"),
                               ("row", "col"), prefix="angles:"))
        return rec

    def schema(out: str) -> List[str]:
        problems = []
        for rel in ("data/x.csv", "data/y.csv", "data/m.csv", "data/lambda.csv",
                    "model/meta.json", "preds.csv", "packing/report.json"):
            if not os.path.isfile(os.path.join(out, rel)):
                problems.append("missing %s" % rel)
        if problems:
            return problems
        preds = np.loadtxt(os.path.join(out, "preds.csv"), delimiter=",", ndmin=2)
        if preds.shape != (n, d2) or not np.all(np.isfinite(preds)):
            problems.append("preds.csv is %dx%d or non-finite, expected %dx%d"
                            % (preds.shape + (n, d2)))
        with open(os.path.join(out, "model", "meta.json")) as f:
            meta = json.load(f)
        if not (1 <= meta.get("k1", 0) <= min(n, d1) and 0 <= meta.get("k2", -1) <= d2):
            problems.append("model ranks out of range: %s" % meta)
        with open(os.path.join(out, "packing", "report.json")) as f:
            if not isinstance(json.load(f).get("pass"), bool):
                problems.append("packing report lacks a boolean 'pass'")
        problems += _header_problems(os.path.join(out, "angles", "results.csv"),
                                     ("row", "col", "angle"), top_k * top_k)
        return problems

    def tolerance(key: str) -> object:
        if key.endswith(":sha256") or key in ("fit:k1", "fit:k2", "predict:shape",
                                              "packing:pass", "packing:max_overlap"):
            return EXACT
        if key == "packing:unitarity_residual":
            return (0.0, 1e-12)  # round-off level; only its scale is meaningful
        return _direct_tolerance(key)

    return Workload(
        cells=len(invocations),
        invocations=invocations,
        files={"packing.json": _json(packing_cfg), "angles.json": _json(angles_cfg)},
        summarize=summarize,
        schema=schema,
        tolerance=tolerance,
    )


WORKLOADS = {
    "sweep-rankpath": sweep_rankpath,
    "compare-solvers": compare_solvers,
    "rolling-panel": rolling_panel,
    "oneshot-io": oneshot_io,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


def compare_records(ref: Dict[str, object], got: Dict[str, object],
                    tolerance: Callable[[str], object]) -> List[str]:
    """Problems found comparing an output record with a reference record.

    Every reference key must be present. Keys only in the output are allowed,
    so a later column addition does not fail the check; keys only in the
    reference are not.
    """
    problems = []
    for key, want in sorted(ref.items()):
        rule = tolerance(key)
        if rule == SKIP:
            continue
        if key not in got:
            problems.append("%s: missing (reference %r)" % (key, want))
            continue
        have = got[key]
        if rule == EXACT or isinstance(want, (str, bool)) or isinstance(have, (str, bool)):
            if have != want:
                problems.append("%s: %r != reference %r" % (key, have, want))
            continue
        a, b = float(have), float(want)
        if math.isnan(a) and math.isnan(b):
            continue
        rtol, atol = rule
        if not abs(a - b) <= atol + rtol * max(abs(a), abs(b)):
            problems.append("%s: %r != reference %r (rtol %g, atol %g)"
                            % (key, have, want, rtol, atol))
    return problems
