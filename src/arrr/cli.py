"""Command line interface.

Eight subcommands. `fit`, `predict` and `synth` are flag-driven and dispatch
through COMMANDS. The five experiments each take a JSON config and an output
directory and have one EXPERIMENTS entry: the reader, the top-level config
sections it accepts, the results.csv header and row order, and the help text.
`build_parser` and `main` read the subcommands from these two tables; a run
builds the parser of its own subcommand only.

A reader checks its sections, runs the experiment and returns its rows (the
packing reader its report). `run_experiment` does the rest once for all of
them: the top-level key check, the config hash, meta.json, and results.csv
with the hash on each row, or report.json. Defaults come from FitConfig and
SynthConfig. The config file is read, and each value type-checked, by
`_serde`, which reads a model's meta.json the same way.

A `compare` cell and a `rolling` fold share one fit-select-score path: one
`baselines.validation_window`, with the one SVD of the training design and
the one validation scorer, serves the estimator's (delta, theta) candidates
and every baseline grid, `metrics.lowest` picks each method's winner by
pooled validation MSE, and the winners are scored on the training and test
windows. Every validated direct model, an estimator candidate or a baseline
spec, is scored as (x_va V) g from the window's one x_va V, g its coefficient
matrix in the training design's right singular basis. Candidates that select
the same (k1, k2) are one model, and each distinct model is scored once.

Exit codes: 0 success; 2 bad input (nothing is written); 3 numerical
failure (error.json lands in the output directory and a message goes to
stderr). A numerical failure is a `spectral.NumericalFailure` (no gap,
non-finite input, a zero noise-pilot residual, an infeasible packing), a
LAPACK failure or a numpy overflow; `main` catches the base class, so it
need not import `packing` to name that module's errors. Bad input is
whatever the library rejects with a ValueError, a JSON file that does not
parse, a JSON type check (an integer beyond the float range included) or a
key no reader reads here, an unreadable file, or a request too large to
allocate (MemoryError); `main` maps errors to exit codes in one place.

Importing this module loads only what the subcommands share. `packing` is
imported by the packing reader, and the process pool by a run that starts
more than one worker.

Result CSVs use 17-significant-digit floats and a fixed, documented row
order, so re-running an experiment with the same config is byte-identical.
Every row carries the first 12 hex chars of the sha256 of the resolved
config (after any ARRR_SEED override) plus the run seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
# every subcommand loads locale, which argparse's gettext imports when
# build_parser runs; imported here, it is a start-up cost, not one of main
import locale  # noqa: F401
import math
import numbers
import os
import re
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# One BLAS thread unless the user set a count, so that reruns are byte-identical
# on any core count; numpy reads these once, as it loads, so before its import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from . import baselines, dataio, metrics, synth
from ._serde import (NULL, NUM, _REQUIRED, _get, _is, _only, _want, fmt_float, read_json,
                     read_matrix_csv, write_json, write_matrix_csv)
from ._version import __version__
from .estimator import (
    FitConfig,
    NoGapError,
    fit_adaptive_rrr,
    fit_path,
    load_model,
    predict,
    rank_path_scores,
    require_xy,
    save_model,
)
from .spectral import NumericalFailure, angle_matrix, decompose

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Fixed stream tags for auxiliary draws derived from a run seed. Changing
# these would silently change every experiment, so they are frozen here.
VALID_STREAM = 101
TEST_STREAM = 202

NUMERICAL_ERRORS = (NumericalFailure, np.linalg.LinAlgError, FloatingPointError)


def _section(cfg: Dict[str, Any], name: str, keys: Sequence[str]) -> Dict[str, Any]:
    """cfg[name], an object holding no key outside `keys`."""
    sec = _get(cfg, "", name, dict)
    _only(sec, name, keys)
    return sec


def _listed(v) -> list:
    return v if isinstance(v, list) else [v]


def config_hash(cfg: Dict[str, Any]) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _seed(seed: int, name: str) -> int:
    """A seed that a SeedSequence takes: a non-negative integer, or a
    ValueError that names where it came from."""
    _want(seed >= 0, "%s must be a non-negative integer, got %d" % (name, seed))
    return seed


def derived_seed(seed: int, stream: int) -> int:
    """Independent child seed for an auxiliary draw (validation/test sets)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return int(ss.generate_state(1)[0])


def _env_seed() -> Optional[int]:
    """ARRR_SEED as an integer under the one rule of a config's integers."""
    raw = os.environ.get("ARRR_SEED")
    if raw is None:
        return None
    # int() refuses more than 4300 digits, so leading zeros are dropped first;
    # 310 digits or more are beyond the float range anyway
    digits = re.fullmatch(r"\s*([+-]?)0*(\d+)\s*", raw)
    _want(digits is None or len(digits[2]) < 310,
          "ARRR_SEED is an integer beyond the float range")
    try:
        seed = int(raw if digits is None else digits[1] + digits[2])
    except ValueError:
        shown = repr(raw) if len(raw) <= 40 else "%r... (%d characters)" % (raw[:20], len(raw))
        raise ValueError("ARRR_SEED must be an integer, got %s" % shown)
    _want(_is(seed, int), "ARRR_SEED is an integer beyond the float range")
    return _seed(seed, "ARRR_SEED")


def _apply_env_seed(cfg: Dict[str, Any]) -> Dict[str, Any]:
    s = _env_seed()
    if s is None:
        return cfg
    cfg["seed"] = s
    if isinstance(cfg.get("synth"), dict):
        cfg["synth"]["seed"] = s
    if isinstance(cfg.get("packing"), dict):
        cfg["packing"]["seed"] = s
    grids = cfg.get("grids")
    if isinstance(grids, dict) and "seeds" in grids:
        grids["seeds"] = [s]
    return cfg


def load_config(path: str, kind: str) -> Dict[str, Any]:
    cfg = read_json(path)
    declared = cfg.get("kind")
    _want(declared is None or declared == kind,
          "config kind %r does not match subcommand %r" % (declared, kind))
    return _apply_env_seed(cfg)


# every experiment config may name its kind, and ARRR_SEED plants a seed in it
TOP_KEYS = ("kind", "seed")


def _fit_section(cfg: Dict[str, Any], default_sigma: str,
                 grid: bool = False) -> Tuple[List[Tuple[float, float]], Any]:
    """The fit section as ((delta, theta) pairs, sigma_eps spec), FitConfig's
    defaults standing in for absent keys. Only a `grid` takes lists of delta
    and theta; it pairs each delta with each theta."""
    sec = _get(cfg, "", "fit", (dict, NULL), None) or {}  # absent or null reads as empty
    _only(sec, "fit", ("delta", "theta", "sigma_eps"))
    types, items = (NUM + (list,), NUM) if grid else (NUM, ())
    deltas, thetas = (_listed(_get(sec, "fit", k, types, getattr(FitConfig, k), items))
                      for k in ("delta", "theta"))
    return ([(float(d), float(t)) for d in deltas for t in thetas],
            _get(sec, "fit", "sigma_eps", NUM + (str,), default_sigma))


def _candidates(fit, instance, **overrides) -> List[FitConfig]:
    """A FitConfig per (delta, theta) pair of a `_fit_section`.

    sigma_eps 'oracle' uses the generator's noise scale; at eta=0 that is 0,
    which is floored to the smallest positive float so the threshold stays
    defined.
    """
    pairs, sigma = fit
    if sigma == "oracle":
        _want(instance is not None, "fit.sigma_eps 'oracle' needs synthetic data")
        sigma = max(float(instance.sigma_noise), float(np.finfo(float).tiny))
    elif not isinstance(sigma, str):
        sigma = float(sigma)
    return [FitConfig(delta=d, theta=t, sigma_eps=sigma, **overrides) for d, t in pairs]


def _synth_configs(cfg: Dict[str, Any], points: List[Dict[str, Any]]) -> List[synth.SynthConfig]:
    """The synth section with each grid point's overrides. The section must
    be valid as written too, not only with the grid's values."""
    sec = _get(cfg, "", "synth", dict)
    fields = dataclasses.fields(synth.SynthConfig)
    configs = []
    for merged in [sec] + [dict(sec, **p) for p in points]:
        _only(merged, "synth", [f.name for f in fields])
        for f in fields:
            _get(merged, "synth", f.name, int if f.type == "int" else NUM,
                 _REQUIRED if f.default is dataclasses.MISSING else None)
        configs.append(synth.SynthConfig(**merged))
    _seed(configs[0].seed, "synth.seed")
    return configs[1:]


def _baseline_grid(cfg: Dict[str, Any]) -> Dict[str, List[baselines.BaselineSpec]]:
    """Expand [{method, mu: [...], rank: [...]}, ...] into spec lists."""
    out: Dict[str, List[baselines.BaselineSpec]] = {}
    for i, e in enumerate(_get(cfg, "", "baselines", list, [], items=dict)):
        where = "baselines[%d]" % i
        _only(e, where, ("method", "mu", "rank"))
        method = _get(e, where, "method", str)
        _want(method not in out, "duplicate baseline entry for %r" % method)
        mus = _listed(_get(e, where, "mu", NUM + (list,), 0.0, items=NUM))
        ranks = _listed(_get(e, where, "rank", (int, NULL, list), None, items=(int, NULL)))
        out[method] = [baselines.BaselineSpec(method=method, mu=float(mu), rank=r)
                       for mu in mus for r in ranks]
    return out


# ---------------------------------------------------------------- output


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):  # a bool is an int
        return str(int(v))
    return fmt_float(float(v))


def write_results(out_dir: str, header: Sequence[str], rows: List[Dict[str, Any]],
                  sort_cols: Sequence[str]) -> str:
    rows = sorted(rows, key=lambda r: tuple(r[c] for c in sort_cols))
    path = os.path.join(out_dir, "results.csv")
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for r in rows:
            f.write(",".join(_cell(r[c]) for c in header) + "\n")
    return path


def _numerical_failure(out_dir: str, exc: BaseException) -> int:
    print("numerical failure: %s" % exc, file=sys.stderr)
    # the exception's own numeric fields, such as packing's achieved_cost
    payload = {k: float(v) for k, v in vars(exc).items()
               if isinstance(v, numbers.Real) and not isinstance(v, bool)}
    payload.update(error=type(exc).__name__, message=str(exc))
    try:
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "error.json"), payload)
    except OSError as e:  # exit 2, as a successful run to this --out would
        print("error: cannot write error.json: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_NUMERICAL


def _overflow_raises(fn, arg):
    """fn(arg) with a numpy overflow raised as FloatingPointError, a
    numerical failure, instead of a warning and an infinity in the output.
    `main` and every worker process run their work through it."""
    with np.errstate(over="raise"):
        return fn(arg)


def _run_cells(fn, cells, jobs: int) -> list:
    """fn of each cell, in order, on at most `jobs` workers. A pool starts
    every worker at once, so there are never more workers than cells."""
    workers = min(jobs, len(cells))
    if workers <= 1:
        return [fn(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_overflow_raises, [fn] * len(cells), cells))
    except BrokenProcessPool as e:  # a worker killed, say by the OOM killer
        raise ChildProcessError("a --jobs worker process ended abruptly: %s" % e) from None


# ---------------------------------------------------------------- readers


def _sweep_cell(args) -> List[Dict[str, Any]]:
    """Every (k1, k2) row of one seed: one instance, one test draw, one rank
    path, each k1's rows scored by prefix sums on its cross-moment SVD."""
    fit, k1s, k2s, syn = args
    inst = synth.make_instance(syn)
    x_te, y_te, _ = synth.gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                                      syn.n, syn.eta, derived_seed(syn.seed, TEST_STREAM))
    configs = [c for k1 in k1s for k2 in k2s
               for c in _candidates(fit, inst, k1_override=k1, k2_override=k2)]
    x, y, m = inst.x, inst.y, inst.m
    del inst  # its d1 x d1 basis v_star has no reader past the test draw
    scores = rank_path_scores(x, y, configs, x_te, y_te, m)
    return [{"method": "adaptive_rrr", "eta": syn.eta, "k1": config.k1_override,
             "k2": config.k2_override, "seed": syn.seed,
             "recon_error": recon, "mse_out": mse, "corr_out": corr}
            for config, (recon, mse, _, corr) in zip(configs, scores)]


def run_sweep(cfg: Dict[str, Any], jobs: int) -> List[Dict[str, Any]]:
    grids = _section(cfg, "grids", ("k1", "k2", "seeds"))
    k1s, k2s, seeds = (_get(grids, "grids", k, list, items=int) for k in ("k1", "k2", "seeds"))
    for s in seeds:
        _seed(s, "grids.seeds")
    fit = _fit_section(cfg, default_sigma="oracle")
    cells = [(fit, k1s, k2s, syn) for syn in _synth_configs(cfg, [{"seed": s} for s in seeds])]
    return [r for chunk in _run_cells(_sweep_cell, cells, jobs) for r in chunk]


# the cells of a compare or rolling row that a method does not use
_UNUSED = {"k1": -1, "k2": -1, "mu": -1.0, "rank": -1}


def _validated_estimator(window, candidates: Sequence[FitConfig], where: str):
    """The estimator's candidate, fitted on the window's training part by one
    `fit_path` on its SVD, with the lowest validation MSE by its scorer.
    Candidates without an admissible gap are skipped, the winner is
    `metrics.lowest` of the rest's scores, and the NoGapError for no winner
    names `where`.

    A candidate is scored as `baselines.validate_hyperparams` scores a
    direct spec: as (x_va V) g from the window's one x_va V, without forming
    its m_hat. Since pi_hat^T = V_k1 Lambda_k1^(-1/2), g = Lambda_k1^(-1/2)
    n_hat_trunc^T is its coefficient matrix in the training design's right
    singular basis. Each distinct model is scored once. Within one
    `fit_path`, two candidates with the same (k1, k2) have the same factors
    bit for bit: stage 1 slices the one SVD of x, and stage 2 truncates the
    one cross-moment SVD of its k1. A repeat therefore scores what its first
    occurrence scored, and as `metrics.lowest` breaks ties toward the first,
    it can never win; it is not scored.
    """
    nogap = []  # the candidates whose stage 1 found no admissible gap

    def validated():
        seen = set()  # the (k1, k2) of every model scored so far
        for model in fit_path(window.x_tr, window.y_tr, candidates, window.dec):
            if isinstance(model, NoGapError):
                nogap.append(model)
            elif (model.k1, model.k2) not in seen:
                seen.add((model.k1, model.k2))
                g = model.n_hat_trunc.T / np.sqrt(model.lambdas[:model.k1, None])
                yield window.score(window.x_va_v[:, :model.k1] @ g), model

    best = metrics.lowest(validated())
    if best is None:
        raise NoGapError(
            "no (delta, theta) candidate produced a usable fit on %s: %d of %d found no "
            "eigenvalue gap >= delta (lower delta), %d scored an undefined validation MSE"
            % (where, len(nogap), len(candidates), len(candidates) - len(nogap)))
    return best


def _fit_select_score(train, valid, test, candidates: Sequence[FitConfig],
                      grid: Dict[str, List[baselines.BaselineSpec]], where: str) -> list:
    """Fit the estimator's candidates and every baseline grid on the training
    window, keep each method's lowest pooled validation MSE, and score the
    winners. Each window is an (x, y) pair.

    Returns (method, model, tags, train scores, test scores, test predictions)
    per method, the estimator first and then the baselines by name. Scores are
    pooled (mse, r2, corr); tags are the k1, k2, mu and rank cells of a row.
    Every window passes `require_xy` before their one
    `baselines.validation_window` takes the one SVD of the training design;
    the estimator and every grid validate through it, scoring only the MSE
    by its one scorer. No direct model's coefficients are formed to score
    it: an estimator candidate (`_validated_estimator`) and a grid's direct
    spec are both scored as (x_va V) g, g the model's coefficients in the
    basis V of the window's SVD. Only the winners' m_hat are formed, and
    everything validation made is released before they are scored.
    """
    # before the SVD, not by a LAPACK failure
    train, valid, test = (require_xy(what, *window) for what, window in (
        ("x and y", train), ("validation x and y", valid), ("test x and y", test)))
    (x_tr, y_tr), (x_te, y_te) = train, test
    window = baselines.validation_window(train, valid)

    best = _validated_estimator(window, candidates, where)
    winners = [("adaptive_rrr", best, {"k1": best.k1, "k2": best.k2})]
    for method in sorted(grid):
        bm = baselines.validate_hyperparams(grid[method], window)
        rank = bm.method.rank
        winners.append((method, bm, {"mu": bm.method.mu, "rank": -1 if rank is None else rank}))
    del window  # its U^T y, Gram factors and x_va V, before the winners are scored

    scored = []
    for method, model, tags in winners:
        y_hat = x_te @ model.m_hat.T
        scored.append((method, model, dict(_UNUSED, **tags),
                       metrics.pooled_scores(y_tr, x_tr @ model.m_hat.T),
                       metrics.pooled_scores(y_te, y_hat), y_hat))
    return scored


def _compare_cell(args) -> List[Dict[str, Any]]:
    """Every method's row of one (eta, seed): one instance, one validation and
    one test draw."""
    fit, grid, syn = args
    inst = synth.make_instance(syn)
    draw = lambda tag: synth.gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                                         syn.n, syn.eta, derived_seed(syn.seed, tag))[:2]
    rows = []
    for method, model, tags, (mse_in, r2_in, _), (mse_out, r2_out, corr_out), _ in (
            _fit_select_score((inst.x, inst.y), draw(VALID_STREAM), draw(TEST_STREAM),
                              _candidates(fit, inst), grid,
                              "eta %g, seed %d" % (syn.eta, syn.seed))):
        rows.append(dict(tags, method=method, eta=syn.eta, seed=syn.seed,
                         mse_in=mse_in, mse_out=mse_out, r2_in=r2_in, r2_out=r2_out,
                         corr_out=corr_out, gap_out_in=mse_out - mse_in,
                         recon_error=float(np.linalg.norm(inst.m - model.m_hat)),
                         recovered_rank=metrics.recovered_rank_of(model.m_hat)))
    return rows


def run_compare(cfg: Dict[str, Any], jobs: int) -> List[Dict[str, Any]]:
    grids = _section(cfg, "grids", ("eta", "seeds"))
    etas = _get(grids, "grids", "eta", list, items=NUM)
    seeds = [_seed(s, "grids.seeds") for s in _get(grids, "grids", "seeds", list, items=int)]
    fit = _fit_section(cfg, default_sigma="oracle")
    base_grid = _baseline_grid(cfg)
    cells = [(fit, base_grid, syn) for syn in _synth_configs(
        cfg, [{"eta": float(eta), "seed": s} for eta in etas for s in seeds])]
    return [r for chunk in _run_cells(_compare_cell, cells, jobs) for r in chunk]


def _rolling_row(method, fold, split, seed, n_obs, scores, tags=_UNUSED) -> Dict[str, Any]:
    mse, r2, corr = scores
    return dict(tags, method=method, fold=fold, split=split, seed=seed, n_obs=n_obs,
                mse=mse, r2=r2, corr=corr)


def run_rolling(cfg: Dict[str, Any], jobs: int) -> List[Dict[str, Any]]:
    panel_path = _get(cfg, "", "panel", str)
    feat = _section(cfg, "features", ("lookbacks", "horizon"))
    lookbacks = _get(feat, "features", "lookbacks", list, items=int)
    horizon = _get(feat, "features", "horizon", int, 1)
    sp = _section(cfg, "splits", ("train_len", "valid_len", "test_len", "gap_len"))
    lens = [_get(sp, "splits", k, int) for k in ("train_len", "valid_len", "test_len")]
    gap_len = _get(sp, "splits", "gap_len", int, 0)
    candidates = _candidates(_fit_section(cfg, FitConfig.sigma_eps, grid=True), None)
    base_grid = _baseline_grid(cfg)
    seed = _get(cfg, "", "seed", int, 0)

    panel = dataio.load_panel_csv(panel_path)
    x, y, dates = dataio.make_features(panel, lookbacks, horizon)
    try:
        folds = dataio.rolling_splits(dates, *lens, gap_len)
    except dataio.NoWindowError as e:
        # the anchor dates with a full lookback and horizon, before make_features
        # drops the rows with a missing value
        anchors = len(panel.dates) - max(lookbacks) - horizon + 1
        raise ValueError("%s; %d of %d anchor rows were dropped for a missing value"
                         % (e, anchors - len(dates), anchors)) from None
    window = lambda r: (x[r.start:r.stop], y[r.start:r.stop])

    rows: List[Dict[str, Any]] = []
    glued: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
    for fi, fold in enumerate(folds):
        test = window(fold.test)
        for method, _, tags, (mse, r2, _), scores, y_hat in _fit_select_score(
                window(fold.train), window(fold.valid), test, candidates, base_grid,
                "fold %d" % fi):
            rows.append(_rolling_row(method, fi, "train", seed, len(fold.train),
                                     (mse, r2, math.nan), tags))
            rows.append(_rolling_row(method, fi, "test", seed, len(fold.test), scores, tags))
            glued.setdefault(method, []).append((test[1], y_hat))

    # pooled test-window scores across folds; fold = -1 marks the glued row
    for method in sorted(glued):
        yt = np.vstack([p[0] for p in glued[method]])
        yh = np.vstack([p[1] for p in glued[method]])
        rows.append(_rolling_row(method, -1, "glued", seed, yt.shape[0],
                                 metrics.pooled_scores(yt, yh)))
    return rows


def run_packing(cfg: Dict[str, Any], jobs: int) -> Dict[str, Any]:
    from . import packing
    int_keys = ("d", "n_samples", "k_patterns", "s_size", "seed")
    sec = _section(cfg, "packing", int_keys + ("spectrum", "rho", "sigma_eps"))
    args = {k: _get(sec, "packing", k, int) for k in int_keys}
    _seed(args["seed"], "packing.seed")
    # the library allows one-member families; an experiment compares pairs
    _want(args["s_size"] >= 2, "packing.s_size must be >= 2")
    args["spectrum"] = _get(sec, "packing", "spectrum", (list, NULL), None, items=NUM)
    args["rho"] = float(_get(sec, "packing", "rho", NUM))
    args["sigma_eps"] = float(_get(sec, "packing", "sigma_eps", NUM, 1.0))
    params = packing.PackingParams(**args)
    family = packing.build_family(params)
    report = packing.verify_packing(family, params)
    return {
        "params": dict(dataclasses.asdict(params), lambda_exp=packing.LAMBDA_EXP,
                       zeta=packing.ZETA, eta_exp=packing.ETA_EXP,
                       t_lo=params.t_lo, t_hi=params.t_hi),
        "measured_constants": {"c8": report.measured_c8, "c9": report.measured_c9},
        "min_pairwise_distance": report.min_pairwise_distance,
        "max_overlap": report.max_support_overlap,
        "unitarity_residual": report.unitarity_residual,
        "pass": report.passed,
        "detail": dataclasses.asdict(report),
    }


def run_angles(cfg: Dict[str, Any], jobs: int) -> List[Dict[str, Any]]:
    syn = _section(cfg, "synth", ("d1", "omega", "seed"))
    d1 = _get(syn, "synth", "d1", int)
    omega = float(_get(syn, "synth", "omega", NUM, synth.SynthConfig.omega))
    seed = _seed(_get(syn, "synth", "seed", int, synth.SynthConfig.seed), "synth.seed")
    n = _get(cfg, "", "n", int)
    # the generator's size checks, before top_k's default and range use the sizes
    _want(d1 >= 2, "d1 must be >= 2")
    _want(n >= 2, "n must be >= 2")
    top_k = _get(cfg, "", "top_k", int, min(n, d1))
    _want(1 <= top_k <= min(n, d1), "'top_k' must lie in [1, min(n, d1)]")

    s_cov, s_design = np.random.SeedSequence(seed).generate_state(2)
    v_star, lam = synth.gen_covariance(d1, omega, int(s_cov))
    x = synth.gen_design(v_star, lam, n, int(s_design))
    emp = decompose(x).v  # empirical covariance eigenvectors, descending
    a = angle_matrix(emp[:, :top_k], v_star[:, :top_k])
    return [{"seed": seed, "row": i, "col": j, "angle": a[i, j]}
            for i in range(top_k) for j in range(top_k)]


# ---------------------------------------------------------------- experiments


class Experiment(NamedTuple):
    read: Callable[[Dict[str, Any], int], Any]  # (config, jobs) -> rows or report
    sections: Tuple[str, ...]  # top-level config keys besides TOP_KEYS
    header: Optional[Tuple[str, ...]]  # results.csv columns; None writes report.json
    order: Tuple[str, ...]  # results.csv sort columns
    help: str


EXPERIMENTS = {
    "sweep": Experiment(
        run_sweep, ("synth", "grids", "fit"),
        ("config_hash", "method", "eta", "k1", "k2", "seed",
         "recon_error", "mse_out", "corr_out"),
        ("method", "eta", "k1", "k2", "seed"),
        "grid over (k1, k2, seed) on synthetic data"),
    "compare": Experiment(
        run_compare, ("synth", "grids", "fit", "baselines"),
        ("config_hash", "method", "eta", "k1", "k2", "mu", "rank", "seed",
         "mse_in", "mse_out", "r2_in", "r2_out", "corr_out",
         "recon_error", "recovered_rank", "gap_out_in"),
        ("method", "eta", "k1", "k2", "seed"),
        "estimator vs baselines over (eta, seed)"),
    "rolling": Experiment(
        run_rolling, ("panel", "features", "splits", "fit", "baselines"),
        ("config_hash", "method", "fold", "split", "seed", "n_obs",
         "mse", "r2", "corr", "k1", "k2", "mu", "rank"),
        ("method", "fold", "split"),
        "rolling-window backtest on a return panel"),
    "packing": Experiment(
        run_packing, ("packing",), None, (),
        "build and verify a lower-bound packing family"),
    "angles": Experiment(
        run_angles, ("synth", "n", "top_k"),
        ("config_hash", "seed", "row", "col", "angle"), ("row", "col"),
        "cosines of empirical vs true covariance eigenvector angles"),
}


def run_experiment(kind: str, cfg: Dict[str, Any], out_dir: str, jobs: int) -> int:
    """Run the experiment `kind` on a loaded config and write its outputs.
    Nothing is written unless the whole run succeeds."""
    exp = EXPERIMENTS[kind]
    _only(cfg, "config", TOP_KEYS + exp.sections)
    h = config_hash(cfg)
    result = exp.read(cfg, jobs)
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "meta.json"), {
        "kind": kind, "config": cfg, "config_hash": h, "library_version": __version__})
    if exp.header is None:
        write_json(os.path.join(out_dir, "report.json"), dict(result, config_hash=h))
    else:
        write_results(out_dir, exp.header, [dict(r, config_hash=h) for r in result], exp.order)
    return EXIT_OK


# ---------------------------------------------------------------- fit/predict/synth


def cmd_fit(args) -> int:
    sigma = args.sigma if args.sigma == "auto" else float(args.sigma)
    fc = FitConfig(delta=args.delta, theta=args.theta, sigma_eps=sigma,
                   k1_override=args.k1, k2_override=args.k2)
    model = fit_adaptive_rrr(read_matrix_csv(args.x), read_matrix_csv(args.y), fc)
    save_model(model, args.out)
    print("fit: k1=%d k2=%d sigma_eps=%s -> %s"
          % (model.k1, model.k2, fmt_float(model.sigma_eps_used), args.out))
    return EXIT_OK


def cmd_predict(args) -> int:
    y_hat = predict(load_model(args.model), read_matrix_csv(args.x))
    write_matrix_csv(args.out, y_hat)
    print("predict: wrote %d rows to %s" % (y_hat.shape[0], args.out))
    return EXIT_OK


def cmd_synth(args) -> int:
    seed = _env_seed()
    args.seed = _seed(args.seed, "--seed") if seed is None else seed
    scfg = synth.SynthConfig(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(synth.SynthConfig)})
    inst = synth.make_instance(scfg)
    os.makedirs(args.out, exist_ok=True)
    for name, a in (("x", inst.x), ("y", inst.y), ("m", inst.m), ("lambda", inst.lambda_star)):
        write_matrix_csv(os.path.join(args.out, name + ".csv"), a)
    meta = dataclasses.asdict(scfg)
    meta.update(sigma_noise=inst.sigma_noise, library_version=__version__)
    write_json(os.path.join(args.out, "meta.json"), meta)
    print("synth: wrote %dx%d x, %dx%d y to %s"
          % (inst.x.shape + inst.y.shape + (args.out,)))
    return EXIT_OK


COMMANDS = {"fit": cmd_fit, "predict": cmd_predict, "synth": cmd_synth}


# ---------------------------------------------------------------- entry


def _add_fit(sub, name: str) -> None:
    f = sub.add_parser(name, help="fit the two-stage estimator on x/y CSVs")
    f.add_argument("--x", required=True, help="design matrix CSV, n rows")
    f.add_argument("--y", required=True, help="response matrix CSV, n rows")
    f.add_argument("--delta", type=float, default=FitConfig.delta,
                   help="eigenvalue-gap threshold (default %(default)g)")
    f.add_argument("--theta", type=float, default=FitConfig.theta,
                   help="stage-2 threshold multiplier: keep singular values >= "
                        "theta * sigma * sqrt(max(d2, k1) / n) (default %(default)g)")
    f.add_argument("--sigma", default=FitConfig.sigma_eps,
                   help="noise std, a number or 'auto' (default %(default)s)")
    f.add_argument("--k1", type=int, default=None, help="override stage-1 rank")
    f.add_argument("--k2", type=int, default=None, help="override stage-2 rank")
    f.add_argument("--out", required=True, help="model output directory")


def _add_predict(sub, name: str) -> None:
    pr = sub.add_parser(name, help="apply a saved model to new features")
    pr.add_argument("--model", required=True, help="model directory from fit")
    pr.add_argument("--x", required=True, help="design matrix CSV")
    pr.add_argument("--out", required=True, help="prediction CSV path")


def _add_synth(sub, name: str) -> None:
    sy = sub.add_parser(name, help="generate a synthetic benchmark instance")
    for fld in dataclasses.fields(synth.SynthConfig):  # --rank sets rank_m
        required = fld.default is dataclasses.MISSING
        sy.add_argument("--rank" if fld.name == "rank_m" else "--" + fld.name, dest=fld.name,
                        type=int if fld.type == "int" else float, required=required,
                        default=None if required else fld.default)
    sy.add_argument("--out", required=True, help="output directory")


def _add_experiment(sub, name: str) -> None:
    e = sub.add_parser(name, help=EXPERIMENTS[name].help)
    e.add_argument("--config", required=True, help="JSON experiment config")
    e.add_argument("--out", required=True, help="output directory")
    e.add_argument("--jobs", type=int, default=1,
                   help="worker processes for grid cells, >= 1 (default 1)")


# each subcommand's parser, in help order
SUBPARSERS = {"fit": _add_fit, "predict": _add_predict, "synth": _add_synth,
              **dict.fromkeys(EXPERIMENTS, _add_experiment)}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser, or with `only` one holding that subcommand alone.

    The one-subcommand parser lists every subcommand in its usage, so its usage
    and error text are the full parser's. The full parser keeps argparse's
    own metavar, since a metavar would also rename `argument command` in its
    invalid- and missing-command errors.
    """
    p = argparse.ArgumentParser(
        prog="arrr",
        description="Adaptive reduced rank regression: fit, synthetic "
                    "benchmarks, baselines, backtests, packing verification.")
    sub = p.add_subparsers(dest="command", required=True,
                           metavar=None if only is None else "{%s}" % ",".join(SUBPARSERS))
    for name in SUBPARSERS if only is None else (only,):
        SUBPARSERS[name](sub, name)
    return p


def _run_command(args) -> int:
    if args.command in COMMANDS:
        return COMMANDS[args.command](args)
    _want(args.jobs >= 1, "--jobs must be >= 1")
    cfg = load_config(args.config, args.command)
    return run_experiment(args.command, cfg, args.out, args.jobs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run builds only its own subcommand's parser; help, no command and an
    # unknown command need the full one
    args = build_parser(argv[0] if argv and argv[0] in SUBPARSERS else None).parse_args(argv)
    # predict's --out is a file; error.json belongs next to it
    err_dir = (os.path.dirname(args.out) or ".") if args.command == "predict" else args.out
    try:
        return _overflow_raises(_run_command, args)
    # numerical errors first: the estimator's NumericalFailures and
    # LinAlgError are ValueErrors too
    except NUMERICAL_ERRORS as e:
        return _numerical_failure(err_dir, e)
    except (ValueError, OSError) as e:
        # bad user input: a library range check, a JSON type check, or an
        # unreadable or malformed file
        print("error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # a request too large for this machine, such as synth dimensions
        # whose matrices numpy cannot allocate
        print("error: %s needs more memory than is available: %s" % (args.command, e),
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
