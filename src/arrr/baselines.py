"""Competing linear regressors behind one interface.

Methods: ridge, reduced-rank regression (rrr), reduced-rank ridge, principal
component regression (pcr), per-column lasso via coordinate descent, and
nuclear-norm regularized regression via proximal gradient.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._serde import read_matrix_csv, write_matrix_csv
from ._version import __version__
from .metrics import pooled_scores
from .spectral import decompose

METHODS = ("ridge", "rrr", "reduced_rank_ridge", "pcr", "lasso", "nuclear")


@dataclass(frozen=True)
class SolverOpts:
    max_iters: int = 5000
    tol: float = 1e-8


@dataclass(frozen=True)
class BaselineSpec:
    method: str
    mu: float = 0.0
    rank: Optional[int] = None
    solver: SolverOpts = field(default_factory=SolverOpts)

    def validate(self, d1=None, d2=None, n=None):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if not self.mu >= 0:  # NaN fails too
            raise ValueError("mu must be non-negative")
        if self.solver.tol <= 0:
            raise ValueError("tol must be positive")
        if self.solver.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        needs_rank = self.method in ("rrr", "reduced_rank_ridge", "pcr")
        if needs_rank and self.rank is None:
            raise ValueError("%s requires a rank" % self.method)
        if self.rank is not None:
            if self.rank < 1:
                raise ValueError("rank must be >= 1")
            if d1 is not None and d2 is not None:
                # pcr counts design components; the others bound coefficient rank
                if self.method == "pcr":
                    bound = min(d1, n if n else d1)
                else:
                    bound = min(d1, d2, n if n else d1)
                if self.rank > bound:
                    raise ValueError("rank %d exceeds the problem dimensions" % self.rank)


@dataclass(frozen=True)
class LinearModel:
    m_hat: np.ndarray
    method: BaselineSpec
    iterations_used: int
    objective_trace: np.ndarray
    converged: bool = True


def _ridge_coef(x, y, mu):
    # B = argmin ||Y - XB||_F^2 + mu ||B||_F^2, returned as d1 x d2.
    n, d1 = x.shape
    if mu == 0.0:
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        return coef
    if d1 <= n:
        return np.linalg.solve(x.T @ x + mu * np.eye(d1), x.T @ y)
    # dual form: (X^T X + mu I)^-1 X^T = X^T (X X^T + mu I)^-1
    return x.T @ np.linalg.solve(x @ x.T + mu * np.eye(n), y)


def _rank_truncate_fit(coef, y_proj_target, rank):
    # Project the fitted values onto their top right singular directions and
    # pull the truncation back into coefficient space.
    dec = decompose(y_proj_target)
    v_r = dec.v[:, :rank]
    return coef @ v_r @ v_r.T


def _fit_rrr(x, y, rank):
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)  # min-norm when rank-deficient
    fitted = x @ coef
    return _rank_truncate_fit(coef, fitted, rank)


def _fit_reduced_rank_ridge(x, y, mu, rank):
    # Ridge fit, then rank truncation of the fitted values in the ridge
    # metric: the truncation is computed on [X; sqrt(mu) I] @ B so the
    # penalty term participates in the geometry.
    coef = _ridge_coef(x, y, mu)
    aug = np.vstack([x, np.sqrt(mu) * np.eye(x.shape[1])]) if mu > 0 else x
    return _rank_truncate_fit(coef, aug @ coef, rank)


def _fit_pcr(x, y, rank):
    dec = decompose(x)
    v_r = dec.v[:, :rank]
    scores = x @ v_r
    gamma, *_ = np.linalg.lstsq(scores, y, rcond=None)
    return v_r @ gamma


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _fit_lasso(x, y, mu, opts):
    # Coordinate descent on 0.5 ||y_j - X b||^2 + mu ||b||_1, all response
    # columns advanced together, until the largest coefficient change in a
    # sweep drops below tol.
    n, d1 = x.shape
    d2 = y.shape[1]
    beta = np.zeros((d1, d2))
    resid = y.copy()
    col_sq = np.sum(x ** 2, axis=0)
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, opts.max_iters + 1):
        max_change = 0.0
        for k in range(d1):
            if col_sq[k] == 0.0:
                continue
            old = beta[k, :].copy()
            rho = x[:, k] @ resid + col_sq[k] * old
            new = _soft(rho, mu) / col_sq[k]
            delta = new - old
            change = float(np.max(np.abs(delta)))
            if change > 0.0:
                resid -= np.outer(x[:, k], delta)
                beta[k, :] = new
                max_change = max(max_change, change)
        trace.append(0.5 * float(np.sum(resid ** 2)) + mu * float(np.sum(np.abs(beta))))
        if max_change < opts.tol:
            converged = True
            break
    return beta, sweeps, np.array(trace), converged


def _nuclear_objective(x, y, b, mu):
    s = np.linalg.svd(b, compute_uv=False)
    return 0.5 * float(np.sum((y - x @ b) ** 2)) + mu * float(np.sum(s))


def _fit_nuclear(x, y, mu, opts):
    # Proximal gradient with fixed step 1/L, L = sigma_max(X)^2; the prox is
    # singular-value soft thresholding at mu/L. Stops when the objective
    # change within a step falls below tol.
    n, d1 = x.shape
    d2 = y.shape[1]
    ell = float(np.linalg.norm(x, 2)) ** 2
    if ell == 0.0:
        return np.zeros((d1, d2)), 0, np.array([]), True
    step = 1.0 / ell
    b = np.zeros((d1, d2))
    trace = [_nuclear_objective(x, y, b, mu)]
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        grad = x.T @ (x @ b - y)
        z = b - step * grad
        if mu > 0:
            dec = decompose(z)
            s = np.maximum(dec.s - mu * step, 0.0)
            b = (dec.u * s) @ dec.v.T
        else:
            b = z
        obj = _nuclear_objective(x, y, b, mu)
        trace.append(obj)
        if abs(trace[-2] - obj) < opts.tol:
            converged = True
            break
    return b, iters, np.array(trace), converged


def fit_baseline(spec: BaselineSpec, x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Fit one baseline. Coefficients are stored as m_hat (d2 x d1), so
    predictions are x @ m_hat.T for every method.

    Iterative solvers that fail to converge within max_iters come back with
    converged=False rather than raising.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x and y must be matrices with matching rows")
    spec.validate(d1=x.shape[1], d2=y.shape[1], n=x.shape[0])

    iters, trace, converged = 0, np.array([]), True
    if spec.method == "ridge":
        coef = _ridge_coef(x, y, spec.mu)
    elif spec.method == "rrr":
        coef = _fit_rrr(x, y, spec.rank)
    elif spec.method == "reduced_rank_ridge":
        coef = _fit_reduced_rank_ridge(x, y, spec.mu, spec.rank)
    elif spec.method == "pcr":
        coef = _fit_pcr(x, y, spec.rank)
    elif spec.method == "lasso":
        coef, iters, trace, converged = _fit_lasso(x, y, spec.mu, spec.solver)
    else:
        coef, iters, trace, converged = _fit_nuclear(x, y, spec.mu, spec.solver)

    return LinearModel(
        m_hat=coef.T,
        method=spec,
        iterations_used=iters,
        objective_trace=trace,
        converged=converged,
    )


def predict_linear(model: LinearModel, x_new: np.ndarray) -> np.ndarray:
    x_new = np.asarray(x_new, dtype=float)
    return x_new @ model.m_hat.T


def validate_hyperparams(
    spec_grid: Sequence[BaselineSpec],
    train: Tuple[np.ndarray, np.ndarray],
    valid: Tuple[np.ndarray, np.ndarray],
    metric: Optional[Callable[[LinearModel, np.ndarray, np.ndarray], float]] = None,
) -> BaselineSpec:
    """Fit every spec on train, score on valid, return the argmin.

    Ties break to the first occurrence in the grid. The default metric is the
    variance-normalized out-of-sample MSE.
    """
    if not spec_grid:
        raise ValueError("empty hyperparameter grid")
    if metric is None:
        def metric(model, xv, yv):
            return pooled_scores(np.asarray(yv, dtype=float), predict_linear(model, xv))[0]

    x_tr, y_tr = train
    x_va, y_va = valid
    best_spec, best_score = None, None
    for spec in spec_grid:
        model = fit_baseline(spec, x_tr, y_tr)
        score = float(metric(model, x_va, y_va))
        if best_score is None or score < best_score:
            best_spec, best_score = spec, score
    return best_spec


def save_linear_model(model: LinearModel, dirpath: str) -> None:
    """Same directory convention as the main estimator: meta.json + m_hat.csv."""
    os.makedirs(dirpath, exist_ok=True)
    spec = model.method
    meta = {
        "method": spec.method,
        "mu": spec.mu,
        "rank": spec.rank,
        "max_iters": spec.solver.max_iters,
        "tol": spec.solver.tol,
        "iterations_used": model.iterations_used,
        "converged": model.converged,
        "d1": model.m_hat.shape[1],
        "d2": model.m_hat.shape[0],
        "library_version": __version__,
    }
    with open(os.path.join(dirpath, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    write_matrix_csv(os.path.join(dirpath, "m_hat.csv"), model.m_hat)


def load_linear_model(dirpath: str) -> LinearModel:
    with open(os.path.join(dirpath, "meta.json")) as f:
        meta = json.load(f)
    spec = BaselineSpec(
        method=meta["method"],
        mu=float(meta["mu"]),
        rank=meta["rank"],
        solver=SolverOpts(max_iters=int(meta["max_iters"]), tol=float(meta["tol"])),
    )
    return LinearModel(
        m_hat=read_matrix_csv(os.path.join(dirpath, "m_hat.csv")),
        method=spec,
        iterations_used=int(meta["iterations_used"]),
        objective_trace=np.array([]),
        converged=bool(meta["converged"]),
    )
