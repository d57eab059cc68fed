"""Competing linear regressors behind one interface.

Methods: ridge, reduced-rank regression (rrr), reduced-rank ridge, principal
component regression (pcr), lasso, and nuclear-norm regularized regression.

The four direct methods are one spectral filter V diag(f(s)) U^T y on the
thin SVD of the design, so a hyperparameter grid over them is fitted from one
factorization. Lasso and nuclear norm minimize 0.5 ||y - x b||^2 + mu r(b)
by one accelerated proximal-gradient loop on the Gram matrix x^T x, with
r's prox as its only difference: soft thresholding of the entries or of the
singular values. The singular values come from the eigendecomposition of the
iterate's smaller Gram matrix, or from its SVD when the threshold is too small
for the Gram matrix to resolve. Every method takes ||x||_2 or the filter from
one SVD of the design. `validate_hyperparams` returns the fitted winner, so
its callers score it without refitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .estimator import require_finite
from .metrics import lowest, pooled_scores
from .spectral import SpectralDecomposition, decompose

METHODS = ("ridge", "rrr", "reduced_rank_ridge", "pcr", "lasso", "nuclear")
ITERATIVE = ("lasso", "nuclear")


@dataclass(frozen=True)
class SolverOpts:
    """Budget of the iterative solvers (lasso, nuclear). A fit converges when
    its prox-gradient residual ||z - p||_F / step, the gradient mapping at the
    last point stepped from, is at most tol * max(1, ||x^T y||_F)."""

    max_iters: int = 5000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class BaselineSpec:
    """One baseline method and its hyperparameters. The rank is checked
    against the problem size when the spec is fitted."""

    method: str
    mu: float = 0.0
    rank: Optional[int] = None
    solver: SolverOpts = field(default_factory=SolverOpts)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if not 0 <= self.mu < math.inf:  # NaN fails too
            raise ValueError("mu must be non-negative and finite")
        if self.method in ("rrr", "reduced_rank_ridge", "pcr") and self.rank is None:
            raise ValueError("%s requires a rank" % self.method)
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class LinearModel:
    m_hat: np.ndarray
    method: BaselineSpec
    iterations_used: int
    objective_trace: np.ndarray
    converged: bool = True


def _svd_filter(dec, y):
    """The coefficients (d1 x d2) of a direct method as a function of its
    spec: V diag(f) U^T y from the thin SVD x = U diag(s) V^T.

    Ridge's filter is f = s / (s^2 + mu). At mu = 0 it is 1/s above lstsq's
    cutoff eps * max(n, d1) * s_1 and 0 below, the minimum-norm least-squares
    fit. PCR zeroes f past its rank. Reduced-rank ridge projects the ridge fit
    onto the top right singular vectors of its fitted values in the ridge
    metric, [X; sqrt(mu) I] B, whose Gram matrix is that of
    diag(sqrt(f * s)) U^T y; rrr is its mu = 0 case. That matrix depends on
    mu and not on the rank, so U^T y is formed once and its SVD taken once
    per mu: every rank of a grid slices the same right singular vectors, and
    each fit is the one a fresh filter gives, bit for bit.
    """
    s, uty = dec.s, dec.u.T @ y
    s_1 = s[0] if s.size else 0.0  # an empty design has no singular values
    keep = s > np.finfo(float).eps * max(dec.u.shape[0], dec.v.shape[0]) * s_1
    fitted_v = {}  # mu -> right singular vectors of the fitted values

    def coef(spec):
        mu = spec.mu if spec.method in ("ridge", "reduced_rank_ridge") else 0.0
        if mu > 0:
            f = s / (s * s + mu)
        else:
            f = np.zeros_like(s)
            f[keep] = 1.0 / s[keep]
        if spec.method == "pcr":
            f[spec.rank:] = 0.0
        g = f[:, None] * uty
        if spec.method in ("rrr", "reduced_rank_ridge"):
            if mu not in fitted_v:
                fitted_v[mu] = decompose(np.sqrt(f * s)[:, None] * uty).v
            v_r = fitted_v[mu][:, :spec.rank]
            g = g @ v_r @ v_r.T
        return dec.v @ g

    return coef


def _prox_l1(v, t):
    """Soft thresholding at t, and the l1 norm of the result."""
    m = np.maximum(np.abs(v) - t, 0.0)
    return np.sign(v) * m, float(np.sum(m))


def _prox_nuclear(v, t):
    """Singular-value soft thresholding at t, and the nuclear norm of the
    result: the sum of the thresholded singular values.

    Only the singular values s_k > t and their right vectors w_k matter, so
    they come from eigh of the Gram matrix of a = v (v.T if v is wide), with
    s_k = ||a w_k||, which is accurate where sqrt(lambda_k) is not. The Gram
    matrix holds no digits below eps * lambda_max, so when t^2 < 1e-8
    lambda_max, where the result would lose more than about 1e-12 s_max, the
    prox takes the SVD of v instead.
    """
    a = v.T if v.shape[0] < v.shape[1] else v
    lam, w = np.linalg.eigh(a.T @ a)
    if lam.size and t * t < 1e-8 * lam[-1]:
        dec = decompose(v)
        s = np.maximum(dec.s - t, 0.0)
        return (dec.u * s) @ dec.v.T, float(np.sum(s))
    w = w[:, lam > t * t]
    aw = a @ w
    s = np.sqrt(np.einsum("ij,ij->j", aw, aw))
    p = (aw * (1.0 - t / s)) @ w.T
    return (p.T if a is not v else p), float(np.sum(s - t))


def _fit_proximal(x, y, mu, prox, opts, ell):
    """Minimize F(b) = 0.5 ||y - x b||^2 + mu r(b) by accelerated proximal
    gradient with restart, where prox(v, t) returns the prox of t r at v and
    r of the result, and ell = ||x||_2^2.

    C = x^T y and G = x^T x are formed once, and the momentum point z carries
    G z, so a step costs one G-product and one prox; the step size is
    1 / ell. A step is taken only if F does not rise. F(p) - F(b) =
    <p - b, G (p + b) / 2 - C> + mu (r(p) - r(b)) is computed from
    differences, as F itself is dominated by ||y||^2. A rejected step
    restarts the momentum at b, and a rejected plain step ends the loop at
    the rounding floor. Converged means the residual ||z - p||_F / step is at
    most tol * max(1, ||C||_F). The trace holds F at b = 0 and after each
    step taken, so it never rises.
    """
    g, c = x.T @ x, x.T @ y
    step = 1.0 / ell if ell > 0.0 else 1.0  # a zero design stays at b = 0
    bound = opts.tol * max(1.0, float(np.linalg.norm(c)))
    b, gb = np.zeros_like(c), np.zeros_like(c)
    z, gz = np.zeros_like(c), np.zeros_like(c)  # updated in place, never aliased
    r_b, t = 0.0, 1.0
    trace = [0.5 * float(np.sum(y * y))]
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        v = z - step * (gz - c)
        p, r_p = prox(v, mu * step) if mu > 0 else (v, 0.0)
        gp = g @ p
        e = (z - p).ravel()
        resid = math.sqrt(e @ e) / step
        diff = p - b
        change = float(diff.ravel() @ (0.5 * (gp + gb) - c).ravel()) + mu * (r_p - r_b)
        if change > 0.0:
            if t == 1.0:  # even a plain step rose: b is at the rounding floor
                converged = resid <= bound
                break
            z[...], gz[...], t = b, gb, 1.0
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        w = (t - 1.0) / t_next
        np.add(p, w * diff, out=z)
        np.add(gp, w * (gp - gb), out=gz)
        b, gb, r_b, t = p, gp, r_p, t_next
        trace.append(trace[-1] + change)
        if resid <= bound:
            converged = True
            break
    return b, iters, np.array(trace), converged


def fit_baseline(spec: BaselineSpec, x: np.ndarray, y: np.ndarray,
                 dec: Optional[SpectralDecomposition] = None,
                 direct: Optional[Callable[[BaselineSpec], np.ndarray]] = None) -> LinearModel:
    """Fit one baseline. Coefficients are stored as m_hat (d2 x d1), so
    predictions are x @ m_hat.T for every method.

    The direct methods (ridge, rrr, reduced_rank_ridge, pcr) are filters on
    the thin SVD of x, and the iterative ones take their step from its top
    singular value. The SVD comes from `dec` when the caller already has it,
    and a direct method's filter from `direct`, a `_svd_filter` of that SVD
    and y shared by a grid; the result is the same bit for bit. Iterative
    solvers that fail to converge within max_iters come back with
    converged=False rather than raising.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x and y must be matrices with matching rows")
    (n, d1), d2 = x.shape, y.shape[1]
    if spec.rank is not None:
        # pcr counts design components; the others bound coefficient rank
        bound = min(d1, n or d1) if spec.method == "pcr" else min(d1, d2, n or d1)
        if spec.rank > bound:
            raise ValueError("rank %d exceeds the problem dimensions" % spec.rank)

    dec = decompose(x) if dec is None else dec
    iters, trace, converged = 0, np.array([]), True
    if spec.method in ITERATIVE:
        prox = _prox_l1 if spec.method == "lasso" else _prox_nuclear
        ell = float(dec.s[0]) ** 2 if dec.s.size else 0.0
        coef, iters, trace, converged = _fit_proximal(x, y, spec.mu, prox, spec.solver, ell)
    else:
        coef = (direct or _svd_filter(dec, y))(spec)

    return LinearModel(
        m_hat=coef.T,
        method=spec,
        iterations_used=iters,
        objective_trace=trace,
        converged=converged,
    )


def predict_linear(model: LinearModel, x_new: np.ndarray) -> np.ndarray:
    """Predictions x_new @ m_hat.T for new feature rows."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 2 or x_new.shape[1] != model.m_hat.shape[1]:
        raise ValueError("x_new must have %d columns" % model.m_hat.shape[1])
    require_finite("x_new", x_new)
    return x_new @ model.m_hat.T


def validate_hyperparams(
    spec_grid: Sequence[BaselineSpec],
    train: Tuple[np.ndarray, np.ndarray],
    valid: Tuple[np.ndarray, np.ndarray],
    dec: Optional[SpectralDecomposition] = None,
) -> LinearModel:
    """Fit every spec on train, score on valid, return the fitted argmin.

    The score is the pooled variance-normalized MSE of the predictions on
    valid. The winner's spec is its `.method`. Every spec of the grid shares
    one SVD of the training design, taken from `dec` when the caller already
    has it, and the direct specs share one `_svd_filter`: U^T y is formed
    once per grid and the SVD of rrr's and reduced-rank ridge's fitted
    values once per mu, and each fit equals a fresh `fit_baseline` bit for
    bit. The winner is `metrics.lowest` of the scores: ties break
    to the first occurrence in the grid and an undefined (NaN) score never
    wins. A grid with no defined score, as on a constant validation
    response, raises ValueError.
    """
    if not spec_grid:
        raise ValueError("empty hyperparameter grid")
    x_tr, y_tr = train
    x_va, y_va = valid
    y_tr, y_va = np.asarray(y_tr, dtype=float), np.asarray(y_va, dtype=float)
    if dec is None:
        dec = decompose(x_tr)
    direct = None
    if any(spec.method not in ITERATIVE for spec in spec_grid):
        direct = _svd_filter(dec, y_tr)
    models = (fit_baseline(spec, x_tr, y_tr, dec, direct) for spec in spec_grid)
    best = lowest((pooled_scores(y_va, predict_linear(m, x_va))[0], m) for m in models)
    if best is None:
        raise ValueError("no spec of the grid scored a defined validation MSE")
    return best
