"""Competing linear regressors behind one interface.

Methods: ridge, reduced-rank regression (rrr), reduced-rank ridge, principal
component regression (pcr), lasso, and nuclear-norm regularized regression.

The four direct methods are one spectral filter V diag(f(s)) U^T y on the
thin SVD of the design, so a hyperparameter grid over them is fitted from one
factorization; rrr and reduced-rank ridge then project onto eigenvectors of
their fitted values' small Gram matrix, factored once per mu. Lasso and
nuclear norm minimize 0.5 ||y - x b||^2 + mu r(b) by one over-relaxed ADMM
loop (`_fit_admm`) whose least-squares step is an operator built from that
same SVD (`_b_step`), with r's prox as their only difference: soft
thresholding of the entries or of the singular values. At mu = 0 both are
the filter's minimum-norm least-squares fit.
`validate_hyperparams` returns the fitted winner, so its callers score it
without refitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .estimator import predict, require_xy
from .metrics import lowest, validation_mse
from .spectral import SpectralDecomposition, decompose, numerical_rank

# The hyperparameters each method reads: one that reads a rank requires it,
# and a spec sets no other. The ITERATIVE methods fit by `_fit_admm` at mu > 0.
READS = {"ridge": ("mu",), "rrr": ("rank",), "reduced_rank_ridge": ("mu", "rank"),
         "pcr": ("rank",), "lasso": ("mu",), "nuclear": ("mu",)}
ITERATIVE = ("lasso", "nuclear")
ALPHA = 1.6  # the over-relaxation of `_fit_admm`
# `_fit_admm`'s budget: its iterations, and the relative duality gap and the
# stationarity residual at which a fit converges. The gap bounds
# (F(b) - min F) / F(b), so a converged fit is within TOL F(b) of the minimum
# of its objective F. It bounds b only by its square root, so a converged fit
# also has x^T (y - x b) within KKT_TOL mu, in r's dual norm, of mu times r's
# subdifferential at b.
MAX_ITERS = 5000
TOL = 1e-10
KKT_TOL = 1e-7
# A Gram matrix holds no digits below eps times its largest eigenvalue, so
# where a result would rest on an eigenvalue below GRAM_FLOOR times the
# largest, and lose more than about 1e-12 s_1 through it, `_prox_nuclear`
# and `_svd_filter` take an SVD instead.
GRAM_FLOOR = 1e-8


@dataclass(frozen=True)
class BaselineSpec:
    """One baseline method and the hyperparameters it reads (READS), each
    other left at its default, since it would only fit the same model again.
    The rank is checked against the problem size when the spec is fitted.
    Lasso and nuclear run ADMM at the module's MAX_ITERS and TOL."""

    method: str
    mu: float = 0.0
    rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.method not in READS:
            raise ValueError("unknown method %r" % (self.method,))
        if not 0 <= self.mu < math.inf:  # NaN fails too
            raise ValueError("mu must be non-negative and finite")
        for key, unset in (("mu", 0.0), ("rank", None)):
            if key not in READS[self.method] and getattr(self, key) != unset:
                raise ValueError("%s takes no %s" % (self.method, key))
        if "rank" in READS[self.method] and self.rank is None:
            raise ValueError("%s requires a rank" % self.method)
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class LinearModel:
    """A fitted baseline, m_hat d2 x d1. Lasso and nuclear at mu > 0 report
    the iterations, convergence and relative duality gap that `_fit_admm`
    returns; every other fit is exact: 0 iterations, converged, gap 0."""

    m_hat: np.ndarray
    method: BaselineSpec
    iterations_used: int
    converged: bool = True
    gap: float = 0.0


def _svd_filter(dec, y):
    """The coefficients (d1 x d2) of a direct method as a function of its
    spec: V diag(f) U^T y from the thin SVD x = U diag(s) V^T.

    Ridge's filter is f = s / (s^2 + mu). At mu = 0 it is 1/s on the
    numerical rank of x (lstsq's cutoff) and 0 past it, the minimum-norm
    least-squares fit. PCR zeroes f past its rank. Reduced-rank ridge
    projects the ridge fit onto the top right singular vectors of its fitted
    values in the ridge metric, [X; sqrt(mu) I] B, whose Gram matrix is that
    of a = diag(sqrt(f * s)) U^T y; rrr is its mu = 0 case. Those vectors are
    the eigenvectors of the d2 x d2 Gram matrix a^T a by descending
    eigenvalue (Izenman 1975). It depends on mu and not on the rank, so U^T y
    is formed once and the Gram matrix factored by eigh once per mu: every
    rank of a grid slices the same eigenvectors. A rank whose smallest kept
    eigenvalue is below GRAM_FLOOR times the largest slices the right
    singular vectors of a instead, also taken once per mu. Each fit is the
    one a fresh filter gives, bit for bit.
    """
    s, uty = dec.s, dec.u.T @ y
    rank = numerical_rank(s, (dec.u.shape[0], dec.v.shape[0]))
    grams = {}  # mu -> fitted values, and their Gram's eigenpairs, descending
    fitted_v = {}  # mu -> right singular vectors of the fitted values

    def coef(spec):
        if spec.mu > 0:
            f = s / (s * s + spec.mu)
        else:
            f = np.zeros_like(s)
            f[:rank] = 1.0 / s[:rank]
        if spec.method == "pcr":
            f[spec.rank:] = 0.0
        g = f[:, None] * uty
        if spec.rank is not None and spec.method != "pcr":
            if spec.mu not in grams:
                a = np.sqrt(f * s)[:, None] * uty
                lam, w = np.linalg.eigh(a.T @ a)
                grams[spec.mu] = a, lam[::-1], w[:, ::-1]
            a, lam, w = grams[spec.mu]
            if lam[spec.rank - 1] < GRAM_FLOOR * lam[0]:
                if spec.mu not in fitted_v:
                    fitted_v[spec.mu] = decompose(a).v
                w = fitted_v[spec.mu]
            v_r = w[:, :spec.rank]
            g = g @ v_r @ v_r.T
        return dec.v @ g

    return coef


def _prox_l1(v, t):
    """Soft thresholding at t, and the thresholded magnitudes
    m = max(|v| - t, 0), whose sum is the l1 norm of the result."""
    m = np.abs(v)
    m -= t
    np.maximum(m, 0.0, out=m)
    z = np.sign(v)
    z *= m
    return z, m


def _prox_nuclear(v, t):
    """Singular-value soft thresholding at t, and the thresholded singular
    values, whose sum is the nuclear norm of the result.

    Only the singular values s_k > t and their right vectors w_k matter, so
    they come from eigh of the Gram matrix of a = v (v.T if v is wide), with
    s_k = ||a w_k||, which is accurate where sqrt(lambda_k) is not. When t^2 <
    GRAM_FLOOR lambda_max, the prox takes the SVD of v instead.
    """
    a = v.T if v.shape[0] < v.shape[1] else v
    lam, w = np.linalg.eigh(a.T @ a)
    if lam.size and t * t < GRAM_FLOOR * lam[-1]:
        dec = decompose(v)
        s = np.maximum(dec.s - t, 0.0)
        return (dec.u * s) @ dec.v.T, s
    w = w[:, lam > t * t]
    aw = a @ w
    s = np.sqrt(np.einsum("ij,ij->j", aw, aw))
    aw *= 1.0 - t / s
    p = aw @ w.T
    return (p.T if a is not v else p), s - t


def _objective_and_gap(x, y, z, r_z, mu, lasso):
    """F(z) = 0.5 ||y - x z||^2 + mu r(z) and the relative duality gap
    (F(z) - D(theta)) / F(z), 0 where F(z) = 0. theta = a e, the residual
    e = y - x z scaled by a <= 1 into the dual ball ||x^T theta||_* <= mu
    (the largest absolute entry for lasso, singular value for nuclear), and
    D(theta) = 0.5 ||y||^2 - 0.5 ||y - theta||^2. As y = x z + e, F - D is
    0.5 (1 - a)^2 ||e||^2 + mu r(z) - a <z, x^T e>, two terms non-negative in
    exact arithmetic, so it is formed without cancelling ||y||^2. Returns F,
    the gap and x^T e."""
    e = y - x @ z
    g = x.T @ e
    e2 = float(np.sum(e * e))
    f = 0.5 * e2 + mu * r_z
    norm = _dual_norm(g, lasso)
    a = mu / norm if norm > mu else 1.0
    gap = 0.5 * (1.0 - a) ** 2 * e2 + mu * r_z - a * float(z.ravel() @ g.ravel())
    return f, (gap / f if f > 0.0 else 0.0), g


def _dual_norm(g, lasso):
    """The dual norm of r at g: its largest absolute entry for lasso, its
    largest singular value for nuclear."""
    return float(np.max(np.abs(g) if lasso else np.linalg.svd(g, compute_uv=False), initial=0.0))


def _b_step(dec, y, rho):
    """The map r -> (x^T x + rho I)^{-1} (x^T y + rho r) on the thin SVD
    x = U diag(s) V^T of `dec`, exact for every shape of x: with
    g = s^2 / (s^2 + rho), it is V diag(s / (s^2 + rho)) U^T y, formed once
    per rho, plus r - V diag(g) V^T r, two thin products per step. Each
    step returns a new array and leaves ky and r as they were."""
    v, s2 = dec.v, dec.s * dec.s
    g = (s2 / (s2 + rho))[:, None]
    ky = v @ ((dec.s / (s2 + rho))[:, None] * (dec.u.T @ y))

    def step(r):
        b = ky + r
        vtr = v.T @ r
        vtr *= g
        b -= v @ vtr
        return b

    return step


def _fit_admm(x, y, mu, dec, lasso):
    """Minimize F(b) = 0.5 ||y - x b||^2 + mu r(b), mu > 0, r the l1 norm
    (lasso) or the nuclear norm, by ADMM on the split b = z (Boyd, Parikh,
    Chu, Peleato & Eckstein 2011, section 6.4), over-relaxed by ALPHA
    (section 3.4.3): any ALPHA in (0, 2) converges (Eckstein & Bertsekas
    1992), and 1.6 is OSQP's default (Stellato et al. 2020).

    The fit starts at b = 0, and if the relative duality gap there is at
    most TOL and ||x^T y||_* <= (1 + KKT_TOL) mu, which is stationarity at
    0, it returns b = 0 at once: 0 iterations, converged. The gap at 0 is
    (1 - a)^2, a = min(1, mu / ||x^T y||_*), or 0 for y = 0, so this holds
    with gap 0 exactly when ||x^T y||_* <= mu, where b = 0 is the minimum,
    as on a zero or empty design.

    An iteration takes the exact least-squares step b = `_b_step`(z - u),
    rebuilt whenever rho changes, relaxes it to b' = ALPHA b + (1 - ALPHA) z,
    then sets z = prox(b' + u, mu / rho) and u += b' - z, updating b and u
    in place. The first step, from z = u = 0, is not relaxed: that would
    only scale it by ALPHA, past the threshold of a fit whose solution is
    b = 0. rho starts at s_1 s_r, s_r the last singular value within the
    numerical rank of x. z is checked at iteration 1, every 10th and the
    last; r(z) is summed, from the magnitudes the prox kept, at checks only.
    Neither changes a float operation or its operands, so the fits are
    those of a loop with a fresh array per temporary, bit for bit. At each
    check of the first 200 iterations, rho is doubled if ||b' - z|| / ||z||
    exceeds ||z - z_prev|| / ||u|| and halved if not, with u rescaled: both
    are ratios, so the iterates scale exactly with x, y and mu. rho then stays
    fixed, as ADMM's convergence needs (Boyd et al., section 3.4.1). The fit
    converges at the first check whose relative duality gap
    (`_objective_and_gap`) is at most TOL and whose stationarity residual
    ||x^T (y - x z) - rho u||_* is at most KKT_TOL mu: each prox leaves rho u
    in mu times r's subdifferential at z (Boyd et al., section 3.3.1). It
    stops short at MAX_ITERS, or at the rounding floor: 30 checks in a row
    that lower neither F nor the gap. MAX_ITERS, TOL and KKT_TOL are read at
    each call. F may rise between checks: ADMM does not descend in F (Boyd
    et al., section 3.2). Returns that z, or else the checked z of lowest F; the iterations;
    whether it converged; and the returned z's gap.
    """
    shape = (x.shape[1], y.shape[1])
    z, u = np.zeros(shape), np.zeros(shape)
    f, gap, g = _objective_and_gap(x, y, z, 0.0, mu, lasso)
    if gap <= TOL and _dual_norm(g, lasso) <= (1.0 + KKT_TOL) * mu:
        return z, 0, True, gap  # certified, as whenever ||x^T y||_* <= mu
    prox = _prox_l1 if lasso else _prox_nuclear
    s = dec.s
    rank = numerical_rank(s, x.shape)
    rho = float(s[0] * s[rank - 1]) if rank else 1.0  # any rho fits a zero design
    step = _b_step(dec, y, rho)
    best, lowest_f, lowest_gap, stalled, iters = z, f, gap, 0, 0
    for iters in range(1, MAX_ITERS + 1):
        b = step(z - u)
        if iters > 1:
            b *= ALPHA
            b += (1.0 - ALPHA) * z
        z_prev = z
        z, m = prox(b + u, mu / rho)
        b -= z  # the primal residual b' - z
        u += b
        if iters != 1 and iters % 10 and iters != MAX_ITERS:
            continue
        f, z_gap, g = _objective_and_gap(x, y, z, float(np.sum(m)), mu, lasso)
        progress = f < lowest_f or z_gap < lowest_gap
        lowest_gap = min(lowest_gap, z_gap)
        if f <= lowest_f:
            best, lowest_f, gap = z, f, z_gap
        if z_gap <= TOL and _dual_norm(g - rho * u, lasso) <= KKT_TOL * mu:
            return z, iters, True, z_gap
        stalled = 0 if progress else stalled + 1
        if stalled >= 30:
            break
        if iters < 200:
            primal2 = float(np.sum(b * b)) * float(np.sum(u * u))
            dual2 = float(np.sum((z - z_prev) ** 2)) * float(np.sum(z * z))
            rho, scale = (2.0 * rho, 0.5) if primal2 > dual2 else (0.5 * rho, 2.0)
            u *= scale
            step = _b_step(dec, y, rho)
    return best, iters, False, gap


def fit_baseline(spec: BaselineSpec, x: np.ndarray, y: np.ndarray,
                 dec: Optional[SpectralDecomposition] = None,
                 direct: Optional[Callable[[BaselineSpec], np.ndarray]] = None) -> LinearModel:
    """Fit one baseline. Coefficients are stored as m_hat (d2 x d1), so
    predictions are x @ m_hat.T for every method.

    The direct methods (ridge, rrr, reduced_rank_ridge, pcr), and lasso and
    nuclear at mu = 0, are filters on the thin SVD of x; lasso and nuclear at
    mu > 0 solve their least-squares steps on it. The SVD comes from `dec`
    when the caller already has it, and a filter from `direct`, a
    `_svd_filter` of that SVD and y shared by a grid; the result is the same
    bit for bit. An iterative fit that stops short of its certificate comes
    back with converged=False and its gap rather than raising.
    """
    x, y = require_xy("x and y", x, y)
    (n, d1), d2 = x.shape, y.shape[1]
    if spec.rank is not None:
        # pcr counts design components; the others bound coefficient rank
        bound = min(d1, n or d1) if spec.method == "pcr" else min(d1, d2, n or d1)
        if spec.rank > bound:
            raise ValueError("rank %d exceeds the problem dimensions" % spec.rank)

    dec = decompose(x) if dec is None else dec
    iters, converged, gap = 0, True, 0.0
    if spec.method in ITERATIVE and spec.mu > 0:
        coef, iters, converged, gap = _fit_admm(x, y, spec.mu, dec, spec.method == "lasso")
    else:
        coef = (direct or _svd_filter(dec, y))(spec)

    return LinearModel(
        m_hat=coef.T,
        method=spec,
        iterations_used=iters,
        converged=converged,
        gap=gap,
    )


def predict_linear(model: LinearModel, x_new: np.ndarray) -> np.ndarray:
    """Predictions x_new @ m_hat.T for new feature rows, checked as
    `estimator.predict` checks them."""
    return predict(model, x_new)


def validate_hyperparams(
    spec_grid: Sequence[BaselineSpec],
    train: Tuple[np.ndarray, np.ndarray],
    valid: Tuple[np.ndarray, np.ndarray],
    dec: Optional[SpectralDecomposition] = None,
) -> LinearModel:
    """Fit every spec on train, score on valid, return the fitted argmin.

    The score is the pooled variance-normalized MSE of the predictions on
    valid, by one `metrics.validation_mse` scorer of the window, and nothing
    else of them is scored. The winner's spec is its `.method`. Every spec of
    the grid shares one SVD of the training design, taken from `dec` when
    the caller already has it, and the direct specs share one `_svd_filter`:
    U^T y is formed once per grid and the Gram matrix of rrr's and
    reduced-rank ridge's fitted values factored once per mu, and each fit
    equals a fresh `fit_baseline` bit for bit. The winner is
    `metrics.lowest` of the scores: ties break to the first occurrence in the
    grid and an undefined (NaN) score never wins. A grid with no defined
    score, as on a constant validation response, raises ValueError. Both
    windows pass `require_xy` first.
    """
    if not spec_grid:
        raise ValueError("empty hyperparameter grid")
    x_tr, y_tr = require_xy("training x and y", *train)
    x_va, y_va = require_xy("validation x and y", *valid)
    if dec is None:
        dec = decompose(x_tr)
    direct = None
    if any(spec.method not in ITERATIVE for spec in spec_grid):
        direct = _svd_filter(dec, y_tr)
    models = (fit_baseline(spec, x_tr, y_tr, dec, direct) for spec in spec_grid)
    score = validation_mse(y_va)
    best = lowest((score(predict_linear(m, x_va)), m) for m in models)
    if best is None:
        raise ValueError("no spec of the grid scored a defined validation MSE")
    return best
