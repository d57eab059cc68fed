"""Competing linear regressors behind one interface.

Methods: ridge, reduced-rank regression (rrr), reduced-rank ridge, principal
component regression (pcr), lasso, and nuclear-norm regularized regression.

The four direct methods are one spectral filter V diag(f(s)) U^T y on the
thin SVD of the design, so a hyperparameter grid over them is fitted from one
factorization; rrr and reduced-rank ridge then project onto eigenvectors of
their fitted values' small Gram matrix, factored once per mu. Lasso and
nuclear norm minimize 0.5 ||y - x b||^2 + mu r(b) by one over-relaxed ADMM
loop (`_fit_admm`) whose least-squares step is exact on that same SVD.
`_coordinates` holds all that differs between the two: lasso
soft-thresholds the entries of b, and nuclear norm, invariant under V,
soft-thresholds the singular values of V^T b, where its step is
elementwise. At mu = 0 both are the filter's minimum-norm least-squares fit.
`validate_hyperparams` scores a direct spec from its filter in the right
singular basis, forms coefficients only for the winner and returns that
fitted winner, so its callers score it without refitting. The grids of one
`validation_window` share its checks, its one SVD of the training design,
its scorer, the filter and x_va V.
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
    """The filter of a direct method as a function of its spec: g = diag(f)
    U^T y, projected as below, from the thin SVD x = U diag(s) V^T. g is the
    method's coefficients in the right singular basis: they are V g (d1 x
    d2), and its predictions on x_new are (x_new V) g.

    Ridge's filter is f = s / (s^2 + mu). At mu = 0 it is 1/s on the
    numerical rank of x (lstsq's cutoff) and 0 past it, the minimum-norm
    least-squares fit. PCR zeroes f past its rank. Reduced-rank ridge
    projects the ridge fit onto the top right singular vectors of its fitted
    values in the ridge metric, [X; sqrt(mu) I] B, whose Gram matrix is that
    of a = diag(sqrt(f * s)) U^T y; rrr is its mu = 0 case. Those vectors are
    the eigenvectors of the d2 x d2 Gram matrix a^T a by descending
    eigenvalue (Izenman 1975). It depends on mu and not on the rank, so U^T y
    is formed once and the Gram matrix factored by eigh once per mu: every
    rank, of every grid that shares the filter, slices the same
    eigenvectors. A rank whose smallest kept eigenvalue is below GRAM_FLOOR
    times the largest slices the right singular vectors of a instead, also
    taken once per mu. Each g is the one a fresh filter gives, bit for bit.
    """
    s, uty = dec.s, dec.u.T @ y
    rank = numerical_rank(s, (dec.u.shape[0], dec.v.shape[0]))
    grams = {}  # mu -> fitted values, and their Gram's eigenpairs, descending
    fitted_v = {}  # mu -> right singular vectors of the fitted values

    def filt(spec):
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
        return g

    return filt


def _prox_l1(v, t):
    """Soft thresholding at t, as v - clip(v, -t, t), returned twice: the
    second is what r(z) sums, as for `_prox_nuclear`'s singular values."""
    z = v.clip(-t, t)
    return np.subtract(v, z, out=z), z


def _prox_nuclear(v, t):
    """Singular-value soft thresholding at t, and the thresholded singular
    values, whose absolute sum is the nuclear norm of the result.

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


def _objective_and_gap(e2, g, z, r_z, mu, dual_norm):
    """F(z) = 0.5 ||e||^2 + mu r(z) and the relative duality gap
    (F(z) - D(theta)) / F(z), 0 where F(z) = 0, from e2 = ||e||^2 and g =
    x^T e of the residual e = y - x z. theta = a e, scaled by a <= 1 into the
    ball ||x^T theta||_* <= mu of r's dual norm, which `dual_norm` computes,
    and D(theta) = 0.5 ||y||^2 - 0.5 ||y - theta||^2. As y = x z + e, F - D
    is 0.5 (1 - a)^2 ||e||^2 + mu r(z) - a <z, x^T e>, two terms non-negative
    in exact arithmetic, so it is formed without cancelling ||y||^2. z and g
    may be taken in any coordinates that map both by one matrix with
    orthonormal columns, which keeps <z, g> and the dual norm. Returns F, the
    gap and ||g||_*."""
    f = 0.5 * e2 + mu * r_z
    norm = dual_norm(g)
    a = mu / norm if norm > mu else 1.0
    gap = 0.5 * (1.0 - a) ** 2 * e2 + mu * r_z - a * float(z.ravel() @ g.ravel())
    return f, (gap / f if f > 0.0 else 0.0), norm


def _coordinates(y, dec, lasso):
    """All that `_fit_admm` does differently for lasso and nuclear norm, on
    the thin SVD x = U diag(s) V^T of `dec`: (shape of an iterate, (rho,
    alpha) -> step, z -> (||y - x z||^2, x^T (y - x z)), z -> b, r's prox,
    r's dual norm), in the coordinates the method iterates in. A step maps
    (z, u) to a new v = alpha b(z - u) + (1 - alpha) z + u, b(r) = (x^T x +
    rho I)^{-1} (x^T y + rho r) the exact least-squares step, from constants
    formed once per (rho, alpha). A check reads e = U^T y - s V^T z: ||y - x
    z||^2 = ||e||^2 + ||y - U U^T y||^2, the second term formed once, and
    x^T (y - x z) = V (s e).

    Lasso keeps b's coordinates: with g = s^2 / (s^2 + rho) and ky = V
    diag(s / (s^2 + rho)) U^T y, its step is v = alpha ky + z - V ((alpha g)
    V^T (z - u)) + (1 - alpha) u, two thin products; its dual norm is the
    largest absolute entry. The nuclear norm is invariant under V (Cai,
    Candes & Shen 2010), so a nuclear fit runs on z~ = V^T z, r x d2 with r
    = min(n, d1). From z = u = 0 every iterate lies in range(V), since x^T y
    and the b-step's r do and singular-value thresholding keeps a matrix's
    column space, and ||V z~||_* = ||z~||_*. With c = rho / (s^2 + rho), its
    step is elementwise, v = alpha V^T ky + (alpha c + 1 - alpha) z~ + (1 -
    alpha c) u~; its checks form no product; its dual norm is the largest
    singular value. V z~ is formed once, for the returned fit."""
    uty = dec.u.T @ y
    s = dec.s[:, None]
    s2 = s * s
    perp2 = float(np.sum((y - dec.u @ uty) ** 2))

    def residual(vtz):
        e = uty - s * vtz
        return float(np.sum(e * e)) + perp2, s * e

    if lasso:
        def step_at(rho, alpha):
            ky, gvt = dec.v @ (alpha * s / (s2 + rho) * uty), alpha * s2 / (s2 + rho) * dec.v.T

            def step(z, u):
                r = z - u
                p = dec.v @ (gvt @ r)
                v = np.add(ky, z, out=r)
                v -= p
                v += np.multiply(u, 1.0 - alpha, out=p)
                return v

            return step

        def b_residual(z):
            e2, g = residual(dec.v.T @ z)
            return e2, dec.v @ g

        return ((dec.v.shape[0], y.shape[1]), step_at, b_residual, lambda z: z, _prox_l1,
                lambda g: float(np.max(np.abs(g), initial=0.0)))

    def step_at(rho, alpha):
        c = rho / (s2 + rho)
        ky, cz, cu = alpha * s / (s2 + rho) * uty, alpha * c + (1.0 - alpha), 1.0 - alpha * c

        def step(z, u):
            v = cz * z
            v += ky
            v += cu * u
            return v

        return step

    return (uty.shape, step_at, residual, lambda z: dec.v @ z, _prox_nuclear,
            lambda g: float(np.max(np.linalg.svd(g, compute_uv=False), initial=0.0)))


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
    as on a zero or empty design. This check reads x^T y itself, in b's
    coordinates, for either method, and the dual norm the gap computed.

    `_coordinates` gives the method's step, residual, prox and dual norm, in
    b's coordinates for lasso and V's for nuclear, where no step or check
    forms a product with V, x or x^T. Every quantity compared is a Frobenius
    norm, an inner product or a dual norm, all of which V keeps. An
    iteration takes the exact least-squares step b = b(z - u), relaxes it to
    b' = ALPHA b + (1 - ALPHA) z, sets z = prox(b' + u, mu / rho) and u +=
    b' - z: the step returns v = b' + u from constants rebuilt whenever rho
    changes, and u = v - z takes v's array. The first step, from z = u = 0,
    is not relaxed: that would only scale it by ALPHA, past the threshold of
    a fit whose solution is b = 0. rho starts at s_1 s_r, s_r the last
    singular value within the numerical rank of x. z is checked at iteration
    1, every 10th and the last; r(z), from what the prox returns, and the
    primal residual b' - z = u - u_prev are formed at checks only. The fits
    are those of the same statements with a fresh array per temporary, bit
    for bit, and of the unfused update within rounding. At each check of the
    first 200 iterations, rho is doubled if ||b' - z|| / ||z|| exceeds ||z -
    z_prev|| / ||u|| and halved if not, with u rescaled: both are ratios, so
    the iterates scale exactly with x, y and mu. rho then stays fixed, as
    ADMM's convergence needs (Boyd et al., section 3.4.1). The fit converges
    at the first check whose relative duality gap (`_objective_and_gap`) is
    at most TOL and whose stationarity residual ||x^T (y - x z) - rho u||_*
    is at most KKT_TOL mu: each prox leaves rho u in mu times r's
    subdifferential at z (Boyd et al., section 3.3.1). It stops short at
    MAX_ITERS, or at the rounding floor: 30 checks in a row that lower
    neither F nor the gap. MAX_ITERS, TOL and KKT_TOL are read at each call.
    F may rise between checks: ADMM does not descend in F (Boyd et al.,
    section 3.2). Returns that z, or else the checked z of lowest F, in b's
    coordinates; the iterations; whether it converged; and the returned z's
    gap.
    """
    shape, step_at, residual, to_b, prox, dual_norm = _coordinates(y, dec, lasso)
    z = np.zeros((x.shape[1], y.shape[1]))
    f, gap, norm = _objective_and_gap(float(np.sum(y * y)), x.T @ y, z, 0.0, mu, dual_norm)
    if gap <= TOL and norm <= (1.0 + KKT_TOL) * mu:
        return z, 0, True, gap  # certified, as whenever ||x^T y||_* <= mu
    s = dec.s
    rank = numerical_rank(s, x.shape)
    rho = float(s[0] * s[rank - 1]) if rank else 1.0  # any rho fits a zero design
    step = step_at(rho, 1.0)  # iteration 1's check rebuilds it at ALPHA
    z, u = np.zeros(shape), np.zeros(shape)
    best, lowest_f, lowest_gap, stalled, iters = z, f, gap, 0, 0
    for iters in range(1, MAX_ITERS + 1):
        v = step(z, u)
        z_prev, u_prev = z, u
        z, kept = prox(v, mu / rho)
        u = np.subtract(v, z, out=v)  # u + b' - z
        if iters != 1 and iters % 10 and iters != MAX_ITERS:
            continue
        e2, g = residual(z)
        f, z_gap, _ = _objective_and_gap(e2, g, z, float(np.sum(np.abs(kept))), mu, dual_norm)
        progress = f < lowest_f or z_gap < lowest_gap
        lowest_gap = min(lowest_gap, z_gap)
        if f <= lowest_f:
            best, lowest_f, gap = z, f, z_gap
        if z_gap <= TOL and dual_norm(g - rho * u) <= KKT_TOL * mu:
            return to_b(z), iters, True, z_gap
        stalled = 0 if progress else stalled + 1
        if stalled >= 30:
            break
        if iters < 200:
            primal = u - u_prev  # b' - z
            primal2 = float(np.sum(primal * primal)) * float(np.sum(u * u))
            dual2 = float(np.sum((z - z_prev) ** 2)) * float(np.sum(z * z))
            rho, scale = (2.0 * rho, 0.5) if primal2 > dual2 else (0.5 * rho, 2.0)
            u *= scale
            del step  # its weights, before the next rho's are formed
            step = step_at(rho, ALPHA)
    return to_b(best), iters, False, gap


def _direct(spec: BaselineSpec) -> bool:
    """Whether spec is fitted by `_svd_filter`: every method but lasso and
    nuclear at mu > 0, which `_fit_admm` fits."""
    return spec.method not in ITERATIVE or spec.mu == 0


def _check_rank(spec: BaselineSpec, x_shape: Tuple[int, int], d2: int) -> None:
    """Raise ValueError when spec's rank exceeds the problem's bound: pcr
    counts design components, the others bound the coefficients' rank."""
    if spec.rank is not None:
        n, d1 = x_shape
        bound = min(d1, n or d1) if spec.method == "pcr" else min(d1, d2, n or d1)
        if spec.rank > bound:
            raise ValueError("rank %d exceeds the problem dimensions" % spec.rank)


def fit_baseline(spec: BaselineSpec, x: np.ndarray, y: np.ndarray,
                 dec: Optional[SpectralDecomposition] = None,
                 direct: Optional[Callable[[BaselineSpec], np.ndarray]] = None) -> LinearModel:
    """Fit one baseline. Coefficients are stored as m_hat (d2 x d1), so
    predictions are x @ m_hat.T for every method.

    The direct methods (ridge, rrr, reduced_rank_ridge, pcr), and lasso and
    nuclear at mu = 0, are filters on the thin SVD x = U diag(s) V^T: their
    coefficients are V g, g the spec's `_svd_filter`. Lasso and nuclear at
    mu > 0 solve their least-squares steps on that SVD. The SVD comes from
    `dec` when the caller already has it, and the filter from `direct`, a
    `_svd_filter` of that SVD and y shared by a grid; the result is the same
    bit for bit. An iterative fit that stops short of its certificate comes
    back with converged=False and its gap rather than raising.
    """
    x, y = require_xy("x and y", x, y)
    _check_rank(spec, x.shape, y.shape[1])
    dec = decompose(x) if dec is None else dec
    iters, converged, gap = 0, True, 0.0
    if _direct(spec):
        coef = dec.v @ (direct or _svd_filter(dec, y))(spec)
    else:
        coef, iters, converged, gap = _fit_admm(x, y, spec.mu, dec, spec.method == "lasso")

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


@dataclass(frozen=True)
class ValidationWindow:
    """A training and validation window, checked, and what the estimator and
    every grid validated on it share: the one SVD x_tr = U diag(s) V^T, the
    window's `metrics.validation_mse` scorer, the `_svd_filter` of that SVD
    and y_tr, and x_va V. Made by `validation_window`."""

    x_tr: np.ndarray
    y_tr: np.ndarray
    x_va: np.ndarray
    dec: SpectralDecomposition
    score: Callable[[np.ndarray], float]
    direct: Callable[[BaselineSpec], np.ndarray]
    x_va_v: np.ndarray


def validation_window(train: Tuple[np.ndarray, np.ndarray],
                      valid: Tuple[np.ndarray, np.ndarray]) -> ValidationWindow:
    """The `ValidationWindow` of (x, y) pairs train and valid. Both pass
    `require_xy` and must have rows, and x_va and y_va must have x_tr's and
    y_tr's columns, before the one SVD of x_tr is taken."""
    x_tr, y_tr = require_xy("training x and y", *train)
    x_va, y_va = require_xy("validation x and y", *valid)
    for what, x in (("training", x_tr), ("validation", x_va)):
        if not x.shape[0]:
            raise ValueError("%s x and y have no rows" % what)
    for what, a, b in (("x", x_va, x_tr), ("y", y_va, y_tr)):
        if a.shape[1] != b.shape[1]:
            raise ValueError("validation %s must have %d columns" % (what, b.shape[1]))
    dec = decompose(x_tr)
    return ValidationWindow(x_tr, y_tr, x_va, dec, validation_mse(y_va),
                            _svd_filter(dec, y_tr), x_va @ dec.v)


def validate_hyperparams(spec_grid: Sequence[BaselineSpec],
                         window: ValidationWindow) -> LinearModel:
    """Score every spec of the grid, fitted on the window's training part,
    on its validation part, and return the fitted argmin.

    The score is the pooled variance-normalized MSE of the predictions on
    the validation part, by the window's one `metrics.validation_mse`
    scorer, and nothing else of them is scored. The winner's spec is its
    `.method`. Every spec of the grid shares the window's one SVD x = U
    diag(s) V^T of the training design, and the direct specs its one
    `_svd_filter`, so U^T y is formed once and the Gram matrix of rrr's and
    reduced-rank ridge's fitted values factored once per mu, for every grid
    that shares the window. A direct spec is scored from its filter g as
    (x_va V) g, and only the winner's coefficients V g are formed, by
    `fit_baseline` with that g: the same model as a fresh fit, bit for bit.
    A lasso or nuclear spec at mu > 0 is fitted by `fit_baseline` and scored
    on x_va @ m_hat.T. The winner is `metrics.lowest` of the scores: ties
    break to the first occurrence in the grid and an undefined (NaN) score
    never wins. A grid with no defined score, as on a constant validation
    response, raises ValueError, as does a spec whose rank exceeds the
    problem's bound, before any spec is fitted.
    """
    if not spec_grid:
        raise ValueError("empty hyperparameter grid")
    x_tr, y_tr, dec = window.x_tr, window.y_tr, window.dec
    for spec in spec_grid:
        _check_rank(spec, x_tr.shape, y_tr.shape[1])

    def scored():
        for spec in spec_grid:
            if _direct(spec):
                g = window.direct(spec)
                yield window.score(window.x_va_v @ g), (spec, g)
            else:
                model = fit_baseline(spec, x_tr, y_tr, dec)
                yield window.score(window.x_va @ model.m_hat.T), model

    best = lowest(scored())
    if best is None:
        raise ValueError("no spec of the grid scored a defined validation MSE")
    if isinstance(best, LinearModel):
        return best
    spec, g = best
    return fit_baseline(spec, x_tr, y_tr, dec, lambda _: g)
