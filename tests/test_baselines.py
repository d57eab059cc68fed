import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from arrr import baselines, metrics
from arrr.baselines import (
    BaselineSpec,
    _b_step,
    _prox_nuclear,
    fit_baseline,
    predict_linear,
    validate_hyperparams,
    validation_window,
)
from arrr.estimator import NonFiniteError
from arrr.spectral import decompose, numerical_rank
from arrr.synth import SynthConfig, make_instance


def _data(n, d1, d2, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d1))
    y = rng.normal(size=(n, d2))
    return x, y


def _bits(v):
    return np.float64(v).tobytes()


def _ols(x, y):
    return np.linalg.lstsq(x, y, rcond=None)[0].T


# Reference solvers for the direct methods: min-norm lstsq, the primal and
# dual normal equations, and the rank truncation of the fitted values (in the
# ridge metric, through the augmented design [X; sqrt(mu) I]).
def _ref_ridge(x, y, mu):
    n, d1 = x.shape
    if mu == 0.0:
        return np.linalg.lstsq(x, y, rcond=None)[0]
    if d1 <= n:
        return np.linalg.solve(x.T @ x + mu * np.eye(d1), x.T @ y)
    return x.T @ np.linalg.solve(x @ x.T + mu * np.eye(n), y)


def _ref_truncate(coef, fitted, rank):
    v_r = np.linalg.svd(fitted, full_matrices=False)[2][:rank].T
    return coef @ v_r @ v_r.T


def _reference_m_hat(spec, x, y):
    if spec.method == "ridge":
        coef = _ref_ridge(x, y, spec.mu)
    elif spec.method == "pcr":
        v_r = np.linalg.svd(x, full_matrices=False)[2][:spec.rank].T
        coef = v_r @ np.linalg.lstsq(x @ v_r, y, rcond=None)[0]
    else:
        mu = spec.mu if spec.method == "reduced_rank_ridge" else 0.0
        coef = _ref_ridge(x, y, mu)
        aug = np.vstack([x, np.sqrt(mu) * np.eye(x.shape[1])]) if mu > 0 else x
        coef = _ref_truncate(coef, aug @ coef, spec.rank)
    return coef.T


DIRECT = ("ridge", "rrr", "reduced_rank_ridge", "pcr")
# the hyperparameters each method reads, written out apart from baselines.READS,
# and a set (non-default) value of each
_READS = {"ridge": ("mu",), "rrr": ("rank",), "reduced_rank_ridge": ("mu", "rank"),
          "pcr": ("rank",), "lasso": ("mu",), "nuclear": ("mu",)}
_SET = {"mu": 0.5, "rank": 2}


# Reference solvers for the iterative methods: per-coordinate descent for the
# lasso, stopped when a sweep moves no coefficient by tol, and plain proximal
# gradient for the nuclear norm, stopped when a step changes the objective by
# less than tol. Each returns (coefficients d1 x d2, converged).
def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _ref_lasso(x, y, mu, max_iters, tol):
    beta = np.zeros((x.shape[1], y.shape[1]))
    resid = y.copy()
    col_sq = np.sum(x ** 2, axis=0)
    for _ in range(max_iters):
        max_change = 0.0
        for k in np.flatnonzero(col_sq):
            old = beta[k, :].copy()
            new = _soft(x[:, k] @ resid + col_sq[k] * old, mu) / col_sq[k]
            resid -= np.outer(x[:, k], new - old)
            beta[k, :] = new
            max_change = max(max_change, float(np.max(np.abs(new - old))))
        if max_change < tol:
            return beta, True
    return beta, False


def _nuclear_norm(b):
    return float(np.sum(np.linalg.svd(b, compute_uv=False)))


def _objective(method, x, y, b, mu):
    penalty = float(np.sum(np.abs(b))) if method == "lasso" else _nuclear_norm(b)
    return 0.5 * float(np.sum((y - x @ b) ** 2)) + mu * penalty


def _svt(z, t):
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    return (u * np.maximum(s - t, 0.0)) @ vt


def _ref_nuclear(x, y, mu, max_iters, tol):
    step = 1.0 / float(np.linalg.norm(x, 2)) ** 2
    b = np.zeros((x.shape[1], y.shape[1]))
    obj = _objective("nuclear", x, y, b, mu)
    for _ in range(max_iters):
        b = _svt(b - step * (x.T @ (x @ b - y)), mu * step)
        prev, obj = obj, _objective("nuclear", x, y, b, mu)
        if abs(prev - obj) < tol:
            return b, True
    return b, False


def _relative_gap_of(method, x, y, b, mu):
    """(F(b) - D(theta)) / F(b) from the definitions: theta is the residual
    y - x b scaled into the dual ball ||x^T theta||_* <= mu, where the dual
    norm is the largest absolute entry (lasso) or singular value (nuclear),
    and D(theta) = 0.5 ||y||^2 - 0.5 ||y - theta||^2; 0 when F(b) = 0."""
    resid = y - x @ b
    corr = x.T @ resid
    if method == "lasso":
        dual, penalty = float(np.max(np.abs(corr))), float(np.sum(np.abs(b)))
    else:
        dual = float(np.linalg.svd(corr, compute_uv=False)[0])
        penalty = float(np.sum(np.linalg.svd(b, compute_uv=False)))
    theta = resid * min(1.0, mu / dual) if dual > 0.0 else resid
    f = 0.5 * float(np.sum(resid ** 2)) + mu * penalty
    d = 0.5 * float(np.sum(y ** 2)) - 0.5 * float(np.sum((y - theta) ** 2))
    return (f - d) / f if f > 0.0 else 0.0


def _assert_certified(method, mu, x, y, model, tol):
    """The fit's gap, recomputed from scratch, is the one it reports, and at
    most tol when it reports convergence."""
    gap = _relative_gap_of(method, x, y, model.m_hat.T, mu)
    assert abs(gap - model.gap) <= 1e-12
    if model.converged:
        assert gap <= tol


def _iterative_case(method, n, d1, d2, seed, zero, tie, scale):
    """(method, mu, x, y): x from _data, with its first column zeroed if
    zero and its last a copy of its second if tie, and mu = scale
    max |x^T y|, the smallest mu at which the lasso solution is zero."""
    x, y = _data(n, d1, d2, seed=seed)
    if zero:
        x[:, 0] = 0.0
    if tie:
        x[:, -1] = x[:, 1]
    return method, scale * float(np.max(np.abs(x.T @ y))), x, y


@st.composite
def _iterative_cases(draw):
    """_iterative_case for lasso or nuclear norm: d1 may exceed n, x may
    carry a zero and a duplicated column, and mu runs from 0 to above
    max |x^T y|."""
    n, d1, d2 = draw(st.integers(3, 12)), draw(st.integers(3, 12)), draw(st.integers(1, 4))
    seed, zero, tie = draw(st.integers(0, 2 ** 16)), draw(st.booleans()), draw(st.booleans())
    scale = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 1.0, 1.5]))
    method = draw(st.sampled_from(["lasso", "nuclear"]))
    return _iterative_case(method, n, d1, d2, seed, zero, tie, scale)


@st.composite
def _b_step_cases(draw):
    """(x, y, r, rho) for the ADMM b-step: d1 below n, equal to it, between n
    and 2n or from 2n on, so V is square or not; x may carry a zero and a
    duplicated column, and rho / s_1^2 is log-uniform in [1e-6, 1e2]."""
    n, d2 = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    lo, hi = draw(st.sampled_from([(1, n - 1), (n, n), (n + 1, 2 * n - 1), (2 * n, 3 * n)]))
    d1 = draw(st.integers(lo, hi))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x, y, r = rng.normal(size=(n, d1)), rng.normal(size=(n, d2)), rng.normal(size=(d1, d2))
    if draw(st.booleans()):
        x[:, 0] = 0.0
    if d1 > 2 and draw(st.booleans()):
        x[:, -1] = x[:, 1]
    s1 = float(np.linalg.norm(x, 2)) or 1.0
    return x, y, r, s1 * s1 * 10.0 ** draw(st.floats(-6.0, 2.0))


def _svd_prox_nuclear(v, t):
    """Reference nuclear prox: soft thresholding of the full SVD of v."""
    dec = decompose(v)
    s = np.maximum(dec.s - t, 0.0)
    return (dec.u * s) @ dec.v.T, float(np.sum(s))


# ADMM as `_fit_admm` runs it with a fresh array for every temporary and the
# regularizer summed on every step: its loop verbatim, with the b-steps,
# residuals and proxes of that form, so the in-place loop can be held to it
# bit for bit. A nuclear fit iterates on V^T z when rotate is set, as
# `_fit_admm` does; unset, it runs in b's own coordinates, the reference that
# the rotated fits are held to within rounding.
def _out_of_place_prox_l1(v, t):
    m = np.maximum(np.abs(v) - t, 0.0)
    return np.sign(v) * m, float(np.sum(m))


def _out_of_place_prox_nuclear(v, t):
    p, s = _prox_nuclear(v, t)
    return p, float(np.sum(s))


def _out_of_place_b_step(dec, uty, rho):
    v, s2 = dec.v, dec.s * dec.s
    g = (s2 / (s2 + rho))[:, None]
    ky = v @ ((dec.s / (s2 + rho))[:, None] * uty)
    return lambda r: ky + r - v @ (g * (v.T @ r))


def _out_of_place_coordinates(x, y, dec, rotate):
    """(shape, rho -> b-step, z -> (||e||^2, x^T e), z -> b), in b's
    coordinates or, when rotate is set, in V's."""
    uty = dec.u.T @ y
    if not rotate:
        def residual(z):
            e = y - x @ z
            return float(np.sum(e * e)), x.T @ e

        return ((x.shape[1], y.shape[1]), lambda rho: _out_of_place_b_step(dec, uty, rho),
                residual, lambda z: z)
    s = dec.s[:, None]
    perp = y - dec.u @ uty
    perp2 = float(np.sum(perp * perp))

    def step_at(rho):
        ky, c = s / (s * s + rho) * uty, rho / (s * s + rho)
        return lambda r: ky + c * r

    def residual(z):
        e = uty - s * z
        return float(np.sum(e * e)) + perp2, s * e

    return uty.shape, step_at, residual, lambda z: dec.v @ z


def _out_of_place_admm(x, y, mu, dec, lasso, max_iters, tol, rotate=None):
    ALPHA, KKT_TOL = baselines.ALPHA, baselines.KKT_TOL
    _objective_and_gap, _dual_norm = baselines._objective_and_gap, baselines._dual_norm
    z = np.zeros((x.shape[1], y.shape[1]))
    f, gap, g = _objective_and_gap(float(np.sum(y * y)), x.T @ y, z, 0.0, mu, lasso)
    if gap <= tol and _dual_norm(g, lasso) <= (1.0 + KKT_TOL) * mu:
        return z, 0, True, gap
    shape, _b_step, residual, to_b = _out_of_place_coordinates(
        x, y, dec, not lasso if rotate is None else rotate)
    prox = _out_of_place_prox_l1 if lasso else _out_of_place_prox_nuclear
    s = dec.s
    rank = numerical_rank(s, x.shape)
    rho = float(s[0] * s[rank - 1]) if rank else 1.0  # any rho fits a zero design
    step = _b_step(rho)
    z, u = np.zeros(shape), np.zeros(shape)
    best, lowest_f, lowest_gap, stalled, iters = z, f, gap, 0, 0
    for iters in range(1, max_iters + 1):
        b = step(z - u)
        if iters > 1:
            b = ALPHA * b + (1.0 - ALPHA) * z
        z_prev = z
        z, r_z = prox(b + u, mu / rho)
        primal = b - z
        u += primal
        if iters != 1 and iters % 10 and iters != max_iters:
            continue
        f, z_gap, g = _objective_and_gap(*residual(z), z, r_z, mu, lasso)
        progress = f < lowest_f or z_gap < lowest_gap
        lowest_gap = min(lowest_gap, z_gap)
        if f <= lowest_f:
            best, lowest_f, gap = z, f, z_gap
        if z_gap <= tol and _dual_norm(g - rho * u, lasso) <= KKT_TOL * mu:
            return to_b(z), iters, True, z_gap
        stalled = 0 if progress else stalled + 1
        if stalled >= 30:
            break
        if iters < 200:
            primal2 = float(np.sum(primal * primal)) * float(np.sum(u * u))
            dual2 = float(np.sum((z - z_prev) ** 2)) * float(np.sum(z * z))
            rho, u = (2.0 * rho, 0.5 * u) if primal2 > dual2 else (0.5 * rho, 2.0 * u)
            step = _b_step(rho)
    return to_b(best), iters, False, gap


@st.composite
def _admm_cases(draw):
    """(x, y, mu, lasso, budget) for `_fit_admm`: d1 below, equal to or above
    n, x with a zero and a duplicated column, mu = scale max |x^T y| from
    1e-9 (whose thresholds take the nuclear prox's SVD branch) up to 1
    (where b = 0 at step 1), and a budget (MAX_ITERS, TOL) that stops at 5
    iterations, at the gap, or at the stall rule under an unreachable TOL."""
    n, d2 = draw(st.integers(3, 10)), draw(st.integers(1, 4))
    d1 = draw(st.sampled_from([n - draw(st.integers(1, 2)), n, n + draw(st.integers(1, 4))]))
    seed, zero, tie = draw(st.integers(0, 2 ** 16)), draw(st.booleans()), draw(st.booleans())
    scale = draw(st.sampled_from([1e-9, 1e-6, 0.01, 0.3, 1.0]))
    _, mu, x, y = _iterative_case("lasso", n, d1, d2, seed, zero, tie and d1 > 2, scale)
    assume(mu > 0)
    budget = draw(st.sampled_from([(5, 1e-10), (400, 1e-10), (1000, 1e-15)]))
    return x, y, mu, draw(st.booleans()), budget


@st.composite
def _prox_cases(draw):
    """(v, t, s_max) for the nuclear prox: tall, wide or square down to 1 x k
    and k x 1, rank-deficient, with a zero and a duplicated column, a graded,
    spiked or random spectrum plus noise, and t / s_max log-uniform in
    [1e-9, 1e-4) or [1e-4, 2], the SVD fallback's side of the guard or the
    Gram path's."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    r = draw(st.integers(0, min(m, n)))
    spectrum = draw(st.sampled_from(["graded", "spike", "random"]))
    if spectrum == "graded":  # singular values spread over up to 12 decades
        s = 10.0 ** -np.linspace(0.0, draw(st.sampled_from([3.0, 6.0, 12.0])), r)
    elif spectrum == "spike":  # one large value over many near t / s_max = 1e-4
        s = np.append(1.0, 10.0 ** -rng.uniform(2.5, 4.0, size=max(r - 1, 0)))[:r]
    else:
        s = np.abs(rng.normal(size=r))
    u = np.linalg.qr(rng.normal(size=(m, r)))[0]
    w = np.linalg.qr(rng.normal(size=(n, r)))[0]
    noise = draw(st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, 0.0]))
    v = (u * s) @ w.T + noise * rng.normal(size=(m, n))
    v *= draw(st.sampled_from([1.0, 1e-3, 1e3]))
    if draw(st.booleans()):
        v[:, 0] = 0.0
    if n > 1 and draw(st.booleans()):
        v[:, -1] = v[:, 0]
    s_max = float(np.linalg.svd(v, compute_uv=False)[0])
    if draw(st.booleans()):
        rel = 10.0 ** rng.uniform(-4.0, np.log10(2.0))
    else:
        rel = 10.0 ** rng.uniform(-9.0, -4.0)
    return v, rel * (s_max if s_max > 0.0 else 1.0), s_max


@st.composite
def _graded_cases(draw):
    """(spec, x, y) for rrr or reduced-rank ridge with y = x B + noise, B of
    singular values graded over 1 to 12 decades, so that the fitted values'
    spectrum falls below the Gram floor at some ranks and not at others."""
    n, d1, d2 = draw(st.integers(3, 15)), draw(st.integers(2, 20)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.normal(size=(n, d1))
    if draw(st.booleans()):
        x[:, -1] = x[:, 0]
    k = min(d1, d2)
    sigma = 10.0 ** -np.linspace(0.0, draw(st.sampled_from([1.0, 3.0, 6.0, 9.0, 12.0])), k)
    b = (np.linalg.qr(rng.normal(size=(d1, k)))[0] * sigma) @ np.linalg.qr(
        rng.normal(size=(d2, k)))[0].T
    y = x @ b + draw(st.sampled_from([0.0, 1e-9, 1e-5, 1e-2])) * rng.normal(size=(n, d2))
    method = draw(st.sampled_from(["rrr", "reduced_rank_ridge"]))
    mu = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])) if method != "rrr" else 0.0
    return BaselineSpec(method, mu=mu, rank=draw(st.integers(1, min(d1, d2, n)))), x, y


@st.composite
def _direct_cases(draw):
    """(spec, x, y) for a direct method: d1 may exceed n, x may carry a
    duplicated column, and mu may be 0."""
    n, d1, d2 = draw(st.integers(3, 15)), draw(st.integers(2, 20)), draw(st.integers(1, 6))
    x, y = _data(n, d1, d2, seed=draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        x[:, -1] = x[:, 0]
    method = draw(st.sampled_from(DIRECT))
    bound = min(d1, n) if method == "pcr" else min(d1, d2, n)
    rank = None if method == "ridge" else draw(st.integers(1, bound))
    # rrr and pcr read no mu, so only ridge and reduced-rank ridge draw one
    mu = 0.0
    if method in ("ridge", "reduced_rank_ridge"):
        mu = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    return BaselineSpec(method, mu=mu, rank=rank), x, y


class TestRidge:
    def test_matches_normal_equations_oracle(self):
        x, y = _data(50, 10, 4, seed=0)
        mu = 1e-10
        model = fit_baseline(BaselineSpec("ridge", mu=mu), x, y)
        oracle = np.linalg.solve(x.T @ x + mu * np.eye(10), x.T @ y).T
        rel = np.linalg.norm(model.m_hat - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_dual_form_agrees_with_primal_oracle(self):
        # d1 > n triggers the n x n dual solve; compare to the d1 x d1 solve
        x, y = _data(30, 55, 3, seed=1)
        mu = 0.7
        model = fit_baseline(BaselineSpec("ridge", mu=mu), x, y)
        oracle = np.linalg.solve(x.T @ x + mu * np.eye(55), x.T @ y).T
        rel = np.linalg.norm(model.m_hat - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_mu_zero_is_least_squares(self):
        x, y = _data(40, 8, 3, seed=2)
        model = fit_baseline(BaselineSpec("ridge", mu=0.0), x, y)
        np.testing.assert_allclose(model.m_hat, _ols(x, y), atol=1e-10)

    def test_shrinkage_monotone_in_mu(self):
        x, y = _data(25, 6, 2, seed=3)
        norms = [
            np.linalg.norm(fit_baseline(BaselineSpec("ridge", mu=mu), x, y).m_hat)
            for mu in (0.0, 1.0, 10.0, 100.0)
        ]
        assert norms == sorted(norms, reverse=True)


class TestRRR:
    def test_full_rank_equals_ols(self):
        x, y = _data(50, 10, 6, seed=4)
        model = fit_baseline(BaselineSpec("rrr", rank=6), x, y)
        ols = _ols(x, y)
        assert np.linalg.norm(model.m_hat - ols) / np.linalg.norm(ols) <= 1e-8

    def test_rank_bound_always_holds(self):
        for rank in (1, 2, 4):
            x, y = _data(30, 8, 5, seed=5)
            model = fit_baseline(BaselineSpec("rrr", rank=rank), x, y)
            s = np.linalg.svd(model.m_hat, compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) <= rank

    def test_fitted_values_are_best_rank_r_truncation(self):
        x, y = _data(40, 7, 5, seed=6)
        model = fit_baseline(BaselineSpec("rrr", rank=2), x, y)
        full = x @ _ols(x, y).T
        u, s, vt = np.linalg.svd(full, full_matrices=False)
        best = (u[:, :2] * s[:2]) @ vt[:2]
        np.testing.assert_allclose(x @ model.m_hat.T, best, atol=1e-8)

    def test_rank_deficient_design_uses_min_norm_fit(self):
        x, y = _data(6, 12, 3, seed=7)  # n < d1
        model = fit_baseline(BaselineSpec("rrr", rank=3), x, y)
        assert np.all(np.isfinite(model.m_hat))
        s = np.linalg.svd(model.m_hat, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) <= 3


class TestReducedRankRidge:
    def test_mu_zero_reduces_to_rrr(self):
        x, y = _data(35, 9, 6, seed=8)
        rrr = fit_baseline(BaselineSpec("rrr", rank=3), x, y)
        rrridge = fit_baseline(BaselineSpec("reduced_rank_ridge", mu=0.0, rank=3), x, y)
        np.testing.assert_allclose(rrridge.m_hat, rrr.m_hat, atol=1e-8)

    def test_full_rank_reduces_to_ridge(self):
        x, y = _data(35, 9, 6, seed=9)
        ridge = fit_baseline(BaselineSpec("ridge", mu=2.0), x, y)
        rrridge = fit_baseline(BaselineSpec("reduced_rank_ridge", mu=2.0, rank=6), x, y)
        np.testing.assert_allclose(rrridge.m_hat, ridge.m_hat, atol=1e-8)

    def test_rank_bound(self):
        x, y = _data(30, 10, 7, seed=10)
        model = fit_baseline(BaselineSpec("reduced_rank_ridge", mu=1.5, rank=2), x, y)
        s = np.linalg.svd(model.m_hat, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) <= 2


class TestPCR:
    def test_full_component_count_equals_ols(self):
        x, y = _data(45, 8, 4, seed=11)
        model = fit_baseline(BaselineSpec("pcr", rank=8), x, y)
        ols = _ols(x, y)
        assert np.linalg.norm(model.m_hat - ols) / np.linalg.norm(ols) <= 1e-8

    def test_coefficients_live_in_top_pc_span(self):
        x, y = _data(40, 9, 3, seed=12)
        rank = 3
        model = fit_baseline(BaselineSpec("pcr", rank=rank), x, y)
        _, _, vt = np.linalg.svd(x - 0 * x.mean(0), full_matrices=False)
        v_r = vt[:rank].T
        proj = model.m_hat @ (v_r @ v_r.T)
        np.testing.assert_allclose(proj, model.m_hat, atol=1e-10)


class TestLasso:
    def test_huge_mu_gives_zero(self):
        x, y = _data(30, 6, 4, seed=13)
        mu = float(np.max(np.abs(x.T @ y))) + 1.0
        model = fit_baseline(BaselineSpec("lasso", mu=mu), x, y)
        np.testing.assert_array_equal(model.m_hat, np.zeros((4, 6)))
        assert model.converged

    def test_kkt_conditions_at_convergence(self):
        x, y = _data(60, 8, 3, seed=14)
        mu = 5.0
        model = fit_baseline(BaselineSpec("lasso", mu=mu), x, y)
        assert model.converged
        beta = model.m_hat.T  # d1 x d2
        resid = y - x @ beta
        corr = x.T @ resid  # d1 x d2
        slack = 1e-5
        active = np.abs(beta) > 0
        assert np.all(np.abs(corr[~active]) <= mu + slack)
        np.testing.assert_allclose(corr[active], mu * np.sign(beta[active]),
                                   atol=slack)

    def test_mu_zero_matches_least_squares(self):
        x, y = _data(50, 5, 2, seed=15)
        model = fit_baseline(BaselineSpec("lasso", mu=0.0), x, y)
        np.testing.assert_allclose(model.m_hat, _ols(x, y), atol=1e-6)

    def test_non_convergence_flagged_not_raised(self, monkeypatch):
        x, y = _data(40, 10, 3, seed=17)
        monkeypatch.setattr(baselines, "MAX_ITERS", 1)
        model = fit_baseline(BaselineSpec("lasso", mu=0.01), x, y)
        assert not model.converged
        assert model.iterations_used == 1


class TestNuclear:
    def test_mu_zero_approaches_least_squares(self, monkeypatch):
        x, y = _data(40, 6, 3, seed=19)
        monkeypatch.setattr(baselines, "MAX_ITERS", 20000)
        monkeypatch.setattr(baselines, "TOL", 1e-14)
        model = fit_baseline(BaselineSpec("nuclear", mu=0.0), x, y)
        ols = _ols(x, y)
        assert np.linalg.norm(model.m_hat - ols) / np.linalg.norm(ols) <= 1e-5

    def test_solution_is_prox_fixed_point(self, monkeypatch):
        x, y = _data(35, 7, 4, seed=20)
        mu = 0.5
        monkeypatch.setattr(baselines, "TOL", 1e-12)
        model = fit_baseline(BaselineSpec("nuclear", mu=mu), x, y)
        assert model.converged
        b = model.m_hat.T
        step = 1.0 / float(np.linalg.norm(x, 2)) ** 2
        z = b - step * (x.T @ (x @ b - y))
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        prox = (u * np.maximum(s - mu * step, 0.0)) @ vt
        assert np.max(np.abs(prox - b)) <= 1e-5

    def test_non_convergence_flagged(self, monkeypatch):
        x, y = _data(30, 8, 5, seed=21)
        monkeypatch.setattr(baselines, "MAX_ITERS", 1)
        model = fit_baseline(BaselineSpec("nuclear", mu=1.0), x, y)
        assert not model.converged


class TestProximalSolver:
    # the first ten draws below once met a relative gap of 1e-8 while missing
    # this test's objective or stationarity slack; the next seven, at mu =
    # max |x^T y| where b = 0, kept a coefficient near 2e-5 when ADMM's first
    # step was over-relaxed; the last two met a gap of 1e-10 with an active
    # correlation 1.0e-5 and 1.5e-5 off mu, before the stop also asked for
    # stationarity
    @seed(1)
    @settings(max_examples=120, deadline=None)
    @given(case=_iterative_cases())
    @example(case=_iterative_case("nuclear", 5, 7, 1, 64251, False, False, 1.5))
    @example(case=_iterative_case("nuclear", 10, 5, 1, 17536, False, True, 1.0))
    @example(case=_iterative_case("nuclear", 8, 3, 2, 27293, False, True, 1.0))
    @example(case=_iterative_case("nuclear", 9, 11, 3, 48263, True, True, 1.5))
    @example(case=_iterative_case("nuclear", 7, 10, 3, 4732, True, False, 1.5))
    @example(case=_iterative_case("lasso", 12, 3, 2, 7293, True, True, 0.3))
    @example(case=_iterative_case("nuclear", 3, 12, 4, 20304, True, True, 1.5))
    @example(case=_iterative_case("nuclear", 4, 9, 3, 62999, True, False, 1.5))
    @example(case=_iterative_case("lasso", 11, 4, 1, 34852, True, True, 0.3))
    @example(case=_iterative_case("lasso", 5, 3, 2, 31461, True, True, 0.3))
    @example(case=_iterative_case("lasso", 8, 3, 4, 38223, False, True, 1.0))
    @example(case=_iterative_case("lasso", 9, 4, 3, 44862, True, True, 1.0))
    @example(case=_iterative_case("lasso", 6, 4, 4, 58636, True, False, 1.0))
    @example(case=_iterative_case("lasso", 4, 11, 3, 37154, True, True, 1.0))
    @example(case=_iterative_case("lasso", 7, 5, 1, 23662, True, False, 1.0))
    @example(case=_iterative_case("lasso", 7, 12, 1, 50154, True, True, 1.0))
    @example(case=_iterative_case("lasso", 7, 3, 1, 35737, True, False, 1.0))
    @example(case=_iterative_case("lasso", 3, 11, 1, 51856, True, False, 0.3))
    @example(case=_iterative_case("lasso", 3, 3, 1, 3, True, False, 0.3))
    def test_matches_reference_solvers(self, case):
        method, mu, x, y = case
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        b = model.m_hat.T
        ref, ref_converged = (_ref_lasso if method == "lasso" else _ref_nuclear)(
            x, y, mu, baselines.MAX_ITERS, baselines.TOL)
        if model.converged and ref_converged:
            want = _objective(method, x, y, ref, mu)
            assert _objective(method, x, y, b, mu) <= want + 1e-9 * max(1.0, abs(want))
        if not model.converged:
            return
        if method == "lasso":
            corr = x.T @ (y - x @ b)
            active = b != 0
            assert np.all(np.abs(corr[~active]) <= mu + 1e-5)
            np.testing.assert_allclose(corr[active], mu * np.sign(b[active]), atol=1e-5)
        else:
            step = 1.0 / float(np.linalg.norm(x, 2)) ** 2
            prox = _svt(b - step * (x.T @ (x @ b - y)), mu * step)
            assert np.max(np.abs(prox - b)) <= 1e-5

    @seed(1)
    @settings(max_examples=150, deadline=None)
    @given(case=_admm_cases())
    def test_in_place_steps_match_the_out_of_place_loop_bitwise(self, case):
        x, y, mu, lasso, (max_iters, tol) = case
        dec = decompose(x)
        with mock.patch.object(baselines, "MAX_ITERS", max_iters), \
                mock.patch.object(baselines, "TOL", tol):
            got = baselines._fit_admm(x, y, mu, dec, lasso)
        want = _out_of_place_admm(x, y, mu, dec, lasso, max_iters, tol)
        for a, b in zip(got, want):  # z, iterations, converged, gap
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b

    def test_compare_nuclear_fits_match_the_loop_in_b_coordinates(self):
        # compare-solvers' 30 nuclear fits (seeds 0-9, mu 0.3, 1 and 3) take,
        # in V's coordinates, the iterations and the converged flags of the
        # loop in b's own coordinates, and stop within 1e-12 of its z
        for seed in range(10):
            inst = make_instance(SynthConfig(d1=60, d2=30, n=80, rank_m=5, eta=1.0, seed=seed))
            dec = decompose(inst.x)
            for mu in (0.3, 1.0, 3.0):
                z, iters, converged, _ = baselines._fit_admm(inst.x, inst.y, mu, dec, False)
                want, want_iters, want_converged, _ = _out_of_place_admm(
                    inst.x, inst.y, mu, dec, False, baselines.MAX_ITERS, baselines.TOL,
                    rotate=False)
                assert (iters, converged) == (want_iters, want_converged), (seed, mu)
                assert np.linalg.norm(z - want) <= 1e-12 * np.linalg.norm(want), (seed, mu)

    @pytest.mark.parametrize("n, d1", [(20, 40), (40, 8)], ids=["wide", "tall"])
    def test_nuclear_prox_sees_the_rotated_iterate(self, n, d1, monkeypatch):
        # a nuclear fit iterates on V^T z, r x d2 with r = min(n, d1), so on a
        # wide design no step forms a d1 x d2 array; V z~ is the d1 x d2 fit
        # of the loop in b's coordinates, within 1e-12
        x, y = _data(n, d1, 3, seed=23)
        mu = 0.3 * float(np.linalg.norm(x.T @ y, 2))
        shapes, real = [], baselines._prox_nuclear
        monkeypatch.setattr(baselines, "_prox_nuclear",
                            lambda v, t: shapes.append(v.shape) or real(v, t))
        dec = decompose(x)
        z, iters, converged, _ = baselines._fit_admm(x, y, mu, dec, False)
        assert converged and shapes == [(min(n, d1), 3)] * iters
        want, want_iters, want_converged, _ = _out_of_place_admm(
            x, y, mu, dec, False, baselines.MAX_ITERS, baselines.TOL, rotate=False)
        assert (iters, converged) == (want_iters, want_converged)
        assert z.shape == (d1, 3)
        assert np.linalg.norm(z - want) <= 1e-12 * np.linalg.norm(want)

    @seed(1)
    @settings(max_examples=400, deadline=None)
    @given(case=_prox_cases())
    def test_nuclear_prox_matches_svd_reference(self, case):
        v, t, s_max = case
        p, s = _prox_nuclear(v, t)
        r = float(np.sum(s))
        p_ref, r_ref = _svd_prox_nuclear(v, t)
        bound = 1e-11 * max(1.0, s_max)
        assert p.shape == v.shape
        assert np.max(np.abs(p - p_ref)) <= bound
        assert abs(r - r_ref) <= bound
        # each kept singular value is as accurate as the SVD's, eps * s_max up
        # to a small factor; a root of its Gram eigenvalue is not
        assert abs(r - r_ref) <= 10.0 * min(v.shape) * np.finfo(float).eps * s_max

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
    def test_nuclear_prox_takes_the_svd_only_below_its_gram_guard(self, monkeypatch, shape):
        # the rule _prox_nuclear states: the SVD of v when t^2 < 1e-8
        # lambda_max, the Gram eigenvalues otherwise, as at 1e-7 lambda_max
        svds = []
        real = baselines.decompose
        monkeypatch.setattr(baselines, "decompose", lambda a: svds.append(a.shape) or real(a))
        v = np.random.default_rng(0).normal(size=shape)
        lam_max = np.linalg.svd(v, compute_uv=False)[0] ** 2
        for ratio, want in ((1e-9, [shape]), (1e-7, []), (1e-4, [])):
            svds.clear()
            t = np.sqrt(ratio * lam_max)
            p, _ = _prox_nuclear(v, t)
            assert svds == want, ratio
            assert np.max(np.abs(p - _svd_prox_nuclear(v, t)[0])) <= 1e-11 * np.sqrt(lam_max)

    @seed(1)
    @settings(max_examples=120, deadline=None)
    @given(case=_iterative_cases())
    def test_the_gap_certifies_the_fit(self, case):
        method, mu, x, y = case
        assume(mu > 0)
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        _assert_certified(method, mu, x, y, model, baselines.TOL)

    def test_the_compare_fit_at_seed_1_mu_3_converges(self):
        # compare-solvers' nuclear fit at seed 1, eta 1, mu 3, whose converged
        # flag under the old residual stop hung on last-bit rounding
        inst = make_instance(SynthConfig(d1=60, d2=30, n=80, rank_m=5, eta=1.0, seed=1))
        model = fit_baseline(BaselineSpec("nuclear", mu=3.0), inst.x, inst.y)
        assert model.converged
        _assert_certified("nuclear", 3.0, inst.x, inst.y, model, baselines.TOL)

    def test_compare_fits_converge_within_a_budget(self, monkeypatch):
        # compare-solvers' fits at seed 1 take at most 250 iterations; without
        # over-relaxation (ALPHA = 1) they take up to 430, and with u left
        # unscaled when rho is rebalanced, the lasso fits take 660-1900
        inst = make_instance(SynthConfig(d1=60, d2=30, n=80, rank_m=5, eta=1.0, seed=1))
        monkeypatch.setattr(baselines, "MAX_ITERS", 300)
        for method in ("lasso", "nuclear"):
            for mu in (0.3, 1.0, 3.0):
                spec = BaselineSpec(method, mu=mu)
                assert fit_baseline(spec, inst.x, inst.y).converged, (method, mu)

    def test_compare_fits_stop_at_a_gap_of_1e_10(self):
        # The stopping gap as a literal, not baselines.TOL: compare's 18 fits
        # at seeds 0-2 stop at gaps of 4e-14 to 9.7e-11, while a stop at 1e-8
        # leaves 16 of them between 1.1e-10 and 8.5e-9
        for seed in range(3):
            inst = make_instance(SynthConfig(d1=60, d2=30, n=80, rank_m=5, eta=1.0, seed=seed))
            for method in ("lasso", "nuclear"):
                for mu in (0.3, 1.0, 3.0):
                    model = fit_baseline(BaselineSpec(method, mu=mu), inst.x, inst.y)
                    assert model.converged and model.gap <= 1e-10, (seed, method, mu, model.gap)

    @seed(1)
    @settings(max_examples=200, deadline=None)
    @given(case=_b_step_cases())
    def test_b_step_matches_a_direct_solve(self, case):
        # each side is within a small multiple of eps kappa of the exact
        # solve, kappa = (s_1^2 + rho) / rho the condition number of
        # x^T x + rho I; 1e-13 kappa, about 450 eps kappa, is 1e-13 at rho
        # 1e2 s_1^2 and 1e-7 at 1e-6 s_1^2
        x, y, r, rho = case
        dec = decompose(x)
        got = _b_step(dec, dec.u.T @ y, rho)(r)
        want = np.linalg.solve(x.T @ x + rho * np.eye(x.shape[1]), x.T @ y + rho * r)
        kappa = (float(np.linalg.norm(x, 2)) ** 2 + rho) / rho
        assert np.linalg.norm(got - want) <= 1e-13 * kappa * np.linalg.norm(want)

    def test_wide_lasso_with_tied_columns_converges(self):
        # with rho rebalanced at every check, this fit's gap stayed near 0.06
        # through max_iters; rho must settle for ADMM to converge
        method, mu, x, y = _iterative_case("lasso", 7, 11, 2, 58678, True, True, 0.01)
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        assert model.converged
        _assert_certified(method, mu, x, y, model, baselines.TOL)
        ref, ref_converged = _ref_lasso(x, y, mu, 100000, 1e-13)
        assert ref_converged
        want = _objective(method, x, y, ref, mu)
        assert _objective(method, x, y, model.m_hat.T, mu) <= want + 1e-9 * want

    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    def test_wide_design_matches_reference_solvers(self, method, monkeypatch):
        # d1 > n: the b-step's part outside the row space of x, r - V V^T r,
        # is all that moves the coefficients' null-space component
        x, y = _data(20, 40, 3, seed=23)
        mu = 0.3 * float(np.max(np.abs(x.T @ y)))
        monkeypatch.setattr(baselines, "TOL", 1e-12)
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        ref, ref_converged = (_ref_lasso if method == "lasso" else _ref_nuclear)(
            x, y, mu, 100000, 1e-13)
        assert model.converged and ref_converged
        want = _objective(method, x, y, ref, mu)
        assert abs(_objective(method, x, y, model.m_hat.T, mu) - want) <= 1e-9 * want

    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(case=_iterative_cases(), a=st.sampled_from([1e-3, 1.0, 1e3]),
           b=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_fits_are_unit_free(self, case, a, b):
        # x -> a x, y -> b y and mu -> a b mu scale the solution by b / a
        method, mu, x, y = case
        assume(mu > 0)
        base = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        scaled = fit_baseline(BaselineSpec(method, mu=mu * a * b), a * x, b * y)
        want = base.m_hat * (b / a)
        assert np.linalg.norm(scaled.m_hat - want) <= 1e-6 * np.linalg.norm(want)
        assert scaled.converged == base.converged

    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    def test_unreachable_tol_stops_at_rounding_floor(self, method, monkeypatch):
        # no gap meets TOL = -inf (1e-15 no longer serves: in V's coordinates
        # this nuclear fit meets it at a gap of 8.9e-16); the loop must notice
        # that its checks no longer lower the objective or the gap instead of
        # running to MAX_ITERS
        x, y = _data(30, 8, 5, seed=21)
        monkeypatch.setattr(baselines, "MAX_ITERS", 5000)
        monkeypatch.setattr(baselines, "TOL", -math.inf)
        model = fit_baseline(BaselineSpec(method, mu=0.5), x, y)
        assert not model.converged
        assert model.iterations_used < baselines.MAX_ITERS

    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    @pytest.mark.parametrize("n", [0, 6])
    def test_degenerate_design(self, method, n):
        # a zero or empty design: the gap at b = 0 certifies it before any step
        y = np.ones((n, 2))
        model = fit_baseline(BaselineSpec(method, mu=1.0), np.zeros((n, 3)), y)
        np.testing.assert_array_equal(model.m_hat, np.zeros((2, 3)))
        assert model.converged
        assert model.iterations_used == 0

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    def test_zero_is_returned_at_the_smallest_mu_that_makes_it_the_minimum(
            self, method, tol, monkeypatch):
        # mu = ||x^T y||_*, max |x^T y| for lasso and the top singular value
        # for nuclear: b = 0 is the minimum and its gap is 0, which meets
        # even TOL = 0, so no step is taken
        x, y = _data(30, 8, 5, seed=21)
        g = x.T @ y
        mu = float(np.max(np.abs(g)) if method == "lasso" else np.linalg.norm(g, 2))
        monkeypatch.setattr(baselines, "TOL", tol)
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        np.testing.assert_array_equal(model.m_hat, np.zeros((5, 8)))
        assert (model.iterations_used, model.converged, model.gap) == (0, True, 0.0)
        _assert_certified(method, mu, x, y, model, tol)
        # just below that mu, b = 0 is not the minimum, and ADMM runs; at
        # 1 - 5e-6 the gap at 0, 2.5e-11, meets TOL 1e-10, but 0 is not
        # stationary: ||x^T y||_* exceeds mu by 5e-6 mu
        for shrink in (1e-3, 5e-6):
            below = fit_baseline(BaselineSpec(method, mu=mu * (1.0 - shrink)), x, y)
            assert below.iterations_used > 0 and np.any(below.m_hat)


class TestSVDFilter:
    @seed(1)
    @settings(max_examples=200, deadline=None)
    @given(case=_direct_cases())
    def test_matches_reference_solvers(self, case):
        spec, x, y = case
        got = fit_baseline(spec, x, y).m_hat
        want = _reference_m_hat(spec, x, y)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(case=_direct_cases())
    def test_shared_decomposition_is_bitwise_equal(self, case):
        spec, x, y = case
        shared = fit_baseline(spec, x, y, dec=decompose(x)).m_hat
        assert shared.tobytes() == fit_baseline(spec, x, y).m_hat.tobytes()

    @seed(1)
    @settings(max_examples=200, deadline=None)
    @given(case=_graded_cases())
    def test_gram_route_matches_the_svd_reference_above_the_floor(self, case):
        # at s_rank >= 1e-4 s_1, GRAM_FLOOR on the eigenvalues, the projector
        # from the Gram matrix's eigenvectors moves the fitted values in the
        # ridge metric by at most 1.1e-12 relative over 3000 such draws; below
        # it, the fit is the SVD route's, bit for bit
        spec, x, y = case
        ridge = fit_baseline(BaselineSpec("ridge", mu=spec.mu), x, y).m_hat.T
        aug = np.vstack([x, np.sqrt(spec.mu) * np.eye(x.shape[1])]) if spec.mu > 0 else x
        fitted = aug @ ridge
        s = np.linalg.svd(fitted, compute_uv=False)
        assume(s[0] > 0.0)
        got = fit_baseline(spec, x, y).m_hat
        if s[spec.rank - 1] >= 1e-4 * s[0]:
            want = aug @ _ref_truncate(ridge, fitted, spec.rank)
            assert np.linalg.norm(aug @ got.T - want) <= 1e-10 * np.linalg.norm(want)
        else:
            with mock.patch.object(baselines, "GRAM_FLOOR", np.inf):  # every rank by SVD
                svd_route = fit_baseline(spec, x, y).m_hat
            assert got.tobytes() == svd_route.tobytes()

    @pytest.mark.parametrize("method", DIRECT)
    def test_empty_design_gives_zero_coefficients(self, method):
        spec = BaselineSpec(method, mu=0.0, rank=None if method == "ridge" else 1)
        model = fit_baseline(spec, np.zeros((0, 3)), np.zeros((0, 2)))
        np.testing.assert_array_equal(model.m_hat, np.zeros((2, 3)))


@st.composite
def _validation_cases(draw):
    """A small training and validation window and a grid of direct and
    iterative specs within the problem's rank bounds; sometimes with a tie (a
    later spec equal to an earlier one) or a constant validation response."""
    n, d1, d2, n_va = (draw(st.integers(1, hi)) for hi in (12, 7, 4, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    x, y = _data(n, d1, d2, seed)
    x_va, y_va = _data(n_va, d1, d2, seed + 1)
    mus, coef_rank = st.sampled_from([0.0, 0.1, 1.0, 10.0]), st.integers(1, min(d1, d2, n))
    spec = st.one_of(
        st.builds(BaselineSpec, st.just("ridge"), mu=mus),
        st.builds(BaselineSpec, st.just("rrr"), rank=coef_rank),
        st.builds(BaselineSpec, st.just("reduced_rank_ridge"), mu=mus, rank=coef_rank),
        st.builds(BaselineSpec, st.just("pcr"), rank=st.integers(1, min(d1, n))),
        st.builds(BaselineSpec, st.sampled_from(["lasso", "nuclear"]), mu=mus))
    grid = draw(st.lists(spec, min_size=1, max_size=6))
    if draw(st.booleans()):
        twin = grid[draw(st.integers(0, len(grid) - 1))]
        grid.append(BaselineSpec(twin.method, mu=twin.mu, rank=twin.rank))
    if draw(st.integers(0, 3)) == 0:
        y_va = np.full_like(y_va, 0.5)
    return grid, (x, y), (x_va, y_va)


class TestValidateHyperparams:
    @seed(1)
    @settings(max_examples=150, deadline=None)
    @given(case=_validation_cases())
    def test_picks_what_scoring_fresh_fits_picks(self, case):
        # the reference forms every spec's coefficients and scores
        # x_va @ m_hat.T; validation scores a direct spec from its filter
        # instead, which moves a score by rounding only, so two models whose
        # scores differ by less than that are left out unless they tie exactly
        grid, train, valid = case
        with mock.patch.object(baselines, "MAX_ITERS", 50):
            fresh = [fit_baseline(spec, *train) for spec in grid]
            score = metrics.validation_mse(valid[1])
            scores = [score(valid[0] @ m.m_hat.T) for m in fresh]
            defined = sorted({sc for sc in scores if not np.isnan(sc)})
            assume(all(b - a > 1e-9 * b for a, b in zip(defined, defined[1:])))
            want = metrics.lowest(zip(scores, range(len(grid))))
            if want is None:
                with pytest.raises(ValueError, match="no spec of the grid scored"):
                    validate_hyperparams(grid, validation_window(train, valid))
                return
            winner = validate_hyperparams(grid, validation_window(train, valid))
        assert winner.method is grid[want]
        assert winner.m_hat.tobytes() == fresh[want].m_hat.tobytes()
        assert (winner.iterations_used, winner.converged, _bits(winner.gap)) == (
            fresh[want].iterations_used, fresh[want].converged, _bits(fresh[want].gap))

    @pytest.mark.parametrize("bad", [
        BaselineSpec("rrr", rank=3), BaselineSpec("reduced_rank_ridge", mu=1.0, rank=3),
        BaselineSpec("pcr", rank=6)], ids=["rrr", "reduced_rank_ridge", "pcr"])
    def test_rank_beyond_the_problem_raises_even_when_it_would_lose(self, bad, monkeypatch):
        # d2 = 2 bounds rrr's rank and d1 = 5 pcr's; the first spec would win
        x, y = _data(12, 5, 2, seed=40)
        x_va, y_va = _data(6, 5, 2, seed=41)
        scores = iter([0.0, 1.0])
        monkeypatch.setattr(baselines, "validation_mse", lambda y: lambda y_hat: next(scores))
        grid = [BaselineSpec("ridge", mu=1.0), bad]
        with pytest.raises(ValueError, match="rank %d exceeds the problem dimensions" % bad.rank):
            validate_hyperparams(grid, validation_window((x, y), (x_va, y_va)))

    def test_validation_design_of_other_width_is_refused(self):
        x, y = _data(12, 5, 2, seed=40)
        x_va, y_va = _data(6, 4, 2, seed=41)
        with pytest.raises(ValueError, match="validation x must have 5 columns"):
            validation_window((x, y), (x_va, y_va))

    # refused before the SVD: a validation y of other width would be scored
    # by broadcasting, and a window without rows by a division by zero
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_tr, n_va, d2_va, message", [
        (20, 8, 1, "validation y must have 3 columns"),
        (0, 8, 3, "training x and y have no rows"),
        (20, 0, 3, "validation x and y have no rows"),
    ], ids=["valid_y_width", "no_training_rows", "no_validation_rows"])
    def test_mismatched_or_empty_window_is_refused(self, n_tr, n_va, d2_va, message,
                                                   monkeypatch):
        x, y = _data(n_tr, 5, 3, seed=42)
        x_va, y_va = _data(n_va, 5, d2_va, seed=43)
        monkeypatch.setattr(baselines, "decompose", lambda a: pytest.fail("x_tr was factored"))
        with pytest.raises(ValueError, match="^%s$" % message):
            validation_window((x, y), (x_va, y_va))

    def test_single_element_grid(self):
        x, y = _data(30, 5, 2, seed=22)
        spec = BaselineSpec("ridge", mu=1.0)
        got = validate_hyperparams([spec], validation_window((x, y), (x, y)))
        assert got.method is spec

    def test_oracle_best_selected(self):
        inst = make_instance(SynthConfig(d1=20, d2=10, n=40, rank_m=3, eta=1.0,
                                         seed=23))
        x_va = inst.x[:15]
        y_va = inst.y[:15]
        grid = [BaselineSpec("ridge", mu=1e-8), BaselineSpec("ridge", mu=5.0)]
        got = validate_hyperparams(grid, validation_window((inst.x, inst.y), (x_va, y_va)))
        # hand evaluation of both candidates via the same metric
        from arrr.metrics import evaluate
        scores = [
            evaluate(fit_baseline(s, inst.x, inst.y), x_va, y_va).mse_out
            for s in grid
        ]
        assert got.method == grid[int(np.argmin(scores))]

    def test_tie_breaks_to_first(self):
        x, y = _data(25, 4, 2, seed=24)
        grid = [BaselineSpec("ridge", mu=1.0), BaselineSpec("ridge", mu=1.0)]
        got = validate_hyperparams(grid, validation_window((x, y), (x, y)))
        assert got.method is grid[0]

    @pytest.mark.parametrize("grid, weak", [
        ([BaselineSpec("ridge", mu=mu) for mu in (0.0, 0.5, 5.0)], False),
        ([BaselineSpec("rrr", rank=r) for r in (1, 2, 4)], False),
        ([BaselineSpec("reduced_rank_ridge", mu=mu, rank=r) for mu in (0.0, 2.0) for r in (1, 3)],
         False),
        ([BaselineSpec("pcr", rank=r) for r in (1, 5, 12)], False),
        ([BaselineSpec("lasso", mu=mu) for mu in (0.1, 5.0)], False),
        ([BaselineSpec("nuclear", mu=mu) for mu in (0.1, 5.0)], False),
        # y's last column within 1e-6 of its first: rank 4 of the fitted values
        # is below GRAM_FLOOR and takes the SVD, ranks 1 to 3 the Gram route
        ([BaselineSpec("rrr", rank=r) for r in (4, 1, 3, 2)]
         + [BaselineSpec("reduced_rank_ridge", mu=2.0, rank=r) for r in (3, 4)], True),
    ], ids=["ridge", "rrr", "reduced_rank_ridge", "pcr", "lasso", "nuclear", "across_the_floor"])
    def test_winner_equals_a_fresh_fit_bitwise(self, grid, weak, monkeypatch):
        monkeypatch.setattr(baselines, "MAX_ITERS", 50)
        x, y = _data(12, 15, 4, seed=27)
        x_va, y_va = _data(10, 15, 4, seed=28)
        if weak:
            y[:, 3] = y[:, 0] + 1e-6 * y[:, 3]
            y_va[:, 3] = y_va[:, 0] + 1e-6 * y_va[:, 3]
        winner = validate_hyperparams(grid, validation_window((x, y), (x_va, y_va)))
        refit = fit_baseline(winner.method, x, y)
        assert winner.m_hat.tobytes() == refit.m_hat.tobytes()
        assert winner.iterations_used == refit.iterations_used
        assert winner.converged == refit.converged

    @pytest.mark.parametrize("want", range(7))
    def test_rank_grid_takes_one_fitted_values_svd_per_mu(self, want, monkeypatch):
        # rrr is reduced-rank ridge at mu 0, so the grid has three filter mus;
        # the fitted values are factored once per mu, by eigh of their Gram
        # matrix, and every rank here is above GRAM_FLOOR, so none takes an SVD
        grid = ([BaselineSpec("rrr", rank=r) for r in (3, 1, 4)]
                + [BaselineSpec("reduced_rank_ridge", mu=mu, rank=r)
                   for mu, r in ((2.0, 2), (0.0, 4), (0.5, 1), (2.0, 4))])
        x, y = _data(20, 15, 6, seed=31)
        x_va, y_va = _data(10, 15, 6, seed=32)
        dec = decompose(x)
        fresh = [fit_baseline(spec, x, y, dec).m_hat.tobytes() for spec in grid]

        # the validation score picks grid[want]; eigh and decompose are
        # counted, and the one SVD is the window's, of the training design
        scores = iter([0.0 if i == want else 1.0 for i in range(len(grid))])
        monkeypatch.setattr(baselines, "validation_mse", lambda y: lambda y_hat: next(scores))
        calls = {"eigh": [], "decompose": []}
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls["eigh"].append(a) or eigh(a))
        monkeypatch.setattr(baselines, "decompose",
                            lambda a: calls["decompose"].append(a) or decompose(a))
        winner = validate_hyperparams(grid, validation_window((x, y), (x_va, y_va)))
        assert winner.method is grid[want]
        assert winner.m_hat.tobytes() == fresh[want]
        assert [a.shape for a in calls["eigh"]] == [(6, 6)] * 3
        assert [a.shape for a in calls["decompose"]] == [(20, 15)]

    def test_constant_validation_response_has_no_winner(self):
        # every pooled validation MSE is NaN, and a NaN score never wins
        x, y = _data(30, 5, 2, seed=22)
        x_va = _data(10, 5, 2, seed=30)[0]
        grid = [BaselineSpec("ridge", mu=100.0), BaselineSpec("ridge", mu=0.01)]
        with pytest.raises(ValueError, match="no spec of the grid scored"):
            validate_hyperparams(grid, validation_window((x, y), (x_va, np.ones((10, 2)))))

    def test_grids_sharing_a_window_check_and_project_it_once(self, monkeypatch):
        # a rolling fold's or compare cell's grids: with one validation_window
        # the windows are checked, U^T y filtered and x_va V formed once for
        # all of them, and each winner is bit for bit the one-grid call's
        grids = [[BaselineSpec("lasso", mu=mu) for mu in (0.1, 2.0)],
                 [BaselineSpec("pcr", rank=r) for r in (1, 3)],
                 [BaselineSpec("ridge", mu=mu) for mu in (0.1, 1.0)],
                 [BaselineSpec("nuclear", mu=1.0), BaselineSpec("nuclear", mu=0.0)]]
        x, y = _data(20, 6, 3, seed=35)
        x_va, y_va = _data(8, 6, 3, seed=36)
        alone = [validate_hyperparams(grid, validation_window((x, y), (x_va, y_va)))
                 for grid in grids]
        checks, filters = [], []
        real_check, real_filter = baselines.require_xy, baselines._svd_filter
        monkeypatch.setattr(baselines, "require_xy",
                            lambda what, *xy: checks.append(what) or real_check(what, *xy))
        monkeypatch.setattr(baselines, "_svd_filter",
                            lambda *a: filters.append(a) or real_filter(*a))
        window = validation_window((x, y), (x_va, y_va))
        for grid, want in zip(grids, alone):
            got = validate_hyperparams(grid, window)
            assert got.method is want.method and got.m_hat.tobytes() == want.m_hat.tobytes()
        assert [what for what in checks if what != "x and y"] == [
            "training x and y", "validation x and y"]
        assert len(filters) == 1

    def test_empty_grid(self):
        window = validation_window((np.zeros((2, 2)), np.zeros((2, 1))),
                                   (np.zeros((2, 2)), np.zeros((2, 1))))
        with pytest.raises(ValueError, match="empty hyperparameter grid"):
            validate_hyperparams([], window)

    # both windows are checked before the grid's one SVD of the training design
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("window, which, bad, named", [
        (0, 0, np.inf, "training x and y"), (1, 1, np.nan, "validation x and y"),
    ], ids=["train_x_inf", "valid_y_nan"])
    def test_non_finite_window_is_named(self, window, which, bad, named):
        windows = [list(_data(20, 5, 2, seed=33)), list(_data(10, 5, 2, seed=34))]
        windows[window][which][3, 1] = bad
        grid = [BaselineSpec("ridge", mu=mu) for mu in (0.1, 1.0)]
        with pytest.raises(NonFiniteError, match="^%s must hold only finite values$" % named):
            validate_hyperparams(grid, validation_window(*windows))


class TestPredictLinear:
    def _model(self):
        x, y = _data(20, 4, 2, seed=29)
        return x, fit_baseline(BaselineSpec("ridge", mu=1.0), x, y)

    def test_predicts_with_the_coefficients(self):
        x, model = self._model()
        assert predict_linear(model, x).tobytes() == (x @ model.m_hat.T).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_raise(self, bad):
        x, model = self._model()
        x = x.copy()
        x[3, 1] = bad
        with pytest.raises(NonFiniteError, match="x_new"):
            predict_linear(model, x)

    @pytest.mark.parametrize("shape", [(5, 3), (5, 5), (4,)], ids=["fewer", "more", "vector"])
    def test_column_count_is_checked(self, shape):
        _, model = self._model()
        with pytest.raises(ValueError, match="must have 4 columns"):
            predict_linear(model, np.ones(shape))


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        x, y = _data(10, 4, 3, seed=25)
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("boosting"), x, y)
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("ridge", mu=-1.0), x, y)
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("rrr"), x, y)  # rank required
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("rrr", rank=10), x, y)  # above min dim
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("pcr", rank=0), x, y)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            fit_baseline(BaselineSpec("ridge", mu=1.0),
                         np.zeros((5, 2)), np.zeros((4, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which, bad", [("x", np.inf), ("y", np.nan)])
    @pytest.mark.parametrize("method", sorted(_READS))
    def test_non_finite_data_raises(self, method, which, bad):
        x, y = _data(10, 4, 3, seed=25)
        (x if which == "x" else y)[2, 1] = bad
        spec = BaselineSpec(method, **{k: _SET[k] for k in _READS[method]})
        with pytest.raises(NonFiniteError, match="^x and y must hold only finite values$"):
            fit_baseline(spec, x, y)

    # each method, given every hyperparameter in turn: a key it reads is kept,
    # and any other is refused by name
    @pytest.mark.parametrize("method", sorted(_READS))
    def test_a_spec_sets_only_what_its_method_reads(self, method):
        needs = {"rank": _SET["rank"]} if "rank" in _READS[method] else {}
        for key, value in _SET.items():
            kwargs = dict(needs, **{key: value})
            if key in _READS[method]:
                assert getattr(BaselineSpec(method, **kwargs), key) == value
            else:
                with pytest.raises(ValueError, match="^%s takes no %s$" % (method, key)):
                    BaselineSpec(method, **kwargs)

    def test_nan_mu_rejected(self):
        with pytest.raises(ValueError):
            BaselineSpec("ridge", mu=float("nan"))
