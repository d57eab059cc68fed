import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrr import baselines
from arrr.baselines import (
    BaselineSpec,
    SolverOpts,
    _prox_nuclear,
    fit_baseline,
    predict_linear,
    validate_hyperparams,
)
from arrr.estimator import NonFiniteError
from arrr.spectral import decompose
from arrr.synth import SynthConfig, make_instance


def _data(n, d1, d2, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d1))
    y = rng.normal(size=(n, d2))
    return x, y


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
          "pcr": ("rank",), "lasso": ("mu", "solver"), "nuclear": ("mu", "solver")}
_SET = {"mu": 0.5, "rank": 2, "solver": SolverOpts(max_iters=50)}


# Reference solvers for the iterative methods: per-coordinate descent for the
# lasso, stopped when a sweep moves no coefficient by tol, and plain proximal
# gradient for the nuclear norm, stopped when a step changes the objective by
# less than tol. Each returns (coefficients d1 x d2, converged).
def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _ref_lasso(x, y, mu, opts):
    beta = np.zeros((x.shape[1], y.shape[1]))
    resid = y.copy()
    col_sq = np.sum(x ** 2, axis=0)
    for _ in range(opts.max_iters):
        max_change = 0.0
        for k in np.flatnonzero(col_sq):
            old = beta[k, :].copy()
            new = _soft(x[:, k] @ resid + col_sq[k] * old, mu) / col_sq[k]
            resid -= np.outer(x[:, k], new - old)
            beta[k, :] = new
            max_change = max(max_change, float(np.max(np.abs(new - old))))
        if max_change < opts.tol:
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


def _ref_nuclear(x, y, mu, opts):
    step = 1.0 / float(np.linalg.norm(x, 2)) ** 2
    b = np.zeros((x.shape[1], y.shape[1]))
    obj = _objective("nuclear", x, y, b, mu)
    for _ in range(opts.max_iters):
        b = _svt(b - step * (x.T @ (x @ b - y)), mu * step)
        prev, obj = obj, _objective("nuclear", x, y, b, mu)
        if abs(prev - obj) < opts.tol:
            return b, True
    return b, False


@st.composite
def _iterative_cases(draw):
    """(method, mu, x, y) for lasso or nuclear norm: d1 may exceed n, x may
    carry a zero and a duplicated column, and mu runs from 0 to above
    max |x^T y|, where the lasso solution is zero."""
    n, d1, d2 = draw(st.integers(3, 12)), draw(st.integers(3, 12)), draw(st.integers(1, 4))
    x, y = _data(n, d1, d2, seed=draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        x[:, 0] = 0.0
    if draw(st.booleans()):
        x[:, -1] = x[:, 1]
    scale = draw(st.sampled_from([0.0, 0.01, 0.1, 0.3, 1.0, 1.5]))
    mu = scale * float(np.max(np.abs(x.T @ y)))
    return draw(st.sampled_from(["lasso", "nuclear"])), mu, x, y


def _svd_prox_nuclear(v, t):
    """Reference nuclear prox: soft thresholding of the full SVD of v."""
    dec = decompose(v)
    s = np.maximum(dec.s - t, 0.0)
    return (dec.u * s) @ dec.v.T, float(np.sum(s))


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

    def test_objective_trace_non_increasing(self):
        x, y = _data(40, 10, 3, seed=16)
        model = fit_baseline(BaselineSpec("lasso", mu=2.0), x, y)
        diffs = np.diff(model.objective_trace)
        assert np.all(diffs <= 1e-12)

    def test_non_convergence_flagged_not_raised(self):
        x, y = _data(40, 10, 3, seed=17)
        spec = BaselineSpec("lasso", mu=0.01, solver=SolverOpts(max_iters=1))
        model = fit_baseline(spec, x, y)
        assert not model.converged
        assert model.iterations_used == 1


class TestNuclear:
    def test_objective_trace_non_increasing(self):
        x, y = _data(30, 8, 5, seed=18)
        model = fit_baseline(BaselineSpec("nuclear", mu=1.0), x, y)
        diffs = np.diff(model.objective_trace)
        assert np.all(diffs <= 1e-12)
        assert model.converged

    def test_mu_zero_approaches_least_squares(self):
        x, y = _data(40, 6, 3, seed=19)
        spec = BaselineSpec("nuclear", mu=0.0, solver=SolverOpts(max_iters=20000,
                                                                 tol=1e-14))
        model = fit_baseline(spec, x, y)
        ols = _ols(x, y)
        assert np.linalg.norm(model.m_hat - ols) / np.linalg.norm(ols) <= 1e-5

    def test_solution_is_prox_fixed_point(self):
        x, y = _data(35, 7, 4, seed=20)
        mu = 0.5
        spec = BaselineSpec("nuclear", mu=mu, solver=SolverOpts(tol=1e-12))
        model = fit_baseline(spec, x, y)
        b = model.m_hat.T
        step = 1.0 / float(np.linalg.norm(x, 2)) ** 2
        z = b - step * (x.T @ (x @ b - y))
        u, s, vt = np.linalg.svd(z, full_matrices=False)
        prox = (u * np.maximum(s - mu * step, 0.0)) @ vt
        assert np.max(np.abs(prox - b)) <= 1e-5

    def test_non_convergence_flagged(self):
        x, y = _data(30, 8, 5, seed=21)
        spec = BaselineSpec("nuclear", mu=1.0, solver=SolverOpts(max_iters=1))
        model = fit_baseline(spec, x, y)
        assert not model.converged


class TestProximalSolver:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=_iterative_cases())
    def test_matches_reference_solvers(self, case):
        method, mu, x, y = case
        opts = SolverOpts()
        model = fit_baseline(BaselineSpec(method, mu=mu, solver=opts), x, y)
        assert np.all(np.diff(model.objective_trace) <= 0.0)
        b = model.m_hat.T
        ref, ref_converged = (_ref_lasso if method == "lasso" else _ref_nuclear)(x, y, mu, opts)
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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=_prox_cases())
    def test_nuclear_prox_matches_svd_reference(self, case):
        v, t, s_max = case
        p, r = _prox_nuclear(v, t)
        p_ref, r_ref = _svd_prox_nuclear(v, t)
        bound = 1e-11 * max(1.0, s_max)
        assert p.shape == v.shape
        assert np.max(np.abs(p - p_ref)) <= bound
        assert abs(r - r_ref) <= bound
        # each kept singular value is as accurate as the SVD's, eps * s_max up
        # to a small factor; a root of its Gram eigenvalue is not
        assert abs(r - r_ref) <= 10.0 * min(v.shape) * np.finfo(float).eps * s_max

    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    def test_unreachable_tol_stops_at_rounding_floor(self, method):
        # no iterate meets tol = 1e-15; the loop must notice that a plain
        # step no longer lowers the objective instead of running to max_iters
        x, y = _data(30, 8, 5, seed=21)
        opts = SolverOpts(max_iters=5000, tol=1e-15)
        model = fit_baseline(BaselineSpec(method, mu=0.5, solver=opts), x, y)
        assert not model.converged
        assert model.iterations_used < opts.max_iters
        assert np.all(np.diff(model.objective_trace) <= 0.0)

    @pytest.mark.parametrize("method", ["lasso", "nuclear"])
    @pytest.mark.parametrize("n", [0, 6])
    def test_degenerate_design(self, method, n):
        # a zero or empty design: one step confirms b = 0 is optimal
        y = np.ones((n, 2))
        model = fit_baseline(BaselineSpec(method, mu=1.0), np.zeros((n, 3)), y)
        np.testing.assert_array_equal(model.m_hat, np.zeros((2, 3)))
        assert model.converged
        assert model.iterations_used == 1
        np.testing.assert_array_equal(model.objective_trace, [n, n])


class TestSVDFilter:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=_direct_cases())
    def test_matches_reference_solvers(self, case):
        spec, x, y = case
        got = fit_baseline(spec, x, y).m_hat
        want = _reference_m_hat(spec, x, y)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=_direct_cases())
    def test_shared_decomposition_is_bitwise_equal(self, case):
        spec, x, y = case
        shared = fit_baseline(spec, x, y, dec=decompose(x)).m_hat
        assert shared.tobytes() == fit_baseline(spec, x, y).m_hat.tobytes()

    @pytest.mark.parametrize("method", DIRECT)
    def test_empty_design_gives_zero_coefficients(self, method):
        spec = BaselineSpec(method, mu=0.0, rank=None if method == "ridge" else 1)
        model = fit_baseline(spec, np.zeros((0, 3)), np.zeros((0, 2)))
        np.testing.assert_array_equal(model.m_hat, np.zeros((2, 3)))


class TestValidateHyperparams:
    def test_single_element_grid(self):
        x, y = _data(30, 5, 2, seed=22)
        spec = BaselineSpec("ridge", mu=1.0)
        got = validate_hyperparams([spec], (x, y), (x, y))
        assert got.method is spec

    def test_oracle_best_selected(self):
        inst = make_instance(SynthConfig(d1=20, d2=10, n=40, rank_m=3, eta=1.0,
                                         seed=23))
        x_va = inst.x[:15]
        y_va = inst.y[:15]
        grid = [BaselineSpec("ridge", mu=1e-8), BaselineSpec("ridge", mu=5.0)]
        got = validate_hyperparams(grid, (inst.x, inst.y), (x_va, y_va))
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
        got = validate_hyperparams(grid, (x, y), (x, y))
        assert got.method is grid[0]

    @pytest.mark.parametrize("grid", [
        [BaselineSpec("ridge", mu=mu) for mu in (0.0, 0.5, 5.0)],
        [BaselineSpec("rrr", rank=r) for r in (1, 2, 4)],
        [BaselineSpec("reduced_rank_ridge", mu=mu, rank=r) for mu in (0.0, 2.0) for r in (1, 3)],
        [BaselineSpec("pcr", rank=r) for r in (1, 5, 12)],
        [BaselineSpec("lasso", mu=mu, solver=SolverOpts(max_iters=50)) for mu in (0.1, 5.0)],
        [BaselineSpec("nuclear", mu=mu, solver=SolverOpts(max_iters=50)) for mu in (0.1, 5.0)],
    ], ids=["ridge", "rrr", "reduced_rank_ridge", "pcr", "lasso", "nuclear"])
    def test_winner_equals_a_fresh_fit_bitwise(self, grid):
        x, y = _data(12, 15, 4, seed=27)
        x_va, y_va = _data(10, 15, 4, seed=28)
        winner = validate_hyperparams(grid, (x, y), (x_va, y_va))
        refit = fit_baseline(winner.method, x, y)
        assert winner.m_hat.tobytes() == refit.m_hat.tobytes()
        shared = validate_hyperparams(grid, (x, y), (x_va, y_va), dec=decompose(x))
        assert shared.m_hat.tobytes() == winner.m_hat.tobytes()
        assert winner.iterations_used == refit.iterations_used
        assert winner.converged == refit.converged

    @pytest.mark.parametrize("want", range(7))
    def test_rank_grid_takes_one_fitted_values_svd_per_mu(self, want, monkeypatch):
        # rrr is reduced-rank ridge at mu 0, so the grid has three filter mus
        grid = ([BaselineSpec("rrr", rank=r) for r in (3, 1, 4)]
                + [BaselineSpec("reduced_rank_ridge", mu=mu, rank=r)
                   for mu, r in ((2.0, 2), (0.0, 4), (0.5, 1), (2.0, 4))])
        x, y = _data(20, 15, 6, seed=31)
        x_va, y_va = _data(10, 15, 6, seed=32)
        dec = decompose(x)
        fresh = [fit_baseline(spec, x, y, dec).m_hat.tobytes() for spec in grid]

        # the validation score picks grid[want]; decompose is counted
        scores = iter([0.0 if i == want else 1.0 for i in range(len(grid))])
        monkeypatch.setattr(baselines, "pooled_scores", lambda y, y_hat: (next(scores), 0.0, 0.0))
        calls = []
        monkeypatch.setattr(baselines, "decompose", lambda a: calls.append(a) or decompose(a))
        winner = validate_hyperparams(grid, (x, y), (x_va, y_va), dec=dec)
        assert winner.method is grid[want]
        assert winner.m_hat.tobytes() == fresh[want]
        assert len(calls) == 3

    def test_constant_validation_response_has_no_winner(self):
        # every pooled validation MSE is NaN, and a NaN score never wins
        x, y = _data(30, 5, 2, seed=22)
        x_va = _data(10, 5, 2, seed=30)[0]
        grid = [BaselineSpec("ridge", mu=100.0), BaselineSpec("ridge", mu=0.01)]
        with pytest.raises(ValueError, match="no spec of the grid scored"):
            validate_hyperparams(grid, (x, y), (x_va, np.ones((10, 2))))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            validate_hyperparams([], (np.zeros((2, 2)), np.zeros((2, 1))),
                                 (np.zeros((2, 2)), np.zeros((2, 1))))

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
            validate_hyperparams(grid, *windows)


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
        with pytest.raises(ValueError):
            fit_baseline(
                BaselineSpec("lasso", mu=1.0, solver=SolverOpts(tol=0.0)), x, y)

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
