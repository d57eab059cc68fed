"""End-to-end acceptance checks.

One test per headline behavior, each printing a single PASS/FAIL line and
enforcing its wall-clock budget. Run `pytest -s tests/test_acceptance.py -v`
to watch the lines as they go by.
"""

import filecmp
import functools
import json
import os
import time

import numpy as np

from arrr.baselines import BaselineSpec, fit_baseline
from arrr.cli import TEST_STREAM, derived_seed, main
from arrr.estimator import (
    FitConfig,
    fit_adaptive_rrr,
    fit_path,
    rank_path_scores,
    step1_pca_x,
    step2_pca_denoise,
)
from arrr.metrics import pooled_scores
from arrr.packing import (
    PackingParams,
    build_family,
    kl_divergence,
    psi_mass,
    verify_packing,
)
from arrr.spectral import decompose, find_gap_tail_index
from arrr.synth import (
    SynthConfig,
    gen_coefficients,
    gen_covariance,
    gen_dataset,
    gen_design,
    make_instance,
)

# smallest positive float: keeps the retention threshold defined at zero noise
TINY = 5e-324


def _report(tag, ok, detail, elapsed, budget=None):
    line = "[%s] %s %s" % (tag, "PASS" if ok else "FAIL", detail)
    if budget is not None:
        line += " (%.1fs, budget %ds)" % (elapsed, budget)
    print(line)
    if budget is not None:
        assert elapsed <= budget, "over budget: %.1fs > %ds" % (elapsed, budget)
    assert ok, line


def test_c01_whitening_exactness():
    """Whitened scores are decorrelated to machine accuracy across shapes."""
    t0 = time.time()
    dims = (20, 60, 120, 250, 300)
    worst = 0.0
    for i in range(50):
        n = 10 + round(i * 290 / 49)  # spans 10..300
        d1 = dims[i % len(dims)]
        x = np.random.default_rng(i).standard_normal((n, d1))
        k1 = min(n, d1)
        dec = decompose(x)
        pi, _ = step1_pca_x(dec, delta=1e-9, k1_override=k1)
        z = np.sqrt(n) * dec.u[:, :pi.shape[0]]
        worst = max(worst, np.max(np.abs(z.T @ z / n - np.eye(k1))))
    _report("c01", worst <= 1e-10,
            "max whitening residual %.2e over 50 seeded inputs" % worst,
            time.time() - t0, 5)


def test_c02_noiseless_recovery():
    """With zero noise and oracle ranks the coefficient matrix comes back."""
    t0 = time.time()
    inst = make_instance(SynthConfig(d1=50, d2=30, n=200, rank_m=5,
                                     eta=0.0, seed=0))
    model = fit_adaptive_rrr(
        inst.x, inst.y,
        FitConfig(sigma_eps=TINY, k1_override=50, k2_override=5))
    rel = np.linalg.norm(model.m_hat - inst.m) / np.linalg.norm(inst.m)
    _report("c02", rel <= 1e-6,
            "relative reconstruction error %.2e" % rel, time.time() - t0, 1)


def _supported_rank(inst, k1):
    """Number of directions worth keeping when denoising the whitened cross
    moment at the instance's noise scale.

    The noise in N_hat = y.T @ z_hat / n is i.i.d. N(0, sigma^2 / n) entrywise,
    because z_hat / sqrt(n) has orthonormal columns. Hard truncation of a
    d2 x k1 matrix under such noise gains from a direction only when its
    signal singular value exceeds sigma * sqrt(max(d2, k1) / n) * x*(beta),
    with beta = min / max and x*^2 = ((1 + beta) + sqrt(beta^2 + 14 beta + 1)) / 2
    (Gavish & Donoho 2014, "The optimal hard threshold for singular values
    is 4/sqrt(3)"). Counted on the population matrix inst.n_mat, so only the
    generator's truth, its noise scale and the shapes enter.
    """
    n, d2 = inst.y.shape
    beta = min(d2, k1) / max(d2, k1)
    x_star = np.sqrt(((1 + beta) + np.sqrt(beta ** 2 + 14 * beta + 1)) / 2)
    level = inst.sigma_noise * np.sqrt(max(d2, k1) / n) * x_star
    return int(np.sum(np.linalg.svd(inst.n_mat, compute_uv=False) > level))


def _rank_sweep(eta, k2_grid, score):
    """Mean over 20 seeds of score(inst, m_hat) along k2_grid on the README
    sweep shape with k1 = n = 150, and the mean supported rank."""
    curves, ranks = [], []
    for seed in range(20):
        inst = make_instance(SynthConfig(d1=200, d2=100, n=150, rank_m=50,
                                         eta=eta, seed=seed))
        sig = max(inst.sigma_noise, TINY)
        # one path: one SVD of x and one of n_hat serve every k2
        path = fit_path(inst.x, inst.y, [
            FitConfig(delta=1e-3, theta=2.0, sigma_eps=sig, k1_override=150,
                      k2_override=k2) for k2 in k2_grid])
        curves.append([score(inst, model.m_hat) for model in path])
        ranks.append(_supported_rank(inst, 150))
    return np.mean(curves, axis=0), float(np.mean(ranks))


def test_c03_error_minimum_near_true_rank():
    """Sweeping the denoising rank at moderate noise: the minimum of the
    mean error in the noiseless training signal is expected within 5 of the
    rank the signal supports at that noise level."""
    # The score is ||x (m_hat - m)^T||_F. With k1 = n the whitened scores
    # span the row space of x, so it equals sqrt(n) ||N_hat_k2 - N||_F, which
    # is stage 2's denoising error. The coefficient error ||m_hat - m||_F
    # cannot show a minimum here: with n < d1, pi_hat divides by sqrt(lambda)
    # down to lambda_150, so that error grows from the first direction on and
    # its mean curve over k2 in 0..100 has its minimum at k2 = 0 (26.6 at 0,
    # 28.2 at 1, 90.4 at 50). Nor is the true rank 50 the target at eta 0.25:
    # on average only about 20 of the 50 population singular values clear
    # the break-even level of hard truncation (_supported_rank). Measured:
    # argmin 21 against a supported rank of 19.8. The same check gives 50 vs
    # 50.0 at eta 0.05, 10 vs 9.9 at eta 0.5 and 5 vs 4.8 at eta 1.0.
    t0 = time.time()
    k2_grid = list(range(0, 71))
    curve, target = _rank_sweep(
        0.25, k2_grid, lambda inst, m_hat: np.linalg.norm(
            inst.x @ (m_hat - inst.m).T))
    argmin = k2_grid[int(np.argmin(curve))]
    detail = ("argmin k2 = %d over {0..70}, supported rank %.1f, want within "
              "5; mean error %.1f @0, %.1f @20, %.1f @50, %.1f @70"
              % (argmin, target, curve[0], curve[20], curve[50], curve[70]))
    _report("c03", abs(argmin - target) <= 5, detail, time.time() - t0, 120)


def test_c03_companion_interior_minimum_at_low_noise():
    """Coefficient error over k2 in 30..70 with noise cut to eta=0.05, where
    the signal supports all 50 directions: the minimum moves inside the grid
    and sits at the true rank."""
    t0 = time.time()
    k2_grid = list(range(30, 71))
    curve, target = _rank_sweep(
        0.05, k2_grid, lambda inst, m_hat: np.linalg.norm(m_hat - inst.m))
    argmin = k2_grid[int(np.argmin(curve))]
    _report("c03-companion", 45 <= argmin <= 55,
            "argmin k2 = %d at eta=0.05, supported rank %.1f"
            % (argmin, target), time.time() - t0, 120)


def test_c03_threshold_keeps_the_supported_rank_past_d2():
    """With k1 = 150 above d2 = 100 and the oracle noise scale, the mean
    selected k2 over 20 seeds lies within 1.5 of the supported rank at
    eta 0.5 and 1.0."""
    # Stage 2's noise is a d2 x k1 matrix with top singular value about
    # sigma (sqrt(d2) + sqrt(k1)) / sqrt(n), which theta sigma sqrt(d2 / n)
    # does not clear once k1 > d2. Measured with sqrt(max(d2, k1) / n): mean
    # k2 10.6 vs 9.9 at eta 0.5 and 5.2 vs 4.8 at eta 1.0; with sqrt(d2 / n),
    # 7.8 and 7.0 above the supported rank.
    t0 = time.time()
    excess = []
    for eta in (0.5, 1.0):
        k2s, ranks = [], []
        for seed in range(20):
            inst = make_instance(SynthConfig(d1=200, d2=100, n=150, rank_m=50,
                                             eta=eta, seed=seed))
            model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(
                theta=2.0, sigma_eps=inst.sigma_noise, k1_override=150))
            k2s.append(model.k2)
            ranks.append(_supported_rank(inst, 150))
        excess.append(float(np.mean(k2s) - np.mean(ranks)))
    _report("c03-past-d2", all(abs(e) <= 1.5 for e in excess),
            "mean k2 minus supported rank %+.1f at eta 0.5, %+.1f at eta 1.0, "
            "want within 1.5" % tuple(excess), time.time() - t0, 60)


def test_c04_rank_adapts_down_with_noise():
    """Mean selected denoising rank is non-increasing in the noise level."""
    t0 = time.time()
    etas = (0.25, 0.5, 1.0, 2.0)
    means = []
    for eta in etas:
        vals = []
        for seed in range(20):
            inst = make_instance(SynthConfig(d1=200, d2=150, n=150,
                                             rank_m=10, eta=eta, seed=seed))
            model = fit_adaptive_rrr(
                inst.x, inst.y,
                FitConfig(delta=1e-3, theta=2.0,
                          sigma_eps=max(inst.sigma_noise, TINY)))
            vals.append(model.k2)
        means.append(float(np.mean(vals)))
    non_increasing = all(a >= b for a, b in zip(means, means[1:]))
    dropped = means[-1] <= means[0] - 2.0
    detail = "mean k2 across eta %s = %s" % (
        list(etas), ["%.2f" % m for m in means])
    _report("c04", non_increasing and dropped, detail, time.time() - t0, 120)


# Seeds 0..C05_SEEDS-1. The ratio of mean gaps has a delta-method standard
# error of about 1.04/sqrt(N): 0.33 at N=10, 0.073 at N=200.
C05_SEEDS = 200


@functools.lru_cache(maxsize=None)
def _c05_gaps():
    """Mean overfitting gaps (adaptive, constrained) over the c05 seeds,
    computed once and shared by c05 and its companion."""
    gaps_a, gaps_r = [], []
    for seed in range(C05_SEEDS):
        inst = make_instance(SynthConfig(d1=200, d2=150, n=150, rank_m=10,
                                         eta=0.4, seed=seed))
        x_te, y_te, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                                    150, 0.4, seed + 10_000)

        def gap(model):
            mse = lambda x, y: pooled_scores(y, x @ model.m_hat.T)[0]
            return mse(x_te, y_te) - mse(inst.x, inst.y)

        dec = decompose(inst.x)  # both fits take their SVD of x from here
        gaps_a.append(gap(fit_adaptive_rrr(
            inst.x, inst.y,
            FitConfig(delta=1e-3, theta=2.0,
                      sigma_eps=max(inst.sigma_noise, TINY)), dec)))
        gaps_r.append(gap(fit_baseline(BaselineSpec("rrr", rank=10),
                                       inst.x, inst.y, dec)))
    return float(np.mean(gaps_a)), float(np.mean(gaps_r))


def test_c05_overfitting_gap_ratio():
    """Rank-constrained least squares should overfit at least 3x more than
    the two-stage fit (test minus train normalized MSE, mean over 200 seeds)."""
    # The ratio is 3.29 over seeds 0..599 (bootstrap 95% interval over 300
    # seeds: 3.14-3.37) and 3.15 over seeds 0..199; disjoint 200-seed blocks
    # give 3.15-3.47. Ten seeds are too few for a 3x target: disjoint
    # 10-seed blocks range from 2.82 to 4.11, and seeds 0..9 give 2.85.
    t0 = time.time()
    gap_a, gap_r = _c05_gaps()
    ratio = gap_r / gap_a
    detail = ("gap ratio %.2f (constrained %.4f vs adaptive %.4f) over %d "
              "seeds, want >= 3" % (ratio, gap_r, gap_a, C05_SEEDS))
    _report("c05", ratio >= 3.0, detail, time.time() - t0, 60)


def test_c05_companion_overfitting_direction():
    """The constrained fit overfits at least twice as hard, on average over
    the c05 seeds."""
    t0 = time.time()
    gap_a, gap_r = _c05_gaps()
    ok = gap_a > 0 and gap_r >= 2.0 * gap_a
    _report("c05-companion", ok,
            "gap ratio %.2f, want >= 2" % (gap_r / gap_a), time.time() - t0, 60)


def test_c06_error_decay_rate_in_sample_size():
    """Excess risk decays like 1/n on a fixed low-rank signal."""
    t0 = time.time()
    v_star, lambda_star = gen_covariance(50, 2.0, 0)
    m = gen_coefficients(30, 50, 5, 5.0, 0)
    half = v_star * np.sqrt(lambda_star)
    ns = (200, 400, 800, 1600)
    means = []
    for n in ns:
        excess = []
        for rep in range(10):
            x, y, sig = gen_dataset(m, v_star, lambda_star, n, 0.5,
                                    1000 * n + rep)
            dec = decompose(x)
            pi, _ = step1_pca_x(dec, delta=1e-3, k1_override=50)
            z = np.sqrt(n) * dec.u[:, :50]
            n_tr, _, _, _ = step2_pca_denoise(decompose(y.T @ z / n), n,
                                              theta=2.0, sigma_eps=sig)
            excess.append(np.linalg.norm((n_tr @ pi - m) @ half) ** 2)
        means.append(float(np.mean(excess)))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    _report("c06", -1.3 <= slope <= -0.7,
            "log-log slope %.3f over n in %s, want in [-1.3, -0.7]"
            % (slope, list(ns)), time.time() - t0, 120)


def test_c07_gap_tail_index_bounds():
    """The scan finds an index with a large gap and a small tail, with
    constants calibrated once and reused across the whole grid."""
    t0 = time.time()
    d = 1000

    def spectrum(omega):
        lam = np.arange(1, d + 1, dtype=float) ** (-omega)
        return lam / lam.sum()

    # one calibration point; half the measured gap absorbs discreteness
    _, gap_cal, _ = find_gap_tail_index(spectrum(2.0), 50, 0.9)
    c1 = 0.5 * gap_cal / 50.0 ** (-(0.9 * 2.0 + 1.0))

    good = 0
    combos = 0
    for omega in (2.0, 2.5, 3.0):
        lam = spectrum(omega)
        tau = 0.9 * (omega - 1.0)
        for ell in (20, 50, 100):
            combos += 1
            _, gap, tail = find_gap_tail_index(lam, ell, tau)
            tail_ok = tail <= ell ** (-tau) + 1e-12
            gap_ok = gap >= c1 * ell ** (-(0.9 * omega + 1.0))
            good += tail_ok and gap_ok
    _report("c07", good == combos,
            "%d/%d (omega, ell) combos meet both calibrated bounds"
            % (good, combos), time.time() - t0, 5)


def _pure_noise_empty_count(theta, k1_override=None):
    """Of 100 pure-noise draws at (d1, d2, n) = (200, 100, 150), the number
    whose stage 2 keeps nothing."""
    zero = 0
    for seed in range(100):
        v, lam = gen_covariance(200, 2.0, seed)
        x = gen_design(v, lam, 150, seed + 50_000)
        y = np.random.default_rng(seed + 90_000).standard_normal((150, 100))
        dec = decompose(x)
        pi, _ = step1_pca_x(dec, delta=1e-3, k1_override=k1_override)
        z = np.sqrt(150) * dec.u[:, :pi.shape[0]]
        _, k2, _, _ = step2_pca_denoise(decompose(y.T @ z / 150), 150,
                                        theta=theta, sigma_eps=1.0)
        zero += k2 == 0
    return zero


def test_c08_pure_noise_yields_empty_model():
    """Responses with no signal should be rejected almost always."""
    t0 = time.time()
    zero = _pure_noise_empty_count(theta=4.0)
    _report("c08", zero >= 95,
            "k2 = 0 in %d/100 pure-noise draws, want >= 95" % zero,
            time.time() - t0, 10)


def test_c08_pure_noise_past_d2_yields_empty_model():
    """Pure noise with k1 = 150 above d2 = 100 at theta 2: stage 2's
    threshold still clears the noise, so k2 = 0 almost always."""
    t0 = time.time()
    zero = _pure_noise_empty_count(theta=2.0, k1_override=150)
    _report("c08-past-d2", zero >= 95,
            "k2 = 0 in %d/100 pure-noise draws at k1 150 > d2 100, want >= 95"
            % zero, time.time() - t0, 10)


def test_c09_packing_family_properties():
    """A built family of 8 unitaries is unitary to machine accuracy, keeps
    pairwise contested-block distances above 1.5x the block mass, and
    never overlaps supports on more than half a subset."""
    t0 = time.time()
    params = PackingParams(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                           k_patterns=16, s_size=8, seed=1)
    family = build_family(params)
    rep = verify_packing(family, params)
    psi = psi_mass(params)
    ok = (len(family.unitaries) == 8
          and params.subset_size == 8
          and rep.unitarity_residual <= 1e-10
          and rep.min_pairwise_distance >= 1.5 * psi
          and rep.max_support_overlap <= 4
          and rep.passed)
    detail = ("unitarity %.1e, min distance %.3f (floor %.3f), overlap %d"
              % (rep.unitarity_residual, rep.min_pairwise_distance,
                 1.5 * psi, rep.max_support_overlap))
    _report("c09", ok, detail, time.time() - t0, 30)


def test_c10_divergence_closed_form_vs_monte_carlo():
    """Closed-form channel divergence matches a 1e5-draw simulation."""
    t0 = time.time()
    d, n_obs, sigma, draws = 16, 50, 1.0, 100_000
    worst = 0.0
    for pair_seed in (0, 1, 2):
        rng = np.random.default_rng(pair_seed)
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        scale = np.linspace(1.5, 0.5, d)
        n1, n2 = q1 * scale, q2 * scale  # matched spectra, different bases
        closed = kl_divergence(n1, n2, n_obs, sigma)
        z = rng.standard_normal((draws, d))
        y = z @ n1.T + sigma * rng.standard_normal((draws, d))
        llr = (np.sum((y - z @ n2.T) ** 2, axis=1)
               - np.sum((y - z @ n1.T) ** 2, axis=1)) / (2 * sigma ** 2)
        mc = n_obs * float(np.mean(llr))
        worst = max(worst, abs(mc - closed) / closed)
    _report("c10", worst <= 0.05,
            "worst relative disagreement %.3f over 3 pairs, want <= 0.05"
            % worst, time.time() - t0, 30)


def test_c11_baseline_solver_contracts():
    """Ridge matches its normal-equations oracle, and the l1 and nuclear
    solvers converge to points that satisfy their stationarity conditions."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 20))
    y = rng.normal(size=(50, 12))
    mu = 0.7
    ridge = fit_baseline(BaselineSpec("ridge", mu=mu), x, y)
    oracle = np.linalg.solve(x.T @ x + mu * np.eye(20), x.T @ y).T
    ridge_ok = (np.linalg.norm(ridge.m_hat - oracle)
                / np.linalg.norm(oracle)) <= 1e-6

    rng = np.random.default_rng(14)
    x = rng.normal(size=(60, 8))
    y = rng.normal(size=(60, 3))
    mu = 5.0
    lasso = fit_baseline(BaselineSpec("lasso", mu=mu), x, y)
    beta = lasso.m_hat.T
    corr = x.T @ (y - x @ beta)
    active = np.abs(beta) > 0
    slack = 1e-5
    kkt_ok = (lasso.converged
              and np.all(np.abs(corr[~active]) <= mu + slack)
              and np.allclose(corr[active], mu * np.sign(beta[active]),
                              atol=slack))

    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 15))
    y = rng.normal(size=(40, 10))
    # G = x^T (y - x B) lies in mu times the nuclear norm's subdifferential
    # at B = U_r diag(s) V_r^T: U_r^T G V_r = mu I, and the rest of G has
    # spectral norm at most mu. mu = 20 keeps rank 4 of the 10 at mu = 1.
    nuc_ok, ranks = True, []
    for mu in (1.0, 20.0):
        nuc = fit_baseline(BaselineSpec("nuclear", mu=mu), x, y)
        b = nuc.m_hat.T
        g = x.T @ (y - x @ b)
        u, s, vt = np.linalg.svd(b, full_matrices=False)
        r = int(np.sum(s > 1e-9 * s[0]))
        u_r, v_r = u[:, :r], vt[:r].T
        on = u_r.T @ g @ v_r
        off = np.linalg.norm(g - u_r @ on @ v_r.T, 2)
        nuc_ok = (nuc_ok and nuc.converged
                  and np.max(np.abs(on - mu * np.eye(r)), initial=0.0) <= slack
                  and off <= mu + slack)
        ranks.append(r)

    ok = ridge_ok and kkt_ok and nuc_ok
    _report("c11", ok,
            "ridge oracle %s, l1 stationarity %s, nuclear stationarity %s "
            "(ranks %s)" % (ridge_ok, kkt_ok, nuc_ok, ranks), time.time() - t0, 30)


def test_c12_cli_rerun_byte_identical(tmp_path):
    """Every experiment subcommand rewrites its results file byte for byte."""
    t0 = time.time()

    def write_cfg(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    rng = np.random.default_rng(0)
    panel_lines = ["date,A0,A1,A2"]
    for i, row in enumerate(rng.normal(size=(20, 3))):
        panel_lines.append("2020-01-%02d," % (i + 1)
                           + ",".join("%.6f" % v for v in row))
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(panel_lines) + "\n")

    jobs = {
        "sweep": (write_cfg("sweep.json", {
            "kind": "sweep",
            "synth": {"d1": 20, "d2": 8, "n": 25, "rank_m": 3, "eta": 0.5,
                      "seed": 0},
            "grids": {"k1": [5, 10], "k2": [2, 3], "seeds": [0, 1]},
        }), "results.csv"),
        "compare": (write_cfg("compare.json", {
            "kind": "compare",
            "synth": {"d1": 30, "d2": 10, "n": 25, "rank_m": 3, "eta": 0.5,
                      "seed": 0},
            "grids": {"eta": [0.5], "seeds": [0]},
            "fit": {"delta": 1e-6},
            "baselines": [{"method": "ridge", "mu": [0.1, 1.0]}],
        }), "results.csv"),
        "rolling": (write_cfg("rolling.json", {
            "kind": "rolling",
            "panel": str(panel),
            "features": {"lookbacks": [1], "horizon": 1},
            "splits": {"train_len": 8, "valid_len": 3, "test_len": 3,
                       "gap_len": 0},
            "fit": {"delta": [1e-8], "sigma_eps": "auto"},
            "baselines": [{"method": "ridge", "mu": [0.5]}],
        }), "results.csv"),
        "packing": (write_cfg("packing.json", {
            "kind": "packing",
            "packing": {"d": 64, "rho": 0.0158, "sigma_eps": 1.0,
                        "n_samples": 100, "k_patterns": 16, "s_size": 8,
                        "seed": 1},
        }), "report.json"),
        "angles": (write_cfg("angles.json", {
            "kind": "angles",
            "synth": {"d1": 30, "omega": 2.0, "seed": 4},
            "n": 20,
            "top_k": 5,
        }), "results.csv"),
    }

    identical = []
    for sub, (cfg, artifact) in jobs.items():
        out1 = str(tmp_path / (sub + "_1"))
        out2 = str(tmp_path / (sub + "_2"))
        assert main([sub, "--config", cfg, "--out", out1]) == 0
        assert main([sub, "--config", cfg, "--out", out2]) == 0
        identical.append(filecmp.cmp(os.path.join(out1, artifact),
                                     os.path.join(out2, artifact),
                                     shallow=False))
    _report("c12", all(identical),
            "%d/%d experiment subcommands byte-identical on rerun"
            % (sum(identical), len(identical)), time.time() - t0)


# The paper's (k1, k2) experiment: d1 200, d2 100, n 150, rank(M) 50, and
# every k2 in 0..min(k1, d2) on this k1 grid
C13_SHAPE = dict(d1=200, d2=100, n=150, rank_m=50)
C13_PAIRS = [(k1, k2) for k1 in (10, 20, 30, 40, 50, 60, 80, 100, 120, 140, 150)
             for k2 in range(min(k1, 100) + 1)]


def _c13_argmins(draws):
    """[(k1, k2) of the lowest mean recon error, (k1, k2) of the lowest mean
    mse_out] over draws (x, y, x_te, y_te, m, sigma_noise), each draw's grid
    scored by one rank_path_scores call at the oracle noise scale."""
    means = np.mean([[(recon, mse) for recon, mse, _, _ in rank_path_scores(
        x, y, [FitConfig(sigma_eps=sigma, k1_override=k1, k2_override=k2)
               for k1, k2 in C13_PAIRS], x_te, y_te, m)]
        for x, y, x_te, y_te, m, sigma in draws], axis=0)
    return [C13_PAIRS[i] for i in np.argmin(means, axis=0)]


def _c13_omega2(eta, seed):
    """A sweep cell's draw: make_instance and the test draw `sweep` makes."""
    inst = make_instance(SynthConfig(eta=eta, seed=seed, **C13_SHAPE))
    x_te, y_te, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star, inst.config.n,
                                eta, derived_seed(seed, TEST_STREAM))
    return inst.x, inst.y, x_te, y_te, inst.m, inst.sigma_noise


def _c13_omega1(eta, seed):
    """The same generator steps on the spectrum lambda_i ~ 1 / i (omega 1),
    which SynthConfig refuses."""
    d1, d2, n, rank_m = C13_SHAPE.values()
    s_cov, s_coef, s_data, s_test = np.random.SeedSequence(seed).generate_state(4)
    v_star, _ = gen_covariance(d1, 2.0, int(s_cov))  # its basis does not depend on omega
    lam = 1.0 / np.arange(1, d1 + 1)
    lam /= lam.sum()
    m = gen_coefficients(d2, d1, rank_m, SynthConfig.upsilon, int(s_coef))
    x, y, sigma = gen_dataset(m, v_star, lam, n, eta, int(s_data))
    x_te, y_te, _ = gen_dataset(m, v_star, lam, n, eta, int(s_test))
    return x, y, x_te, y_te, m, sigma


def test_c13_optimal_ranks_shrink_as_noise_grows():
    """The paper's (k1, k2) figure over seeds 0..9, by recon error and by
    mse_out: at omega 2 the best k1 and k2 are non-increasing in eta and the
    best k1 exceeds rank(M) at eta 0.1; on an omega-1 spectrum at eta 0.25
    the best k1 is at least 2 rank(M) and the best k2 within 5 of rank(M)."""
    # Measured on seeds 0..9, (k1, k2) by recon error / mse_out: omega 2 at
    # eta 0.1, 0.25, 0.5, 1.0 gives (100, 44)/(100, 46), (40, 30)/(40, 31),
    # (20, 17)/(20, 20), (10, 10)/(10, 10); omega 1 at eta 0.25 gives (140,
    # 50)/(140, 50). Over ten disjoint 10-seed blocks (seeds 0..99) the omega-2
    # argmin k1 is 100, 40-50, 20 and 10 and k2 is 44-47, 26-31, 16-20 and
    # 8-10, and the omega-1 argmin is (140, 50) in every block, so every
    # block meets each target. The paper's "k1 much larger than rank(M), k2
    # = rank(M)" at eta 0.25 needs the slower decay: at omega 2, the
    # generator's default, it shows only at eta 0.1.
    t0 = time.time()
    etas = (0.1, 0.25, 0.5, 1.0)
    by_eta = [_c13_argmins([_c13_omega2(eta, s) for s in range(10)]) for eta in etas]
    flat = _c13_argmins([_c13_omega1(0.25, s) for s in range(10)])
    rank = C13_SHAPE["rank_m"]
    ok = True
    for score in (0, 1):
        path = [best[score] for best in by_eta]
        ok &= all(a[0] >= b[0] and a[1] >= b[1] for a, b in zip(path, path[1:]))
        ok &= path[0][0] > rank and flat[score][0] >= 2 * rank
        ok &= abs(flat[score][1] - rank) <= 5
    detail = ("argmin (k1, k2) by recon / mse_out: omega 2 at eta %s: %s; omega 1 at "
              "eta 0.25: %s" % (list(etas), by_eta, flat))
    _report("c13", ok, detail, time.time() - t0, 60)
