import dataclasses
import gc
import itertools
import json
import os
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import arrr.estimator as estimator
from arrr.estimator import (
    FitConfig,
    NoGapError,
    NonFiniteError,
    ZeroResidualError,
    estimate_noise_sigma,
    fit_adaptive_rrr,
    fit_path,
    load_model,
    predict,
    rank_path_scores,
    save_model,
    step1_pca_x,
    step2_pca_denoise,
)
from arrr.spectral import decompose, select_gap_rank, truncate_rank
from arrr.synth import SynthConfig, gen_covariance, gen_design, make_instance


def _whiten(x, delta, k1_override=None):
    """Stage 1 on the SVD of x, with the whitened scores sqrt(n) U[:, :k1]
    fit_path forms from it: (z_hat, pi_hat, lambdas)."""
    dec = decompose(x)
    pi_hat, lambdas = step1_pca_x(dec, delta, k1_override)
    return np.sqrt(x.shape[0]) * dec.u[:, :pi_hat.shape[0]], pi_hat, lambdas


def _denoise(z_hat, y, theta, sigma_eps, k2_override=None):
    """Stage 2 on the SVD of the cross-moment matrix (y.T @ z_hat) / n."""
    n = z_hat.shape[0]
    return step2_pca_denoise(decompose(y.T @ z_hat / n), n, theta, sigma_eps, k2_override)


class TestStep1:
    def test_hand_worked_diagonal_example(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        z_hat, pi_hat, lambdas = _whiten(x, delta=0.5)
        np.testing.assert_allclose(lambdas, [4 / 3, 1 / 3], rtol=1e-12)
        assert pi_hat.shape == (1, 2)
        np.testing.assert_allclose(pi_hat, [[np.sqrt(3) / 2, 0.0]], atol=1e-12)
        np.testing.assert_allclose(z_hat, [[np.sqrt(3)], [0.0], [0.0]], atol=1e-12)

    def test_zhat_equals_x_projected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 12))
        dec = decompose(x)
        pi_hat, _ = step1_pca_x(dec, delta=1e-6)
        k1 = pi_hat.shape[0]
        np.testing.assert_allclose(x @ pi_hat.T, np.sqrt(30) * dec.u[:, :k1], atol=1e-8)

    def test_whitening_exact_at_full_rank_override(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 8))
        z_hat, _, _ = _whiten(x, delta=1.0, k1_override=8)
        gram = z_hat.T @ z_hat / 20
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_whitening_many_shapes(self):
        for seed, (n, d1) in enumerate([(10, 40), (40, 10), (25, 25), (150, 200)]):
            x = np.random.default_rng(seed).normal(size=(n, d1))
            z_hat, _, _ = _whiten(x, delta=1e-9)
            k1 = z_hat.shape[1]
            gram = z_hat.T @ z_hat / n
            assert np.max(np.abs(gram - np.eye(k1))) <= 1e-10

    def test_gap_rule_cross_checked(self):
        v, lam = gen_covariance(200, 2.0, seed=2)
        x = gen_design(v, lam, n=150, seed=3)
        z_hat, _, lambdas = _whiten(x, delta=1e-3)
        k1 = z_hat.shape[1]
        assert k1 >= 1
        assert select_gap_rank(lambdas, 1e-3) == k1
        nxt = lambdas[k1] if k1 < lambdas.size else 0.0
        assert lambdas[k1 - 1] - nxt >= 1e-3

    def test_no_gap_error(self):
        # all eigenvalues equal and tiny: no consecutive gap reaches delta
        x = 1e-6 * np.eye(4)
        with pytest.raises(NoGapError):
            _whiten(x, delta=0.5)

    def test_override_beyond_rank(self):
        # second column identically zero: second eigenvalue is exactly 0
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError):
            _whiten(x, delta=0.1, k1_override=2)

    def test_override_beyond_numerical_rank(self):
        # the fourth column is twice the first: its singular value is
        # round-off, not exactly 0, and a fit through it blows up to ~1e13
        a = np.random.default_rng(5).normal(size=(30, 3))
        x = np.hstack([a, 2 * a[:, :1]])
        y = np.random.default_rng(6).normal(size=(30, 2))
        with pytest.raises(ValueError, match="k1=4 exceeds the numerical rank of x"):
            fit_adaptive_rrr(x, y, FitConfig(sigma_eps=0.1, k1_override=4))
        assert fit_adaptive_rrr(x, y, FitConfig(sigma_eps=0.1, k1_override=3)).k1 == 3

    @pytest.mark.parametrize("scale", [1.0, 1e12, 1e14, 1e16])
    def test_gap_rule_stays_within_numerical_rank(self, scale):
        # at 1e16 the round-off fourth eigenvalue is about 11, a gap above delta
        a = np.random.default_rng(5).normal(size=(30, 3))
        pi_hat, _ = step1_pca_x(decompose(np.hstack([a, 2 * a[:, :1]]) * scale), delta=1e-3)
        assert pi_hat.shape[0] == 3

    @pytest.mark.parametrize("k1_override", [None, 1, 3])
    def test_all_zero_x_is_named_as_fit_path_names_it(self, k1_override):
        with pytest.raises(ValueError, match="^x is identically zero$"):
            step1_pca_x(decompose(np.zeros((6, 3))), delta=1e-3, k1_override=k1_override)

    def test_override_out_of_bounds(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        with pytest.raises(ValueError):
            _whiten(x, delta=0.1, k1_override=4)


class TestStep2:
    def _whitened(self, n, k1, seed):
        x = np.random.default_rng(seed).normal(size=(n, k1))
        z, _, _ = _whiten(x, delta=1e-12, k1_override=k1)
        return z

    def test_exact_cross_moment_recovery(self):
        # y = z b^T with whitened z makes (1/n) y^T z = b exactly
        z = self._whitened(40, 3, seed=0)
        b = np.array([[3.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
        y = z @ b.T
        n_hat, k2, sigmas, thr = _denoise(z, y, theta=1.0, sigma_eps=1.0)
        # threshold = sqrt(2/40) ~ 0.224: keeps sigma=3, drops sigma=0.1
        assert k2 == 1
        np.testing.assert_allclose(sigmas[:2], [3.0, 0.1], atol=1e-8)
        b_rank1 = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(n_hat, b_rank1, atol=1e-8)

    def test_zero_response(self):
        z = self._whitened(20, 4, seed=1)
        n_hat, k2, _, _ = _denoise(z, np.zeros((20, 6)), 2.0, 1.0)
        assert k2 == 0
        np.testing.assert_array_equal(n_hat, np.zeros((6, 4)))

    def test_threshold_formula(self):
        z = self._whitened(25, 2, seed=2)
        y = np.random.default_rng(3).normal(size=(25, 7))
        _, _, _, thr = _denoise(z, y, theta=1.7, sigma_eps=0.4)
        np.testing.assert_allclose(thr, 1.7 * 0.4 * np.sqrt(7 / 25), rtol=1e-12)

    def test_retained_values_reach_threshold(self):
        z = self._whitened(30, 5, seed=4)
        y = np.random.default_rng(5).normal(size=(30, 8))
        n_hat, k2, sigmas, thr = _denoise(z, y, theta=1.0, sigma_eps=0.2)
        kept = np.linalg.svd(n_hat, compute_uv=False)[:k2]
        assert np.all(kept >= thr - 1e-10)
        if k2 < sigmas.size:
            assert sigmas[k2] < thr

    def test_scale_equivariance(self):
        z = self._whitened(30, 4, seed=6)
        y = np.random.default_rng(7).normal(size=(30, 5))
        n1, k2_1, s1, _ = _denoise(z, y, theta=2.0, sigma_eps=0.3)
        n2, k2_2, s2, _ = _denoise(z, 5.0 * y, theta=2.0, sigma_eps=1.5)
        assert k2_1 == k2_2
        np.testing.assert_allclose(s2, 5.0 * s1, rtol=1e-10)
        np.testing.assert_allclose(n2, 5.0 * n1, atol=1e-10)

    def test_k2_override(self):
        z = self._whitened(20, 3, seed=8)
        y = np.random.default_rng(9).normal(size=(20, 4))
        n_hat, k2, _, _ = _denoise(z, y, 2.0, 1e9, k2_override=2)
        assert k2 == 2
        s = np.linalg.svd(n_hat, compute_uv=False)
        assert np.count_nonzero(s > 1e-10) <= 2
        with pytest.raises(ValueError):
            _denoise(z, y, 2.0, 1.0, k2_override=5)


class TestPureNoiseRejection:
    def test_k2_zero_under_pure_noise(self):
        # top singular value of (1/n) E^T Z concentrates near
        # (sqrt(k1) + sqrt(d2)) / sqrt(n), far below theta=4's threshold
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(150, 30))
            y = rng.normal(size=(150, 100))
            z, _, _ = _whiten(x, delta=1e-9, k1_override=30)
            _, k2, _, _ = _denoise(z, y, theta=4.0, sigma_eps=1.0)
            hits += int(k2 == 0)
        assert hits >= 29


class TestEstimateNoiseSigma:
    def test_recovers_known_sigma(self):
        for seed in range(3):
            inst = make_instance(
                SynthConfig(d1=10, d2=8, n=500, rank_m=3, eta=1.0, seed=seed))
            est = estimate_noise_sigma(inst.x, inst.y)
            assert abs(est - inst.sigma_noise) / inst.sigma_noise <= 0.2

    def test_linear_in_noise_scale(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(400, 6))
        e = rng.standard_normal((400, 5))
        s1 = estimate_noise_sigma(x, 0.5 * e)
        s2 = estimate_noise_sigma(x, 1.0 * e)
        assert abs(s2 / s1 - 2.0) <= 0.2

    def test_constant_response_is_rejected(self):
        x = np.random.default_rng(4).normal(size=(10, 3))
        with pytest.raises(ValueError, match="response y is constant.*sigma_eps"):
            estimate_noise_sigma(x, np.ones((10, 2)))

    def test_zero_residual_is_a_numerical_failure(self):
        # residual entries near 1e-300 square to 0, so their std is exactly 0
        rng = np.random.default_rng(4)
        with pytest.raises(ZeroResidualError):
            estimate_noise_sigma(rng.normal(size=(10, 3)), 1e-300 * rng.normal(size=(10, 2)))

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            estimate_noise_sigma(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which, bad", [("x", np.inf), ("y", np.nan)])
    def test_non_finite_input_raises(self, which, bad):
        x, y = _path_data(5, 20, 6, 3)
        (x if which == "x" else y)[4, 2] = bad
        with pytest.raises(NonFiniteError, match="^x and y must hold only finite values$"):
            estimate_noise_sigma(x, y)

    @staticmethod
    def _lstsq_pilot(x, y):
        """The pilot as it was: a least-squares solve on the scores x @ V_k."""
        k = max(1, min(x.shape) // 2)
        scores = x @ decompose(x).v[:, :k]
        coef, *_ = np.linalg.lstsq(scores, y, rcond=None)
        return float(np.std(y - scores @ coef))

    # b repeated: x has rank 2 or 3, below k, so the cutoff drops directions
    @pytest.mark.parametrize("n, copies, width", [(40, 4, 2), (12, 3, 3), (9, 6, 2)])
    def test_rank_deficient_design_matches_the_lstsq_pilot(self, n, copies, width):
        rng = np.random.default_rng(n)
        b = rng.normal(size=(n, width))
        x = np.hstack([b] * copies)
        y = b @ rng.normal(size=(width, 3)) + 0.3 * rng.normal(size=(n, 3))
        assert np.sum(decompose(x).s > 1e-12) < max(1, min(x.shape) // 2)
        want = self._lstsq_pilot(x, y)
        assert abs(estimate_noise_sigma(x, y) - want) <= 1e-12 * want

    def test_fit_path_pilot_takes_no_lstsq(self, monkeypatch):
        x, y = _path_data(3, 20, 8, 5)
        want = self._lstsq_pilot(x, y)

        def refuse(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        (model,) = fit_path(x, y, [FitConfig(sigma_eps="auto")])
        assert abs(model.sigma_eps_used - want) <= 1e-12 * want


class TestFitAdaptiveRRR:
    def test_noiseless_recovery_small(self):
        inst = make_instance(SynthConfig(d1=10, d2=6, n=40, rank_m=2, eta=0.0, seed=5))
        cfg = FitConfig(sigma_eps=1.0, k1_override=10, k2_override=2)
        model = fit_adaptive_rrr(inst.x, inst.y, cfg)
        rel = np.linalg.norm(model.m_hat - inst.m) / np.linalg.norm(inst.m)
        assert rel <= 1e-8

    def test_composition_identity(self):
        inst = make_instance(SynthConfig(d1=15, d2=8, n=30, rank_m=3, eta=0.5, seed=6))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
        np.testing.assert_allclose(model.m_hat, model.n_hat_trunc @ model.pi_hat,
                                   atol=1e-10)

    def test_rank_bounded_by_k2(self):
        inst = make_instance(SynthConfig(d1=20, d2=10, n=40, rank_m=4, eta=0.3, seed=7))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
        s = np.linalg.svd(model.m_hat, compute_uv=False)
        assert np.count_nonzero(s > 1e-10) <= model.k2

    def test_auto_sigma_path(self):
        inst = make_instance(SynthConfig(d1=10, d2=20, n=200, rank_m=2, eta=0.5, seed=8))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps="auto"))
        assert model.sigma_eps_used > 0
        assert abs(model.sigma_eps_used - inst.sigma_noise) / inst.sigma_noise <= 0.5

    def test_deterministic(self):
        inst = make_instance(SynthConfig(d1=12, d2=5, n=25, rank_m=2, eta=0.2, seed=9))
        cfg = FitConfig(sigma_eps=inst.sigma_noise)
        m1 = fit_adaptive_rrr(inst.x, inst.y, cfg)
        m2 = fit_adaptive_rrr(inst.x, inst.y, cfg)
        np.testing.assert_array_equal(m1.m_hat, m2.m_hat)
        assert (m1.k1, m1.k2) == (m2.k1, m2.k2)

    def test_row_mismatch_and_config_validation(self):
        with pytest.raises(ValueError):
            fit_adaptive_rrr(np.zeros((3, 2)), np.zeros((4, 2)), FitConfig(sigma_eps=1.0))
        with pytest.raises(ValueError):
            FitConfig(delta=-1.0)
        with pytest.raises(ValueError):
            FitConfig(sigma_eps="guess")
        with pytest.raises(ValueError):
            FitConfig(theta=0.0)


class TestPredict:
    def _model(self):
        inst = make_instance(SynthConfig(d1=10, d2=6, n=40, rank_m=2, eta=0.0, seed=5))
        cfg = FitConfig(sigma_eps=1.0, k1_override=10, k2_override=2)
        return inst, fit_adaptive_rrr(inst.x, inst.y, cfg)

    def test_identity_probe(self):
        _, model = self._model()
        np.testing.assert_allclose(predict(model, np.eye(10)), model.m_hat.T)

    def test_noiseless_consistency_on_training_row(self):
        inst, model = self._model()
        row = inst.x[:1]
        np.testing.assert_allclose(predict(model, row), inst.y[:1], atol=1e-5)

    def test_zero_model_zero_predictions(self):
        inst = make_instance(SynthConfig(d1=8, d2=4, n=20, rank_m=2, eta=0.0, seed=6))
        model = fit_adaptive_rrr(inst.x, inst.y,
                                 FitConfig(sigma_eps=1.0, k1_override=8, k2_override=0))
        np.testing.assert_array_equal(predict(model, inst.x), np.zeros((20, 4)))

    def test_dimension_mismatch(self):
        _, model = self._model()
        with pytest.raises(ValueError):
            predict(model, np.zeros((3, 7)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        _, model = self._model()
        x = np.zeros((3, 10))
        x[1, 4] = bad
        with pytest.raises(NonFiniteError):
            predict(model, x)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        inst = make_instance(SynthConfig(d1=12, d2=7, n=30, rank_m=3, eta=0.4, seed=10))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
        save_model(model, str(tmp_path / "m"))
        assert sorted(os.listdir(tmp_path / "m")) == ["meta.json", "n_hat.csv", "pi_hat.csv"]
        loaded = load_model(str(tmp_path / "m"))
        np.testing.assert_array_equal(loaded.m_hat, model.m_hat)
        np.testing.assert_array_equal(loaded.pi_hat, model.pi_hat)
        np.testing.assert_array_equal(loaded.n_hat_trunc, model.n_hat_trunc)
        assert (loaded.k1, loaded.k2, loaded.n) == (model.k1, model.k2, model.n)
        np.testing.assert_array_equal(predict(loaded, inst.x), predict(model, inst.x))

    def test_meta_schema(self, tmp_path):
        inst = make_instance(SynthConfig(d1=6, d2=4, n=15, rank_m=2, eta=0.1, seed=11))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
        save_model(model, str(tmp_path / "m"))
        meta = json.loads((tmp_path / "m" / "meta.json").read_text())
        expected = {"k1", "k2", "delta", "theta", "sigma_eps", "d1", "d2", "n",
                    "library_version"}
        assert set(meta) == expected
        assert meta["d1"] == 6 and meta["d2"] == 4 and meta["n"] == 15

    def test_m_hat_csv_is_ignored(self, tmp_path):
        # older versions wrote m_hat.csv; a model directory with one, even a
        # garbage one, loads from its two factors
        inst = make_instance(SynthConfig(d1=9, d2=5, n=30, rank_m=2, eta=0.4, seed=12))
        model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
        save_model(model, str(tmp_path / "m"))
        (tmp_path / "m" / "m_hat.csv").write_text("1,2\nnot a number\n")
        loaded = load_model(str(tmp_path / "m"))
        assert predict(loaded, inst.x).tobytes() == predict(model, inst.x).tobytes()


class TestRankAdaptivity:
    def test_mean_k2_non_increasing_in_noise_small(self):
        # shrunken version of the full-scale adaptivity criterion
        etas = (0.25, 1.0, 3.0)
        means = []
        for eta in etas:
            k2s = []
            for seed in range(8):
                cfg = SynthConfig(d1=60, d2=40, n=50, rank_m=5, eta=eta, seed=seed)
                inst = make_instance(cfg)
                model = fit_adaptive_rrr(
                    inst.x, inst.y,
                    FitConfig(delta=1e-3,
                              sigma_eps=max(inst.sigma_noise, 1e-12),
                              k1_override=40))
                k2s.append(model.k2)
            means.append(np.mean(k2s))
        assert means[0] >= means[1] >= means[2]


class TestInputChecks:
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_fit_rejects_non_finite(self, which):
        inst = make_instance(SynthConfig(d1=8, d2=4, n=20, rank_m=2, eta=0.5, seed=1))
        x, y = inst.x.copy(), inst.y.copy()
        (x if which == "x" else y)[2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            fit_adaptive_rrr(x, y, FitConfig(sigma_eps=1.0))

    @pytest.mark.filterwarnings("error")
    def test_one_row_is_rejected_before_the_pilot(self):
        # on one row the pilot's projection leaves a zero residual and warns
        with pytest.raises(ValueError, match="at least 2 rows"):
            fit_adaptive_rrr(np.ones((1, 4)), np.ones((1, 2)) * [1.0, 2.0], FitConfig())

    @pytest.mark.parametrize("change", [
        {"delta": float("nan")}, {"theta": float("nan")}, {"theta": 0.0},
        {"sigma_eps": float("nan")}, {"sigma_eps": "oracle"},
    ])
    def test_config_rejects_nan_and_bad_values(self, change):
        with pytest.raises(ValueError):
            FitConfig(**change)

    def test_stage2_truncation_equals_truncate_rank(self):
        inst = make_instance(SynthConfig(d1=30, d2=12, n=25, rank_m=4, eta=0.5, seed=2))
        z, _, _ = _whiten(inst.x, delta=1e-3, k1_override=20)
        n_hat = inst.y.T @ z / z.shape[0]
        for k2 in (0, 3, 12):
            trunc, _, _, _ = _denoise(z, inst.y, 2.0, 1.0, k2_override=k2)
            np.testing.assert_array_equal(trunc, truncate_rank(n_hat, k2))


def _path_data(seed, n, d1, d2):
    """A rank-2 signal plus noise on a design with a spread-out spectrum."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d1)) * np.geomspace(3.0, 0.1, d1)
    m = rng.normal(size=(d2, 2)) @ rng.normal(size=(2, d1))
    return x, x @ m.T + 0.5 * rng.normal(size=(n, d2))


_SEEDS = st.integers(0, 2 ** 16)
_SHAPES = st.tuples(st.integers(4, 20), st.integers(2, 12), st.integers(1, 6))
_SIGMAS = st.sampled_from(["auto", 0.1, 1.0])
# k1 overrides up to 2 and k2 overrides up to 1 are in range for every shape
_CONFIGS = st.builds(
    FitConfig,
    delta=st.sampled_from([1e-8, 1e-3, 0.05, 0.5, 5.0]),
    theta=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    sigma_eps=_SIGMAS,
    k1_override=st.none() | st.integers(1, 2),
    k2_override=st.none() | st.integers(0, 1),
)


def _from_definitions(x, y, config):
    """The estimator written from its definitions, sharing no SVD path with
    fit_path: (k1, k2, lambdas, threshold, m_hat). Stage 1 takes the
    eigendecomposition of x.T x / n, k1 by the largest gap >= delta among the
    eigenvalues within the rank of x (the one past them taken as 0) or the
    override, pi_hat = Lambda_k1^(-1/2) V_k1^T and z_hat = x pi_hat^T. Stage 2
    keeps the singular values of y.T z_hat / n that reach theta sigma_eps
    sqrt(max(d2, k1) / n), or the top k2 override."""
    n, d2 = y.shape
    lam, v = np.linalg.eigh(x.T @ x / n)
    lam, v = lam[::-1], v[:, ::-1]
    rank = np.linalg.matrix_rank(x)
    k1 = config.k1_override
    if k1 is None:
        gaps = lam[:rank] - np.append(lam[1:rank], 0.0)
        k1 = 1 + max(i for i in range(rank) if gaps[i] >= config.delta)
    pi_hat = v[:, :k1].T / np.sqrt(lam[:k1])[:, None]
    z_hat = x @ pi_hat.T
    u, s, vt = np.linalg.svd(y.T @ z_hat / n, full_matrices=False)
    threshold = config.theta * config.sigma_eps * np.sqrt(max(d2, k1) / n)
    k2 = int(np.sum(s >= threshold)) if config.k2_override is None else config.k2_override
    return k1, k2, lam[:rank], threshold, (u[:, :k2] * s[:k2]) @ vt[:k2] @ pi_hat


@st.composite
def _oracle_cases(draw):
    """(x, y, config) with n < d1, x of rank r < n and d2 < r. A k1
    override lies in (d2, r]; the gap rule's k1 is mostly above d2 too."""
    n = draw(st.integers(5, 14))
    d1 = draw(st.integers(n + 1, n + 10))
    r = draw(st.integers(2, n - 2))
    d2 = draw(st.integers(1, r - 1))
    rng = np.random.default_rng(draw(_SEEDS))
    basis = np.linalg.qr(rng.normal(size=(d1, r)))[0].T  # r orthonormal rows
    x = rng.normal(size=(n, r)) * np.geomspace(3.0, 0.5, r) @ basis
    y = x @ rng.normal(size=(d2, d1)).T + draw(st.sampled_from([0.05, 0.5])) * rng.normal(
        size=(n, d2))
    k1 = draw(st.none() | st.integers(d2 + 1, r))
    # the gap rule's k1 is at least 1
    k2 = draw(st.none() | st.integers(0, 1 if k1 is None else d2))
    config = FitConfig(delta=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
                       theta=draw(st.sampled_from([0.5, 1.0, 2.0])),
                       sigma_eps=draw(st.sampled_from([0.05, 0.5, 2.0])),
                       k1_override=k1, k2_override=k2)
    return x, y, config


class TestFitPath:
    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, shape=_SHAPES, configs=st.lists(_CONFIGS, min_size=1, max_size=6))
    def test_path_equals_separate_fits_bitwise(self, seed, shape, configs):
        x, y = _path_data(seed, *shape)
        path = list(fit_path(x, y, configs))
        shared = list(fit_path(x, y, configs, decompose(x)))
        assert len(path) == len(configs) == len(shared)
        for config, got, got_shared in zip(configs, path, shared):
            try:
                want = fit_adaptive_rrr(x, y, config)
            except NoGapError as e:
                assert isinstance(got, NoGapError) and str(got) == str(e)
                assert isinstance(got_shared, NoGapError) and str(got_shared) == str(e)
                continue
            assert got.config is config
            np.testing.assert_array_equal(got.m_hat, want.m_hat)
            np.testing.assert_array_equal(got_shared.m_hat, want.m_hat)
            np.testing.assert_array_equal(got.n_hat_sigmas, want.n_hat_sigmas)
            assert (got.k1, got.k2, got.threshold_used, got.sigma_eps_used) == (
                want.k1, want.k2, want.threshold_used, want.sigma_eps_used)

    @seed(1)
    @settings(max_examples=100, deadline=None)
    @given(case=_oracle_cases())
    def test_path_matches_the_estimator_from_its_definitions(self, case):
        # within 1e-10 of the largest eigenvalue and of the size of m_hat,
        # for draws where no rank decision is within 1e-6 (relative) of
        # flipping
        x, y, config = case
        k1, k2, lam, threshold, m_hat = _from_definitions(x, y, config)
        gaps = lam - np.append(lam[1:], 0.0)
        assume(np.min(np.abs(gaps - config.delta)) > 1e-6 * lam[0])
        assume(gaps[k1 - 1] > 1e-6 * lam[0])
        (model,) = fit_path(x, y, [config])
        s = np.append(model.n_hat_sigmas, 0.0)
        scale = max(s[0], threshold)
        assume(np.min(np.abs(s[:-1] - threshold)) > 1e-6 * scale)
        assume(s[k2 - 1] - s[k2] > 1e-6 * scale if k2 else True)
        assert (model.k1, model.k2) == (k1, k2)
        assert model.threshold_used == pytest.approx(threshold, rel=1e-12)
        np.testing.assert_allclose(model.lambdas[:lam.size], lam, rtol=0, atol=1e-10 * lam[0])
        assert _rel(model.m_hat, m_hat) <= 1e-10

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, shape=_SHAPES, config=_CONFIGS)
    def test_m_hat_is_the_composition(self, seed, shape, config):
        x, y = _path_data(seed, *shape)
        (model,) = fit_path(x, y, [config])
        assume(not isinstance(model, NoGapError))
        assert "m_hat" not in {f.name for f in dataclasses.fields(model)}
        assert "m_hat" not in vars(model)  # formed on first read only
        assert model.m_hat.tobytes() == (model.n_hat_trunc @ model.pi_hat).tobytes()
        assert vars(model)["m_hat"] is model.m_hat

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, shape=_SHAPES, sigma=_SIGMAS,
           delta=st.sampled_from([1e-8, 1e-3, 0.05]),
           thetas=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=6))
    def test_k2_non_increasing_in_theta(self, seed, shape, sigma, delta, thetas):
        x, y = _path_data(seed, *shape)
        configs = [FitConfig(delta=delta, theta=t, sigma_eps=sigma) for t in sorted(thetas)]
        models = list(fit_path(x, y, configs))
        if isinstance(models[0], NoGapError):
            # stage 1 does not depend on theta
            assert all(isinstance(m, NoGapError) for m in models)
            return
        assert len({m.k1 for m in models}) == 1
        k2s = [m.k2 for m in models]
        assert all(a >= b for a, b in zip(k2s, k2s[1:])), k2s

    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, shape=_SHAPES, sigma=_SIGMAS,
           delta=st.sampled_from([1e-3, 0.05, 0.5]),
           theta=st.sampled_from([0.5, 1.0, 2.0]), perm_seed=_SEEDS)
    def test_fit_equivariant_to_row_permutation(self, seed, shape, sigma, delta,
                                                theta, perm_seed):
        # Permuting the rows of (x, y) permutes z_hat and leaves x.T x and
        # n_hat unchanged, so m_hat agrees up to rounding and the fitted
        # values permute with the rows. Stated tolerance: 1e-9 relative to
        # the size of m_hat, for draws where no rank decision is within 1e-6
        # (relative) of flipping.
        x, y = _path_data(seed, *shape)
        config = FitConfig(delta=delta, theta=theta, sigma_eps=sigma)
        perm = np.random.default_rng(perm_seed).permutation(x.shape[0])
        lam = np.linalg.svd(x, compute_uv=False) ** 2 / x.shape[0]
        gaps = lam - np.append(lam[1:], 0.0)
        assume(np.min(np.abs(gaps - delta)) > 1e-6 * lam[0])
        try:
            a = fit_adaptive_rrr(x, y, config)
        except NoGapError:
            with pytest.raises(NoGapError):
                fit_adaptive_rrr(x[perm], y[perm], config)
            return
        s = np.append(a.n_hat_sigmas, 0.0)
        scale = max(s[0], a.threshold_used)
        assume(np.min(np.abs(s[:-1] - a.threshold_used)) > 1e-6 * scale)
        assume(s[a.k2 - 1] - s[a.k2] > 1e-6 * scale if a.k2 else True)
        b = fit_adaptive_rrr(x[perm], y[perm], config)
        assert (b.k1, b.k2) == (a.k1, a.k2)
        tol = 1e-9 * max(1.0, np.linalg.norm(a.m_hat))
        np.testing.assert_allclose(b.m_hat, a.m_hat, rtol=0, atol=tol)
        np.testing.assert_allclose(predict(b, x[perm]), predict(a, x)[perm],
                                   rtol=0, atol=tol * np.linalg.norm(x))

    def test_one_svd_of_x_and_of_n_hat_per_k1(self, monkeypatch):
        calls = {"decompose": [], "pilot": 0}
        real_decompose, real_pilot = estimator.decompose, estimator.estimate_noise_sigma

        def counting_decompose(a):
            calls["decompose"].append(np.shape(a))
            return real_decompose(a)

        def counting_pilot(*args, **kwargs):
            calls["pilot"] += 1
            return real_pilot(*args, **kwargs)

        monkeypatch.setattr(estimator, "decompose", counting_decompose)
        monkeypatch.setattr(estimator, "estimate_noise_sigma", counting_pilot)
        x, y = _path_data(0, 20, 8, 5)
        configs = [FitConfig(theta=t, sigma_eps="auto", k1_override=k1, k2_override=k2)
                   for k1 in (3, 6, 3) for t in (1.0, 2.0) for k2 in (None, 1)]
        models = list(fit_path(x, y, configs))
        assert [m.k1 for m in models] == [c.k1_override for c in configs]
        assert calls["pilot"] == 1
        assert calls["decompose"] == [(20, 8), (5, 3), (5, 6)]

    def test_stage1_runs_once_per_delta_and_k1_override(self, monkeypatch):
        calls = []
        real = estimator.step1_pca_x

        def counting(dec, delta, k1_override=None):
            calls.append((delta, k1_override))
            return real(dec, delta, k1_override)

        monkeypatch.setattr(estimator, "step1_pca_x", counting)
        x, y = _path_data(1, 20, 8, 5)
        pairs = [(1e6, None), (1e-8, None), (1e-8, 3), (1e6, 3), (1e-8, 6)]
        configs = [FitConfig(delta=delta, theta=t, sigma_eps=1.0, k1_override=k1)
                   for t in (1.0, 2.0) for delta, k1 in pairs]
        models = list(fit_path(x, y, configs))
        assert calls == pairs
        # a delta with no gap yields its one error for each of its thetas
        assert models[0] is models[len(pairs)] and isinstance(models[0], NoGapError)
        for config, model in zip(configs, models):
            if isinstance(model, NoGapError):
                assert (config.delta, config.k1_override) == (1e6, None)
            else:
                assert model.m_hat.tobytes() == fit_adaptive_rrr(x, y, config).m_hat.tobytes()

    def test_a_shared_nogap_error_leaves_no_reference_cycle(self):
        # a cycle through the path's frame would keep every stage-1 result
        # alive until the collector runs: 0.8 MB more peak RSS on a rolling
        # panel of 150 features
        x, y = _path_data(1, 20, 8, 5)
        configs = [FitConfig(delta=delta, theta=t, sigma_eps=1.0)
                   for delta in (1e6, 1e-8) for t in (1.0, 2.0)]
        gc.collect()
        gc.disable()
        try:
            models = list(fit_path(x, y, configs))
            del models
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_configs_may_be_a_one_pass_iterable(self):
        # the path reads its configs ahead of fitting them, and still fits each
        x, y = _path_data(1, 20, 8, 5)
        configs = [FitConfig(sigma_eps=1.0, k1_override=k1) for k1 in (3, 5, 3)]
        got, want = list(fit_path(x, y, iter(configs))), list(fit_path(x, y, configs))
        assert len(got) == 3
        assert [m.m_hat.tobytes() for m in got] == [m.m_hat.tobytes() for m in want]

    def test_nogap_candidate_is_reported_not_raised(self):
        x, y = _path_data(1, 20, 8, 5)
        configs = [FitConfig(delta=1e6, sigma_eps=1.0), FitConfig(delta=1e-8, sigma_eps=1.0)]
        bad, good = fit_path(x, y, configs)
        assert isinstance(bad, NoGapError)
        assert good.k1 >= 1
        with pytest.raises(NoGapError):
            fit_adaptive_rrr(x, y, configs[0])

    def test_all_zero_x_is_reported_before_the_pilot(self):
        # y is constant too, which the pilot would report first
        with pytest.raises(ValueError, match="x is identically zero"):
            list(fit_path(np.zeros((6, 3)), np.zeros((6, 2)), [FitConfig(sigma_eps="auto")]))

    def test_invalid_config_raises_before_any_fit(self):
        x, y = _path_data(2, 20, 8, 5)
        with pytest.raises(ValueError, match="theta"):
            list(fit_path(x, y, [FitConfig(sigma_eps=1.0), FitConfig(theta=0.0)]))
        with pytest.raises(ValueError, match="k2 override"):
            list(fit_path(x, y, [FitConfig(sigma_eps=1.0, k1_override=3, k2_override=4)]))


def _rel(got, want):
    """Frobenius distance of got from want relative to want's norm, 0 for two
    zero matrices."""
    return np.linalg.norm(got - want) / (np.linalg.norm(want) or 1.0)


@st.composite
def _rank_grids(draw):
    """A shape and the (k1, k2) pairs of a grid on it: for each drawn k1, in
    the drawn order and with repeats, a list of k2 values within range."""
    n, d1, d2 = draw(_SHAPES)
    k1s = draw(st.lists(st.integers(1, min(n, d1)), min_size=1, max_size=4))
    return (n, d1, d2), [(k1, k2) for k1 in k1s for k2 in draw(
        st.lists(st.integers(0, min(d2, k1)), min_size=1, max_size=4))]


def _self_scores(x, y, configs, x_new):
    """(fit_path's model, its predictions on x_new, and the (recon_error, mse,
    r2, corr) rank_path_scores gives that config when the model is its own
    truth: m_true = m_hat and y_new = x_new @ m_hat.T) for each config, each
    scored within the whole grid."""
    for i, model in enumerate(fit_path(x, y, configs)):
        y_fit = x_new @ model.m_hat.T
        scores = rank_path_scores(x, y, configs, x_new, y_fit, model.m_hat)
        yield model, y_fit, next(itertools.islice(scores, i, None))


def _out_of_place_direction_sums(u, s, w, p, m_true, y, yc):
    """estimator._direction_sums with its temporaries out of place: the
    reference its in-place form must match bit for bit."""
    r = u.shape[1]
    um, yu = u.T @ m_true, y @ u
    m_res, y_res = m_true - u @ um, y - yu @ u.T
    dm, dy = um - s[:, None] * w, yu - p
    pre = np.zeros((5, r + 1))
    np.cumsum([(dm * dm).sum(1), (dy * dy).sum(0), p.sum(0) * u.sum(0), (p * p).sum(0),
               (p * (yc @ u)).sum(0)], axis=1, out=pre[:, 1:])
    suf = np.zeros((2, r + 1))
    suf[:, :r] = np.cumsum([(um * um).sum(1)[::-1], (yu * yu).sum(0)[::-1]], axis=1)[:, ::-1]
    return ((m_res * m_res).sum(), (y_res * y_res).sum()), pre, suf


class TestRankPath:
    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, grid=_rank_grids(), sigma=_SIGMAS)
    # n < d1 with k1 > d2, on a repeated and unsorted grid with k2 = 0
    @example(seed=3, sigma="auto", grid=((10, 16, 3), [
        (k1, k2) for k1 in (6, 2, 6) for k2 in (3, 0, 1, 2) if k2 <= k1]))
    def test_rank_path_equals_fit_path(self, seed, grid, sigma):
        # Scored against fit_path's own model, recon_error is ||m_path -
        # m_fit||_F and mse * N * var(y_fit) is ||y_path - y_fit||_F^2, N the
        # entries of y_fit; each within 1e-12 of fit_path's norm: the same
        # rank-one terms, summed in another order.
        (n, d1, d2), pairs = grid
        x, y = _path_data(seed, n, d1, d2)
        x_new, _ = _path_data(seed + 1, n + 3, d1, d2)
        configs = [FitConfig(sigma_eps=sigma, k1_override=k1, k2_override=k2)
                   for k1, k2 in pairs]
        got = list(_self_scores(x, y, configs, x_new))
        assert len(got) == len(configs)
        for config, (model, y_fit, (recon, mse, _, _)) in zip(configs, got):
            assert (model.k1, model.k2) == (config.k1_override, config.k2_override)
            assert recon <= 1e-12 * (np.linalg.norm(model.m_hat) or 1.0)
            if np.ptp(y_fit) > 0:
                assert (np.sqrt(mse * y_fit.size * np.var(y_fit))
                        <= 1e-12 * np.linalg.norm(y_fit))
            else:  # k2 = 0: a zero model, whose predictions have no variance
                assert config.k2_override == 0 and np.isnan(mse)

    def test_bad_k2_raises_stage_twos_error(self):
        x, y = _path_data(0, 20, 8, 5)
        configs = [FitConfig(sigma_eps=1.0, k1_override=3, k2_override=1),
                   FitConfig(sigma_eps=1.0, k1_override=3, k2_override=4)]
        with pytest.raises(ValueError) as want:
            list(fit_path(x, y, configs))
        scores = rank_path_scores(x, y, configs, x, y, np.zeros((5, 8)))
        assert len(next(scores)) == 4  # the good config first
        with pytest.raises(ValueError) as got:
            next(scores)
        assert str(got.value) == str(want.value) == "k2 override 4 outside [0, 3]"

    def test_configs_must_pin_both_ranks(self):
        x, y = _path_data(0, 20, 8, 5)
        for config in (FitConfig(sigma_eps=1.0, k1_override=3),
                       FitConfig(sigma_eps=1.0, k2_override=1)):
            with pytest.raises(ValueError, match="pin both k1 and k2"):
                list(rank_path_scores(x, y, [config], x, y, np.zeros((5, 8))))

    @pytest.mark.parametrize("sigmas, pilots", [((1.0, 1.0), 0), ((1.0, "auto"), 1),
                                                (("auto", "auto"), 1)])
    def test_one_stage_one_and_one_svd_per_k1(self, monkeypatch, sigmas, pilots):
        calls = {"decompose": [], "pilot": 0, "stage1": 0}
        real = estimator.decompose, estimator.estimate_noise_sigma, estimator.step1_pca_x

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                if key == "decompose":
                    calls[key].append(np.shape(args[0]))
                else:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name, key, fn in zip(("decompose", "estimate_noise_sigma", "step1_pca_x"),
                                 ("decompose", "pilot", "stage1"), real):
            monkeypatch.setattr(estimator, name, counting(key, fn))
        x, y = _path_data(0, 20, 8, 5)
        configs = [FitConfig(sigma_eps=sigma, k1_override=k1, k2_override=k2)
                   for sigma in sigmas for k1 in (3, 6) for k2 in (2, 0)]
        assert len(list(rank_path_scores(x, y, configs, x, y, np.zeros((5, 8))))) == len(configs)
        assert calls == {"decompose": [(20, 8), (5, 3), (5, 6)], "pilot": pilots,
                         "stage1": 2}

    @pytest.mark.parametrize("sigmas, pilot_at", [((1.0, 1.0), None), ((1.0, "auto"), 6),
                                                  (("auto", "auto"), 1)])
    def test_fit_path_and_rank_path_make_the_same_stage_calls(self, monkeypatch, sigmas,
                                                              pilot_at):
        calls = []
        real = estimator.decompose, estimator.estimate_noise_sigma, estimator.step1_pca_x
        monkeypatch.setattr(estimator, "decompose",
                            lambda a: calls.append(("decompose", np.shape(a))) or real[0](a))
        monkeypatch.setattr(estimator, "estimate_noise_sigma",
                            lambda *a: calls.append(("pilot",)) or real[1](*a))
        monkeypatch.setattr(estimator, "step1_pca_x",
                            lambda dec, delta, k1: calls.append(("stage1", delta, k1))
                            or real[2](dec, delta, k1))
        x, y = _path_data(0, 20, 8, 5)
        # two deltas at k1 3: stage 1 runs once per (delta, k1 override)
        configs = [FitConfig(delta=delta, sigma_eps=sigma, k1_override=k1, k2_override=k2)
                   for sigma in sigmas for delta, k1 in ((1e-3, 3), (1e-2, 3), (1e-3, 6))
                   for k2 in (2, 0)]
        assert len(list(fit_path(x, y, configs))) == len(configs)
        fit_calls = calls[:]
        calls.clear()
        assert len(list(rank_path_scores(x, y, configs, x, y, np.zeros((5, 8))))) == len(configs)
        want = [("decompose", (20, 8)), ("stage1", 1e-3, 3), ("decompose", (5, 3)),
                ("stage1", 1e-2, 3), ("stage1", 1e-3, 6), ("decompose", (5, 6))]
        if pilot_at is not None:  # once, for the first "auto" config
            want.insert(pilot_at, ("pilot",))
        assert calls == fit_calls == want

    # (n, d1, d2) and k1s: sweep-rankpath's shape, k1 below d2, and n < d1
    @pytest.mark.parametrize("shape, k1s", [((150, 200, 100), (100, 150)),
                                            ((30, 12, 8), (5, 12)), ((10, 16, 3), (2, 6))],
                             ids=["sweep", "k1_below_d2", "wide"])
    def test_direction_sums_match_their_out_of_place_terms_bitwise(self, monkeypatch, shape,
                                                                   k1s):
        # on the very arguments rank_path_scores passes, which stay unchanged
        calls, real = [], estimator._direction_sums
        monkeypatch.setattr(estimator, "_direction_sums", lambda *a: calls.append(a) or real(*a))
        n, d1, d2 = shape
        x, y = _path_data(0, n, d1, d2)
        x_new, y_new = _path_data(1, n + 3, d1, d2)
        m = np.random.default_rng(2).normal(size=(d2, d1))
        configs = [FitConfig(sigma_eps=1.0, k1_override=k1, k2_override=1) for k1 in k1s]
        assert len(list(rank_path_scores(x, y, configs, x_new, y_new, m))) == len(k1s)
        assert len(calls) == len(k1s)
        for args in calls:
            before = [a.copy() for a in args]
            (got_m, got_y), *got = real(*args)
            (want_m, want_y), *want = _out_of_place_direction_sums(*args)
            assert (got_m.tobytes(), got_y.tobytes()) == (want_m.tobytes(), want_y.tobytes())
            for a, b in zip(got + before, want + list(args)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_a_k1s_factors_are_released_before_the_next_k1s(self, monkeypatch):
        # configs in sweep order, grouped by a pinned k1: when stage 1 runs
        # for the next k1, nothing holds the previous k1's pi_hat or its
        # cross-moment SVD any more, and still no factorization is repeated
        held, real = [], (estimator.step1_pca_x, estimator.decompose)
        refs = {}  # k1 -> weak references to its pi_hat and SVD factors
        decomposed = []

        def step1(dec, delta, k1):
            gc.collect()
            held.append(sorted(k for k, rs in refs.items() if any(r() is not None for r in rs)))
            pi_hat, lambdas = real[0](dec, delta, k1)
            refs[k1] = [weakref.ref(pi_hat)]
            return pi_hat, lambdas

        def decompose(a):
            dec = real[1](a)
            decomposed.append(a.shape)
            if a.shape[1] in refs:  # the cross-moment matrix of a k1, d2 x k1
                refs[a.shape[1]] += [weakref.ref(f) for f in (dec, dec.u, dec.s, dec.v)]
            return dec

        monkeypatch.setattr(estimator, "step1_pca_x", step1)
        monkeypatch.setattr(estimator, "decompose", decompose)
        x, y = _path_data(0, 20, 8, 5)
        configs = [FitConfig(sigma_eps=1.0, k1_override=k1, k2_override=k2)
                   for k1 in (3, 6, 4) for k2 in (2, 0, 1)]
        scores = rank_path_scores(x, y, configs, x, y, np.zeros((5, 8)))
        assert len(list(scores)) == len(configs)
        assert held == [[], [], []]
        assert decomposed == [(20, 8), (5, 3), (5, 6), (5, 4)]
        gc.collect()
        assert not any(r() is not None for rs in refs.values() for r in rs)

    @pytest.mark.parametrize("x_new, error, message", [
        (np.ones((4, 7)), ValueError, "x_new must have 8 columns"),
        (np.ones(8), ValueError, "x_new must have 8 columns"),
        (np.where(np.eye(4, 8) > 0, np.nan, 1.0), NonFiniteError, "x_new must hold only finite"),
        (np.full((4, 8), np.inf), NonFiniteError, "x_new must hold only finite"),
    ], ids=["7_columns", "1d", "nan", "inf"])
    def test_x_new_is_checked_as_predict_checks_it(self, x_new, error, message):
        x, y = _path_data(0, 20, 8, 5)
        config = FitConfig(sigma_eps=1.0, k1_override=3, k2_override=1)
        model = fit_adaptive_rrr(x, y, config)
        for run in (lambda: predict(model, x_new),
                    lambda: list(rank_path_scores(x, y, [config], x_new, y, np.zeros((5, 8))))):
            with pytest.raises(error, match=message):
                run()

    @pytest.mark.filterwarnings("error")
    def test_x_new_without_rows_is_named(self):
        # no rows to score: a ValueError that names x_new, not a division by
        # n = 0 and an empty max reduction
        x, y = _path_data(0, 20, 8, 5)
        config = FitConfig(sigma_eps=1.0, k1_override=3, k2_override=1)
        with pytest.raises(ValueError, match="^x_new must have at least one row"):
            list(rank_path_scores(x, y, [config], np.zeros((0, 8)), np.zeros((0, 5)),
                                  np.zeros((5, 8))))
        # the x/y and stage errors still come first
        for x, y, sigma, message in (
                (np.ones((1, 3)), np.ones((1, 2)), 1.0, "at least 2 rows"),
                (np.eye(4, 3), np.ones((4, 2)), "auto", "response y is constant")):
            configs = [FitConfig(sigma_eps=sigma, k1_override=1, k2_override=0)]
            with pytest.raises(ValueError, match=message):
                list(rank_path_scores(x, y, configs, np.zeros((0, 3)), np.zeros((0, 2)),
                                      np.zeros((2, 3))))

    def test_x_new_is_checked_without_configs(self):
        x, y = _path_data(0, 20, 8, 5)
        m = np.zeros((5, 8))
        assert list(rank_path_scores(x, y, [], x, y, m)) == []
        with pytest.raises(ValueError, match="x_new must have 8 columns"):
            list(rank_path_scores(x, y, [], np.ones((4, 7)), y, m))

    def test_errors_before_the_stages_match_fit_path(self):
        for x, y, sigma, message in (
                (np.zeros((6, 3)), np.zeros((6, 2)), "auto", "x is identically zero"),
                (np.ones((1, 3)), np.ones((1, 2)), 1.0, "at least 2 rows"),
                (np.eye(4, 3), np.ones((4, 2)), "auto", "response y is constant")):
            configs = [FitConfig(sigma_eps=sigma, k1_override=1, k2_override=0)]
            for path in (fit_path(x, y, configs),
                         rank_path_scores(x, y, configs, x, y, np.zeros((2, 3)))):
                with pytest.raises(ValueError, match=message):
                    list(path)
