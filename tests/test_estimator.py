import dataclasses
import json

import numpy as np
import pytest

from arrr.estimator import (
    FitConfig,
    NoGapError,
    NonFiniteError,
    estimate_noise_sigma,
    fit_adaptive_rrr,
    load_model,
    predict,
    save_model,
    step1_pca_x,
    step2_pca_denoise,
)
from arrr.spectral import select_gap_rank, truncate_rank
from arrr.synth import SynthConfig, gen_covariance, gen_design, make_instance


class TestStep1:
    def test_hand_worked_diagonal_example(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        z_hat, pi_hat, lambdas = step1_pca_x(x, delta=0.5)
        np.testing.assert_allclose(lambdas, [4 / 3, 1 / 3], rtol=1e-12)
        assert pi_hat.shape == (1, 2)
        np.testing.assert_allclose(pi_hat, [[np.sqrt(3) / 2, 0.0]], atol=1e-12)
        np.testing.assert_allclose(z_hat, [[np.sqrt(3)], [0.0], [0.0]], atol=1e-12)

    def test_zhat_equals_x_projected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 12))
        z_hat, pi_hat, _ = step1_pca_x(x, delta=1e-6)
        np.testing.assert_allclose(z_hat, x @ pi_hat.T, atol=1e-8)

    def test_whitening_exact_at_full_rank_override(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 8))
        z_hat, _, _ = step1_pca_x(x, delta=1.0, k1_override=8)
        gram = z_hat.T @ z_hat / 20
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_whitening_many_shapes(self):
        for seed, (n, d1) in enumerate([(10, 40), (40, 10), (25, 25), (150, 200)]):
            x = np.random.default_rng(seed).normal(size=(n, d1))
            z_hat, _, _ = step1_pca_x(x, delta=1e-9)
            k1 = z_hat.shape[1]
            gram = z_hat.T @ z_hat / n
            assert np.max(np.abs(gram - np.eye(k1))) <= 1e-10

    def test_gap_rule_cross_checked(self):
        v, lam = gen_covariance(200, 2.0, seed=2)
        x = gen_design(v, lam, n=150, seed=3)
        z_hat, _, lambdas = step1_pca_x(x, delta=1e-3)
        k1 = z_hat.shape[1]
        assert k1 >= 1
        assert select_gap_rank(lambdas, 1e-3) == k1
        nxt = lambdas[k1] if k1 < lambdas.size else 0.0
        assert lambdas[k1 - 1] - nxt >= 1e-3

    def test_no_gap_error(self):
        # all eigenvalues equal and tiny: no consecutive gap reaches delta
        x = 1e-6 * np.eye(4)
        with pytest.raises(NoGapError):
            step1_pca_x(x, delta=0.5)

    def test_override_beyond_rank(self):
        # second column identically zero: second eigenvalue is exactly 0
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError):
            step1_pca_x(x, delta=0.1, k1_override=2)

    def test_override_out_of_bounds(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        with pytest.raises(ValueError):
            step1_pca_x(x, delta=0.1, k1_override=4)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            step1_pca_x(np.zeros((4, 3)), delta=0.1)
        with pytest.raises(ValueError):
            step1_pca_x(np.ones((1, 3)), delta=0.1)


class TestStep2:
    def _whitened(self, n, k1, seed):
        x = np.random.default_rng(seed).normal(size=(n, k1))
        z, _, _ = step1_pca_x(x, delta=1e-12, k1_override=k1)
        return z

    def test_exact_cross_moment_recovery(self):
        # y = z b^T with whitened z makes (1/n) y^T z = b exactly
        z = self._whitened(40, 3, seed=0)
        b = np.array([[3.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
        y = z @ b.T
        n_hat, k2, sigmas, thr = step2_pca_denoise(z, y, theta=1.0, sigma_eps=1.0)
        # threshold = sqrt(2/40) ~ 0.224: keeps sigma=3, drops sigma=0.1
        assert k2 == 1
        np.testing.assert_allclose(sigmas[:2], [3.0, 0.1], atol=1e-8)
        b_rank1 = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(n_hat, b_rank1, atol=1e-8)

    def test_zero_response(self):
        z = self._whitened(20, 4, seed=1)
        n_hat, k2, _, _ = step2_pca_denoise(z, np.zeros((20, 6)), 2.0, 1.0)
        assert k2 == 0
        np.testing.assert_array_equal(n_hat, np.zeros((6, 4)))

    def test_threshold_formula(self):
        z = self._whitened(25, 2, seed=2)
        y = np.random.default_rng(3).normal(size=(25, 7))
        _, _, _, thr = step2_pca_denoise(z, y, theta=1.7, sigma_eps=0.4)
        np.testing.assert_allclose(thr, 1.7 * 0.4 * np.sqrt(7 / 25), rtol=1e-12)

    def test_retained_values_reach_threshold(self):
        z = self._whitened(30, 5, seed=4)
        y = np.random.default_rng(5).normal(size=(30, 8))
        n_hat, k2, sigmas, thr = step2_pca_denoise(z, y, theta=1.0, sigma_eps=0.2)
        kept = np.linalg.svd(n_hat, compute_uv=False)[:k2]
        assert np.all(kept >= thr - 1e-10)
        if k2 < sigmas.size:
            assert sigmas[k2] < thr

    def test_scale_equivariance(self):
        z = self._whitened(30, 4, seed=6)
        y = np.random.default_rng(7).normal(size=(30, 5))
        n1, k2_1, s1, _ = step2_pca_denoise(z, y, theta=2.0, sigma_eps=0.3)
        n2, k2_2, s2, _ = step2_pca_denoise(z, 5.0 * y, theta=2.0, sigma_eps=1.5)
        assert k2_1 == k2_2
        np.testing.assert_allclose(s2, 5.0 * s1, rtol=1e-10)
        np.testing.assert_allclose(n2, 5.0 * n1, atol=1e-10)

    def test_k2_override(self):
        z = self._whitened(20, 3, seed=8)
        y = np.random.default_rng(9).normal(size=(20, 4))
        n_hat, k2, _, _ = step2_pca_denoise(z, y, 2.0, 1e9, k2_override=2)
        assert k2 == 2
        s = np.linalg.svd(n_hat, compute_uv=False)
        assert np.count_nonzero(s > 1e-10) <= 2
        with pytest.raises(ValueError):
            step2_pca_denoise(z, y, 2.0, 1.0, k2_override=5)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            step2_pca_denoise(np.zeros((5, 2)), np.zeros((6, 2)), 1.0, 1.0)


class TestPureNoiseRejection:
    def test_k2_zero_under_pure_noise(self):
        # top singular value of (1/n) E^T Z concentrates near
        # (sqrt(k1) + sqrt(d2)) / sqrt(n), far below theta=4's threshold
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(150, 30))
            y = rng.normal(size=(150, 100))
            z, _, _ = step1_pca_x(x, delta=1e-9, k1_override=30)
            _, k2, _, _ = step2_pca_denoise(z, y, theta=4.0, sigma_eps=1.0)
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

    def test_constant_response_floor(self):
        x = np.random.default_rng(4).normal(size=(10, 3))
        with pytest.warns(RuntimeWarning):
            est = estimate_noise_sigma(x, np.ones((10, 2)))
        assert est == np.finfo(float).eps

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            estimate_noise_sigma(np.zeros((3, 2)), np.zeros((4, 2)))


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

    def test_upsilon_check_flags(self):
        inst = make_instance(SynthConfig(d1=10, d2=6, n=40, rank_m=2, eta=0.0, seed=5))
        cfg = FitConfig(sigma_eps=1.0, k1_override=10, k2_override=2,
                        upsilon_check=1e-6)
        with pytest.warns(RuntimeWarning):
            model = fit_adaptive_rrr(inst.x, inst.y, cfg)
        assert model.upsilon_exceeded

    def test_row_mismatch_and_config_validation(self):
        with pytest.raises(ValueError):
            fit_adaptive_rrr(np.zeros((3, 2)), np.zeros((4, 2)), FitConfig(sigma_eps=1.0))
        with pytest.raises(ValueError):
            FitConfig(delta=-1.0).validate()
        with pytest.raises(ValueError):
            FitConfig(sigma_eps="guess").validate()
        with pytest.raises(ValueError):
            FitConfig(theta=0.0).validate()


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

    @pytest.mark.parametrize("change", [
        {"delta": float("nan")}, {"theta": float("nan")}, {"theta": 0.0},
        {"sigma_eps": float("nan")}, {"sigma_eps": "oracle"},
    ])
    def test_config_rejects_nan_and_bad_values(self, change):
        with pytest.raises(ValueError):
            FitConfig(**change).validate()

    def test_stage2_truncation_equals_truncate_rank(self):
        inst = make_instance(SynthConfig(d1=30, d2=12, n=25, rank_m=4, eta=0.5, seed=2))
        z, _, _ = step1_pca_x(inst.x, delta=1e-3, k1_override=20)
        n_hat = inst.y.T @ z / z.shape[0]
        for k2 in (0, 3, 12):
            trunc, _, _, _ = step2_pca_denoise(z, inst.y, 2.0, 1.0, k2_override=k2)
            np.testing.assert_array_equal(trunc, truncate_rank(n_hat, k2))
