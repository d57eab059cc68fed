import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    save_model,
    step1_pca_x,
    step2_pca_denoise,
)
from arrr.spectral import decompose, select_gap_rank, truncate_rank
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
        z, _, _ = step1_pca_x(inst.x, delta=1e-3, k1_override=20)
        n_hat = inst.y.T @ z / z.shape[0]
        for k2 in (0, 3, 12):
            trunc, _, _, _ = step2_pca_denoise(z, inst.y, 2.0, 1.0, k2_override=k2)
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


class TestFitPath:
    @settings(max_examples=60, deadline=None, derandomize=True)
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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=_SEEDS, shape=_SHAPES, config=_CONFIGS)
    def test_m_hat_is_the_composition(self, seed, shape, config):
        x, y = _path_data(seed, *shape)
        (model,) = fit_path(x, y, [config])
        assume(not isinstance(model, NoGapError))
        assert "m_hat" not in {f.name for f in dataclasses.fields(model)}
        assert "m_hat" not in vars(model)  # formed on first read only
        assert model.m_hat.tobytes() == (model.n_hat_trunc @ model.pi_hat).tobytes()
        assert vars(model)["m_hat"] is model.m_hat

    @settings(max_examples=40, deadline=None, derandomize=True)
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

    @settings(max_examples=60, deadline=None, derandomize=True)
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
