import dataclasses

import numpy as np
import pytest

from arrr.synth import (
    SynthConfig,
    gen_coefficients,
    gen_covariance,
    gen_dataset,
    gen_design,
    make_instance,
    orthogonalized_n,
)
from arrr.spectral import truncate_rank


class TestGenCovariance:
    def test_power_law_values_d4(self):
        # normalize [1, 1/4, 1/9, 1/16]: Z = 205/144
        _, lam = gen_covariance(4, 2.0, seed=0)
        np.testing.assert_allclose(
            lam, [144 / 205, 36 / 205, 16 / 205, 9 / 205], atol=1e-4)

    def test_trace_one_and_leading_below_one(self):
        for d1, omega in [(2, 2.0), (10, 2.5), (50, 3.0)]:
            _, lam = gen_covariance(d1, omega, seed=1)
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert lam[0] < 1.0
            assert np.all(np.diff(lam) <= 0)

    def test_exact_power_law_ratios(self):
        _, lam = gen_covariance(8, 2.5, seed=2)
        for i in range(8):
            np.testing.assert_allclose(lam[i] / lam[0], (i + 1.0) ** -2.5, rtol=1e-12)

    def test_basis_orthonormal(self):
        v, _ = gen_covariance(12, 2.0, seed=3)
        np.testing.assert_allclose(v.T @ v, np.eye(12), atol=1e-10)

    def test_deterministic(self):
        v1, l1 = gen_covariance(6, 2.0, seed=9)
        v2, l2 = gen_covariance(6, 2.0, seed=9)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(l1, l2)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            gen_covariance(1, 2.0, seed=0)
        with pytest.raises(ValueError):
            gen_covariance(4, 1.5, seed=0)


class TestGenCoefficients:
    def test_rank_bounded(self):
        m = gen_coefficients(10, 14, rank_m=3, upsilon=5.0, seed=0)
        s = np.linalg.svd(m, compute_uv=False)
        assert np.all(s[3:] < 1e-10)

    def test_spectral_norm_capped(self):
        for seed in range(5):
            m = gen_coefficients(20, 30, rank_m=10, upsilon=2.0, seed=seed)
            assert np.linalg.norm(m, 2) <= 2.0 + 1e-12

    def test_no_rescale_when_under_cap(self):
        # full rank + huge cap leaves the ternary draw untouched
        m = gen_coefficients(8, 8, rank_m=8, upsilon=1e6, seed=4)
        assert set(np.unique(m)) <= {-1.0, 0.0, 1.0}

    def test_entry_histogram_roughly_uniform(self):
        m = gen_coefficients(100, 120, rank_m=100, upsilon=1e9, seed=5)
        vals, counts = np.unique(m, return_counts=True)
        assert list(vals) == [-1.0, 0.0, 1.0]
        np.testing.assert_allclose(counts / m.size, [1 / 3] * 3, atol=0.05)

    def test_deterministic(self):
        a = gen_coefficients(6, 7, 2, 5.0, seed=11)
        b = gen_coefficients(6, 7, 2, 5.0, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        m = gen_coefficients(3, 9, 2, 5.0, seed=0)
        assert m.shape == (3, 9)

    # the messages are SynthConfig's, and NaN and infinity fail as it fails them
    @pytest.mark.parametrize("rank_m, upsilon, message", [
        (0, 5.0, "rank_m must be in"), (4, 5.0, "rank_m must be in"),
        (2, 0.0, "upsilon must be positive and finite"),
        (2, -1.0, "upsilon must be positive and finite"),
        (2, float("nan"), "upsilon must be positive and finite"),
        (2, float("inf"), "upsilon must be positive and finite"),
    ])
    def test_argument_errors(self, rank_m, upsilon, message):
        with pytest.raises(ValueError, match=message):
            gen_coefficients(3, 9, rank_m, upsilon, seed=0)


class TestGenDesign:
    def test_row_second_moment_is_one(self):
        v, lam = gen_covariance(6, 2.0, seed=0)
        x = gen_design(v, lam, n=40000, seed=1)
        np.testing.assert_allclose(np.mean(np.sum(x ** 2, axis=1)), 1.0, rtol=0.03)

    def test_axis_variances_match_spectrum(self):
        v, lam = gen_covariance(4, 2.0, seed=0)
        x = gen_design(v, lam, n=60000, seed=2)
        proj = x @ v
        np.testing.assert_allclose(np.var(proj, axis=0), lam, rtol=0.05)

    def test_empirical_covariance_converges(self):
        v, lam = gen_covariance(20, 2.0, seed=3)
        c_star = (v * lam) @ v.T
        errs = []
        for n in (100, 1000, 10000):
            x = gen_design(v, lam, n=n, seed=4)
            errs.append(np.linalg.norm(x.T @ x / n - c_star, 2))
        assert errs[0] > errs[1] > errs[2]

    def test_whitened_scores_are_isotropic(self):
        v, lam = gen_covariance(20, 2.0, seed=5)
        x = gen_design(v, lam, n=10000, seed=6)
        z = (x @ v) / np.sqrt(lam)
        cov = z.T @ z / x.shape[0]
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.1
        np.testing.assert_allclose(np.diag(cov), 1.0, atol=0.1)


class TestGenDataset:
    def _parts(self, eta, seed=0):
        v, lam = gen_covariance(8, 2.0, seed=0)
        m = gen_coefficients(5, 8, 2, 5.0, seed=1)
        x, y, sig = gen_dataset(m, v, lam, n=60, eta=eta, seed=seed)
        return m, x, y, sig

    @pytest.mark.parametrize("eta", [-1.0, float("nan"), float("inf")])
    def test_eta_out_of_range(self, eta):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            self._parts(eta=eta)

    def test_noiseless(self):
        m, x, y, sig = self._parts(eta=0.0)
        assert sig == 0.0
        np.testing.assert_array_equal(y, x @ m.T)

    def test_sigma_formula_population_std(self):
        m, x, y, sig = self._parts(eta=0.7)
        np.testing.assert_allclose(sig, 0.7 * np.std(x @ m.T), rtol=1e-12)

    def test_noise_calibration(self):
        v, lam = gen_covariance(10, 2.0, seed=2)
        m = gen_coefficients(40, 10, 5, 5.0, seed=3)
        x, y, sig = gen_dataset(m, v, lam, n=300, eta=1.0, seed=4)
        e = y - x @ m.T
        np.testing.assert_allclose(np.std(e) / sig, 1.0, atol=0.05)

    def test_common_random_numbers_across_eta(self):
        # same seed: identical x, identical unit-variance noise directions
        m1, x1, y1, s1 = self._parts(eta=0.5, seed=7)
        m2, x2, y2, s2 = self._parts(eta=2.0, seed=7)
        np.testing.assert_array_equal(x1, x2)
        e1 = (y1 - x1 @ m1.T) / s1
        e2 = (y2 - x2 @ m2.T) / s2
        np.testing.assert_allclose(e1, e2, atol=1e-12)

    def test_deterministic(self):
        _, x1, y1, _ = self._parts(eta=0.3, seed=9)
        _, x2, y2, _ = self._parts(eta=0.3, seed=9)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


class TestOrthogonalizedN:
    def test_identity_transform(self):
        m = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(
            orthogonalized_n(m, np.eye(3), np.ones(3)), m)

    def test_monte_carlo_energy_identity(self):
        # E||M x||^2 = ||N||_F^2 when x ~ N(0, C*)
        v, lam = gen_covariance(6, 2.0, seed=0)
        m = gen_coefficients(4, 6, 2, 5.0, seed=1)
        n_mat = orthogonalized_n(m, v, lam)
        x = gen_design(v, lam, n=100000, seed=2)
        energy = np.mean(np.sum((x @ m.T) ** 2, axis=1))
        np.testing.assert_allclose(energy, np.sum(n_mat ** 2), rtol=0.02)

    def test_singular_value_bound(self):
        v, lam = gen_covariance(6, 2.0, seed=3)
        m = gen_coefficients(4, 6, 3, 5.0, seed=4)
        s = np.linalg.svd(orthogonalized_n(m, v, lam), compute_uv=False)
        assert np.all(s <= np.linalg.norm(m, 2) * np.sqrt(lam[0]) + 1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            orthogonalized_n(np.eye(2), np.eye(2), np.array([1.0, -0.1]))


class TestMakeInstance:
    CFG = SynthConfig(d1=12, d2=6, n=30, rank_m=3, omega=2.0, eta=0.5,
                      upsilon=5.0, seed=21)

    def test_reproducible(self):
        a, b = make_instance(self.CFG), make_instance(self.CFG)
        for f in ("v_star", "lambda_star", "m", "n_mat", "x", "y"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))
        assert a.sigma_noise == b.sigma_noise

    def test_invariants(self):
        inst = make_instance(self.CFG)
        assert abs(inst.lambda_star.sum() - 1.0) <= 1e-12
        assert inst.lambda_star[0] < 1.0
        s = np.linalg.svd(inst.m, compute_uv=False)
        assert np.all(s[self.CFG.rank_m:] < 1e-10)
        assert np.linalg.norm(inst.m, 2) <= self.CFG.upsilon + 1e-12
        np.testing.assert_allclose(
            inst.n_mat, orthogonalized_n(inst.m, inst.v_star, inst.lambda_star))
        np.testing.assert_allclose(
            inst.sigma_noise, self.CFG.eta * np.std(inst.x @ inst.m.T), rtol=1e-12)

    def test_seed_changes_instance(self):
        other = make_instance(dataclasses.replace(self.CFG, seed=22))
        base = make_instance(self.CFG)
        assert not np.array_equal(base.x, other.x)
        assert not np.array_equal(base.m, other.m)

    def test_shapes(self):
        inst = make_instance(self.CFG)
        assert inst.x.shape == (30, 12)
        assert inst.y.shape == (30, 6)
        assert inst.m.shape == (6, 12)
        assert inst.n_mat.shape == (6, 12)


class TestSynthConfigValidate:
    @pytest.mark.parametrize("change", [
        {"d1": 1}, {"d2": 0}, {"n": 1}, {"rank_m": 0}, {"rank_m": 7},
        {"omega": 1.5}, {"omega": float("nan")}, {"eta": -0.1},
        {"eta": float("nan")}, {"upsilon": 0.0},
    ])
    def test_rejects_out_of_range(self, change):
        with pytest.raises(ValueError):
            dataclasses.replace(SynthConfig(d1=8, d2=6, n=10, rank_m=2), **change)

    def test_accepts_edges(self):
        SynthConfig(d1=2, d2=1, n=2, rank_m=1, omega=2.0, eta=0.0)

    def test_dataset_design_is_gen_design_on_the_same_stream(self):
        v, lam = gen_covariance(8, 2.0, seed=0)
        m = gen_coefficients(5, 8, 2, 5.0, seed=1)
        x, _, _ = gen_dataset(m, v, lam, n=30, eta=0.5, seed=9)
        np.testing.assert_array_equal(x, gen_design(v, lam, 30, seed=9))

    def test_design_needs_two_rows(self):
        v, lam = gen_covariance(4, 2.0, seed=0)
        with pytest.raises(ValueError):
            gen_design(v, lam, 1, seed=0)


# The generators as they read with their temporaries out of place: the
# references that the in-place forms must match bit for bit.
def _out_of_place_covariance(d1, omega, seed):
    lam = np.arange(1, d1 + 1, dtype=float) ** (-float(omega))
    lam /= lam.sum()
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d1, d1)))
    return q * np.sign(np.diag(r)), lam


def _out_of_place_coefficients(d2, d1, rank_m, upsilon, seed):
    raw = np.random.default_rng(seed).integers(-1, 2, size=(d2, d1)).astype(float)
    m = truncate_rank(raw, rank_m) if rank_m < min(d1, d2) else raw
    top = np.linalg.norm(m, 2)
    return m * (upsilon / top) if top > upsilon else m


def _out_of_place_design(v_star, lambda_star, n, seed):
    g = np.random.default_rng(seed).standard_normal((n, len(lambda_star)))
    return (g * np.sqrt(lambda_star)) @ v_star.T


def _out_of_place_dataset(m, v_star, lambda_star, n, eta, seed):
    rng = np.random.default_rng(seed)
    x = _out_of_place_design(v_star, lambda_star, n, rng)
    signal = x @ m.T
    sigma_noise = float(eta) * float(np.std(signal))
    return x, signal + sigma_noise * rng.standard_normal(signal.shape), sigma_noise


class TestInPlaceTemporaries:
    # sweep-rankpath's shape, oneshot-io's synth shape, a full-rank capped
    # ternary matrix, and a small one under its cap
    @pytest.mark.parametrize("d1, d2, n, rank_m, upsilon, eta", [
        (200, 100, 150, 50, 5.0, 0.25), (300, 200, 400, 20, 5.0, 0.5),
        (12, 6, 9, 6, 2.0, 1.0), (5, 3, 4, 2, 50.0, 0.0)],
        ids=["sweep", "oneshot", "full_rank", "under_cap"])
    def test_generators_match_their_out_of_place_forms_bitwise(self, d1, d2, n, rank_m,
                                                               upsilon, eta):
        def same(got, want):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                a, b = np.asarray(a), np.asarray(b)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

        v, lam = gen_covariance(d1, 2.0, 11)
        same((v, lam), _out_of_place_covariance(d1, 2.0, 11))
        m = gen_coefficients(d2, d1, rank_m, upsilon, 12)
        same((m,), (_out_of_place_coefficients(d2, d1, rank_m, upsilon, 12),))
        same((gen_design(v, lam, n, 13),), (_out_of_place_design(v, lam, n, 13),))
        same(gen_dataset(m, v, lam, n, eta, 14), _out_of_place_dataset(m, v, lam, n, eta, 14))
