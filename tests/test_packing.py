import math

import numpy as np
import pytest

from arrr import packing
from arrr.packing import (
    FillInfeasibleError,
    PackingFamily,
    PackingInfeasibleError,
    PackingParams,
    build_family,
    build_unitary,
    calibrate_fill_constants,
    default_params,
    kl_divergence,
    noise_floor,
    psi_mass,
    resolve_supports,
    sample_code,
    sample_sparsity_family,
    verify_packing,
    weighted_cost,
)


def _params64(seed=1, k_patterns=16, s_size=8, spectrum=None):
    return default_params(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                          k_patterns=k_patterns, s_size=s_size, seed=seed,
                          spectrum=spectrum)


def _params32(seed=0):
    return default_params(d=32, rho=0.06, sigma_eps=1.0, n_samples=100,
                          k_patterns=8, s_size=4, seed=seed)


class TestParams:
    def test_subset_arithmetic_at_reference_scale(self):
        p = _params64()
        assert p.subset_size == 8
        assert p.t_hi == 4
        assert p.n_contested == 4

    def test_default_flat_spectrum_sits_at_noise_floor(self):
        p = _params64()
        floor = noise_floor(p)
        np.testing.assert_array_equal(p.spectrum, np.full(64, floor))
        assert p.t_lo == 1
        assert psi_mass(p) == pytest.approx(4 * floor ** 2)

    def test_descending_spectrum_sets_t_lo_past_the_floor(self):
        floor = 0.0158 * 1.0 * math.sqrt(64 / 100)
        spectrum = np.full(64, floor)
        spectrum[:2] = 2 * floor
        p = _params64(spectrum=spectrum)
        assert p.t_lo == 3
        assert p.t_hi == 4

    def test_spectrum_entirely_above_floor_rejected(self):
        with pytest.raises(ValueError):
            _params64(spectrum=np.full(64, 100.0))

    def test_validate_rejects_bad_params(self):
        good = _params64()
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(good, rho=1.5)
        with pytest.raises(ValueError):
            dataclasses.replace(good, spectrum=np.arange(64.0))
        with pytest.raises(ValueError):
            dataclasses.replace(good, sigma_eps=0.0)
        with pytest.raises(ValueError):
            # support size floor(rho^lambda * d) collapses below 2
            dataclasses.replace(good, rho=1e-9)

    @pytest.mark.parametrize("change", [
        {"lambda_exp": 0.0}, {"zeta": -1.0}, {"eta_exp": float("nan")},
        {"rho": float("nan")}, {"sigma_eps": float("nan")},
    ])
    def test_validate_rejects_bad_scalars(self, change):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(_params64(), **change)

    @pytest.mark.parametrize("change", [
        {"n_samples": 0}, {"rho": -0.5}, {"zeta": 0.0}, {"k_patterns": 0},
    ])
    def test_default_params_checks_inputs_first(self, change):
        kwargs = dict(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                      k_patterns=16, s_size=8, seed=1)
        kwargs.update(change)
        with pytest.raises(ValueError):
            default_params(**kwargs)

    def test_spectrum_must_be_positive(self):
        spectrum = np.full(64, 0.0158 * 0.8)
        spectrum[-1] = 0.0
        with pytest.raises(ValueError):
            _params64(spectrum=spectrum)


class TestSparsityFamily:
    def test_every_subset_has_exact_size(self):
        p = _params64(seed=3)
        patterns = sample_sparsity_family(p)
        assert len(patterns) == p.n_contested
        for column in patterns:
            assert len(column) == p.k_patterns
            for subset in column:
                assert subset.size == p.subset_size
                assert np.unique(subset).size == subset.size
                assert subset.min() >= 0 and subset.max() < p.d

    def test_single_pattern_family_valid(self):
        p = _params64(k_patterns=1, s_size=1)
        patterns = sample_sparsity_family(p)
        assert all(len(col) == 1 for col in patterns)

    def test_capacity_error(self):
        # subset size 2 out of d=4 admits only 6 subsets
        p = PackingParams(d=4, rho=0.26, spectrum=np.ones(4), sigma_eps=1.0,
                          n_samples=10, t_lo=1, k_patterns=7, s_size=2,
                          seed=0)
        with pytest.raises(ValueError):
            sample_sparsity_family(p)

    def test_pairwise_intersection_stays_small(self):
        # random 8-subsets of [64]: hypergeometric mean intersection is 1,
        # so a worst pair above 4 is rare; frozen seeds give 98/100
        hits = 0
        for seed in range(100):
            p = PackingParams(d=64, rho=0.0158, spectrum=np.ones(64),
                              sigma_eps=1.0, n_samples=100, t_lo=4,
                              k_patterns=16, s_size=2, seed=seed)
            col = sample_sparsity_family(p)[0]
            worst = max(len(np.intersect1d(a, b))
                        for i, a in enumerate(col) for b in col[i + 1:])
            hits += int(worst <= 4)
        assert hits >= 95

    def test_deterministic_per_seed(self):
        p = _params32(seed=11)
        a = sample_sparsity_family(p)
        b = sample_sparsity_family(p)
        for col_a, col_b in zip(a, b):
            for sa, sb in zip(col_a, col_b):
                np.testing.assert_array_equal(sa, sb)


class TestWeightedCost:
    def test_identical_tuples_give_full_mass(self):
        p = _params64()
        psi = psi_mass(p)
        r = (0, 1, 2, 3)
        assert weighted_cost(r, r, p.spectrum, p.t_lo, p.t_hi) == pytest.approx(psi)

    def test_disjoint_tuples_give_zero(self):
        p = _params64()
        assert weighted_cost((0, 0, 0, 0), (1, 1, 1, 1),
                             p.spectrum, p.t_lo, p.t_hi) == 0.0

    def test_hand_arithmetic_two_columns(self):
        spectrum = np.array([2.0, 1.0])
        cost = weighted_cost((5, 7), (5, 9), spectrum, t_lo=1, t_hi=2)
        assert cost == 4.0

    def test_range_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cost((0, 1), (0, 1, 2), np.ones(4), 1, 3)


class TestSampleCode:
    def test_tuples_distinct_and_within_budget(self):
        p = _params64(seed=1)
        patterns = sample_sparsity_family(p)
        code = sample_code(p, patterns)
        assert len(code) == p.s_size
        assert len(set(code)) == p.s_size
        budget = p.rho ** p.zeta * psi_mass(p)
        for i, a in enumerate(code):
            for b in code[i + 1:]:
                assert weighted_cost(a, b, p.spectrum, p.t_lo, p.t_hi) <= budget

    def test_pair_cost_usually_zero_with_many_patterns(self):
        # collision probability per contested column is 1/K
        zero = 0
        for seed in range(100):
            p = _params64(seed=seed, k_patterns=64, s_size=2)
            patterns = sample_sparsity_family(p)
            code = sample_code(p, patterns)
            cost = weighted_cost(code[0], code[1], p.spectrum, p.t_lo, p.t_hi)
            zero += int(cost == 0.0)
        assert zero >= 85

    def test_budget_exhaustion_reports_achieved_cost(self):
        # a single pattern per column forces every tuple to collide
        p = _params64(k_patterns=1, s_size=2)
        patterns = sample_sparsity_family(p)
        with pytest.raises(PackingInfeasibleError) as exc:
            sample_code(p, patterns)
        assert exc.value.achieved_cost >= 0.0


class TestBuildFamily:
    def setup_method(self):
        self.params = _params64(seed=1)
        self.family = build_family(self.params)

    def test_unitarity(self):
        for u in self.family.unitaries:
            resid = np.max(np.abs(u.T @ u - np.eye(64)))
            assert resid <= 1e-10

    def test_contested_columns_confined_to_supports(self):
        p = self.params
        for r, u in zip(self.family.code, self.family.unitaries):
            supports = resolve_supports(r, self.family.patterns)
            for j, support in enumerate(supports):
                col = u[:, p.t_lo - 1 + j]
                off = np.setdiff1d(np.arange(p.d), support)
                assert np.all(col[off] == 0.0)
                assert np.linalg.norm(col) == pytest.approx(1.0)

    def test_spread_cutoff_respected(self):
        p = self.params
        c5, _ = calibrate_fill_constants(p.subset_size)
        cutoff = c5 / math.sqrt(p.rho ** (p.lambda_exp + p.eta_exp) * p.d)
        for u in self.family.unitaries:
            for col_idx in range(p.t_lo - 1, p.t_hi):
                heavy = np.sum(np.abs(u[:, col_idx]) >= cutoff)
                assert heavy <= 2

    def test_shared_prefix_across_members(self):
        floor = 0.0158 * math.sqrt(64 / 100)
        spectrum = np.full(64, floor)
        spectrum[:2] = 2 * floor
        p = _params64(seed=2, spectrum=spectrum)
        assert p.t_lo == 3
        fam = build_family(p)
        first = fam.unitaries[0][:, :2]
        for u in fam.unitaries[1:]:
            np.testing.assert_array_equal(u[:, :2], first)

    def test_deterministic_per_seed(self):
        again = build_family(self.params)
        for a, b in zip(self.family.unitaries, again.unitaries):
            np.testing.assert_array_equal(a, b)

    def test_prefix_shape_checked(self):
        p = self.params
        supports = resolve_supports(self.family.code[0], self.family.patterns)
        with pytest.raises(ValueError):
            build_unitary(supports, p, np.zeros((64, 3)), seed=0)


class TestVerifyPacking:
    def test_reference_family_passes(self):
        p = _params64(seed=1)
        report = verify_packing(build_family(p), p)
        assert report.passed
        assert report.unitarity_residual <= 1e-10
        assert report.min_pairwise_distance >= 1.5 * report.psi
        assert report.max_support_overlap <= 4
        assert report.max_off_support == 0.0

    def test_small_family_passes_too(self):
        p = _params32(seed=0)
        report = verify_packing(build_family(p), p)
        assert report.passed

    @pytest.mark.parametrize("kwargs", [
        {"distance_floor": 0.0}, {"distance_floor": float("nan")}, {"overlap_max": -1},
    ])
    def test_rejects_bad_thresholds(self, kwargs):
        p = _params32(seed=0)
        with pytest.raises(ValueError):
            verify_packing(build_family(p), p, **kwargs)

    def test_single_member_distance_sentinel(self):
        p = _params64(k_patterns=16, s_size=1)
        report = verify_packing(build_family(p), p)
        assert math.isinf(report.min_pairwise_distance)
        assert report.passed

    @pytest.mark.parametrize("member", [1, 7])  # 7 is the last of s_size 8
    def test_shared_prefix_is_verified(self, member):
        # t_lo = 3, so every member must share the first two columns
        floor = 0.0158 * 1.0 * math.sqrt(64 / 100)
        spectrum = np.full(64, floor)
        spectrum[:2] = 2 * floor
        p = _params64(spectrum=spectrum)
        fam = build_family(p)
        assert verify_packing(fam, p).passed
        flipped = [u.copy() for u in fam.unitaries]
        flipped[member][:, 0] *= -1.0  # still unitary, with the same spectrum and block
        report = verify_packing(PackingFamily(
            patterns=fam.patterns, code=fam.code, unitaries=flipped, psi=fam.psi), p)
        assert [name for name, ok in report.checks.items() if not ok] == ["shared_prefix"]
        assert report.prefix_mismatch == 2.0 * np.max(np.abs(fam.unitaries[0][:, 0]))
        assert report.prefix_mismatch == pytest.approx(0.686, abs=1e-3)

    def test_injected_duplicate_flagged(self):
        p = _params32(seed=0)
        fam = build_family(p)
        doctored = PackingFamily(
            patterns=fam.patterns,
            code=[fam.code[0], fam.code[0]],
            unitaries=[fam.unitaries[0], fam.unitaries[0]],
            psi=fam.psi,
        )
        report = verify_packing(doctored, p)
        assert report.min_pairwise_distance == 0.0
        assert not report.passed
        assert not report.checks["min_distance"]


class TestKLDivergence:
    def test_identical_matrices_give_zero(self):
        n1 = np.random.default_rng(0).normal(size=(6, 6))
        assert kl_divergence(n1, n1, 50, 1.0) == 0.0

    def test_direct_substitution(self):
        n1 = np.zeros((8, 8))
        n2 = np.zeros((8, 8))
        n2[0, 0] = math.sqrt(0.08)
        assert kl_divergence(n1, n2, 100, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_symmetry_and_scalings(self):
        rng = np.random.default_rng(1)
        n1 = rng.normal(size=(5, 5))
        n2 = rng.normal(size=(5, 5))
        base = kl_divergence(n1, n2, 40, 0.7)
        assert kl_divergence(n2, n1, 40, 0.7) == pytest.approx(base, rel=1e-14)
        assert kl_divergence(n1, n2, 80, 0.7) == pytest.approx(2 * base, rel=1e-14)
        scaled = kl_divergence(n1, n1 + 3 * (n2 - n1), 40, 0.7)
        assert scaled == pytest.approx(9 * base, rel=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            kl_divergence(np.zeros((2, 2)), np.zeros((2, 2)), 10, 0.0)

    def test_monte_carlo_cross_check(self):
        # empirical mean of the Gaussian log-likelihood ratio over draws of
        # (z, y) with y = N z + sigma * eps
        rng = np.random.default_rng(7)
        d = 6
        n1 = 0.3 * rng.normal(size=(d, d))
        n2 = n1 + 0.4 * rng.normal(size=(d, d)) / math.sqrt(d)
        sigma = 1.0
        n_samples = 100
        closed = kl_divergence(n1, n2, n_samples, sigma)
        draws = 100_000
        z = rng.standard_normal((draws, d))
        eps = rng.standard_normal((draws, d))
        y = z @ n1.T + sigma * eps
        r1 = y - z @ n1.T
        r2 = y - z @ n2.T
        llr = (np.sum(r2 ** 2, axis=1) - np.sum(r1 ** 2, axis=1)) / (2 * sigma ** 2)
        mc = n_samples * float(np.mean(llr))
        assert abs(mc - closed) / closed <= 0.07
