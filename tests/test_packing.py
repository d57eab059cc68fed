import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from arrr import packing
from arrr.packing import (
    CODE_RETRY_BUDGET,
    FILL_RETRY_BUDGET,
    FillInfeasibleError,
    PackingFamily,
    PackingInfeasibleError,
    PackingParams,
    build_family,
    build_unitary,
    calibrate_fill_constants,
    kl_divergence,
    psi_mass,
    resolve_supports,
    sample_code,
    sample_sparsity_family,
    verify_packing,
    weighted_cost,
)


def _params64(seed=1, k_patterns=16, s_size=8, spectrum=None):
    return PackingParams(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                         k_patterns=k_patterns, s_size=s_size, seed=seed,
                         spectrum=spectrum)


def _params32(seed=0):
    return PackingParams(d=32, rho=0.06, sigma_eps=1.0, n_samples=100,
                         k_patterns=8, s_size=4, seed=seed)


class TestParams:
    def test_subset_arithmetic_at_reference_scale(self):
        p = _params64()
        assert p.subset_size == 8
        assert p.t_hi == 4
        assert p.n_contested == 4

    def test_default_flat_spectrum_sits_at_noise_floor(self):
        p = _params64()
        floor = 0.0158 * 1.0 * math.sqrt(64 / 100)
        np.testing.assert_array_equal(p.spectrum, np.full(64, floor))
        assert p.t_lo == 1
        assert psi_mass(p) == pytest.approx(4 * floor ** 2)
        np.testing.assert_array_equal(p.block_weights, np.full(4, floor ** 2))

    def test_descending_spectrum_sets_t_lo_past_the_floor(self):
        floor = 0.0158 * 1.0 * math.sqrt(64 / 100)
        spectrum = np.full(64, floor)
        spectrum[:2] = 2 * floor
        p = _params64(spectrum=spectrum)
        assert p.t_lo == 3
        assert p.t_hi == 4
        np.testing.assert_array_equal(p.block_weights, spectrum[2:4] ** 2)

    def test_floor_met_past_t_hi_rejected(self):
        spectrum = np.full(64, 0.0158 * 0.8)
        spectrum[:4] = 1.0  # t_lo = 5, past t_hi = 4
        with pytest.raises(ValueError, match="up to t_hi = 4"):
            _params64(spectrum=spectrum)

    def test_spectrum_entirely_above_floor_rejected(self):
        with pytest.raises(ValueError):
            _params64(spectrum=np.full(64, 100.0))

    def test_validate_rejects_bad_params(self):
        good = _params64()
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
        {"d": 1}, {"sigma_eps": float("inf")}, {"n_samples": -3},
        {"rho": float("nan")}, {"sigma_eps": float("nan")},
    ])
    def test_validate_rejects_bad_scalars(self, change):
        with pytest.raises(ValueError):
            dataclasses.replace(_params64(), **change)

    @pytest.mark.parametrize("change", [
        {"n_samples": 0}, {"rho": -0.5}, {"s_size": 0}, {"k_patterns": 0},
    ])
    def test_scalars_checked_before_the_spectrum(self, change):
        kwargs = dict(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                      k_patterns=16, s_size=8, seed=1)
        kwargs.update(change)
        with pytest.raises(ValueError):
            PackingParams(**kwargs)

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
        # a spectrum under the noise floor 0.26 * sqrt(4 / 10) from t_lo = 1
        p = PackingParams(d=4, rho=0.26, spectrum=np.full(4, 0.1), sigma_eps=1.0,
                          n_samples=10, k_patterns=7, s_size=2, seed=0)
        assert p.t_lo == 1
        with pytest.raises(ValueError):
            sample_sparsity_family(p)

    def test_pairwise_intersection_stays_small(self):
        # random 8-subsets of [64]: hypergeometric mean intersection is 1,
        # so a worst pair above 4 is rare; frozen seeds give 98/100
        # a spectrum above the noise floor on its first three entries, so
        # t_lo = t_hi = 4 and one column is contested
        spectrum = np.concatenate([np.ones(3), np.full(61, 0.01)])
        hits = 0
        for seed in range(100):
            p = PackingParams(d=64, rho=0.0158, spectrum=spectrum,
                              sigma_eps=1.0, n_samples=100,
                              k_patterns=16, s_size=2, seed=seed)
            assert (p.t_lo, p.t_hi) == (4, 4)
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
        assert weighted_cost(r, r, p.block_weights) == pytest.approx(psi)

    def test_disjoint_tuples_give_zero(self):
        p = _params64()
        assert weighted_cost((0, 0, 0, 0), (1, 1, 1, 1), p.block_weights) == 0.0

    def test_hand_arithmetic_two_columns(self):
        cost = weighted_cost((5, 7), (5, 9), np.array([4.0, 1.0]))
        assert cost == 4.0

    def test_range_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cost((0, 1), (0, 1, 2), np.ones(3))
        with pytest.raises(ValueError):
            weighted_cost((0, 1, 2), (0, 1, 2), np.ones(4))


class TestSampleCode:
    def test_tuples_distinct_and_within_budget(self):
        p = _params64(seed=1)
        patterns = sample_sparsity_family(p)
        code = sample_code(p, patterns)
        assert len(code) == p.s_size
        assert len(set(code)) == p.s_size
        budget = p.rho ** packing.ZETA * psi_mass(p)
        for i, a in enumerate(code):
            for b in code[i + 1:]:
                assert weighted_cost(a, b, p.block_weights) <= budget

    def test_pair_cost_usually_zero_with_many_patterns(self):
        # collision probability per contested column is 1/K
        zero = 0
        for seed in range(100):
            p = _params64(seed=seed, k_patterns=64, s_size=2)
            patterns = sample_sparsity_family(p)
            code = sample_code(p, patterns)
            cost = weighted_cost(code[0], code[1], p.block_weights)
            zero += int(cost == 0.0)
        assert zero >= 85

    def test_budget_exhaustion_reports_achieved_cost(self):
        # a single pattern per column forces every tuple to collide
        p = _params64(k_patterns=1, s_size=2)
        patterns = sample_sparsity_family(p)
        with pytest.raises(PackingInfeasibleError) as exc:
            sample_code(p, patterns)
        assert exc.value.achieved_cost >= 0.0


def _calibration_reference(subset_size):
    """The calibration as one pass over every draw per scale and np.quantile."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=20240131, spawn_key=(subset_size,)))
    draws = rng.standard_normal((10_000, subset_size))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    chosen = 3.0
    for scale in np.arange(1.0, 3.01, 0.05):
        heavy_counts = np.sum(np.abs(draws) >= scale / math.sqrt(subset_size), axis=1)
        if np.mean(heavy_counts <= 2) >= 0.9:
            chosen = float(scale)
            break
    cutoff = chosen / math.sqrt(subset_size)
    masses = np.sum(np.where(np.abs(draws) >= cutoff, draws ** 2, 0.0), axis=1)
    return chosen, float(np.quantile(masses, 0.6))


def _calibration_with_full_copies(subset_size):
    """The calibration as it stood before its in-place form: a partition of
    a full |draws| copy and the tail masses by np.where."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=20240131, spawn_key=(subset_size,)))
    draws = rng.standard_normal((10_000, subset_size))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    third = (np.partition(np.abs(draws), -3, axis=1)[:, -3].copy() if subset_size > 2
             else np.zeros(len(draws)))
    for scale in np.arange(1.0, 3.01, 0.05):
        cutoff = scale / math.sqrt(subset_size)
        if np.mean(third < cutoff) >= 0.9:
            chosen = float(scale)
            break
    else:
        chosen = 3.0
    cutoff = chosen / math.sqrt(subset_size)
    masses = np.sum(np.where(np.abs(draws) >= cutoff, draws ** 2, 0.0), axis=1)
    return chosen, float(np.quantile(masses, 0.6))


def _bits(v):
    return np.float64(v).tobytes()


class TestCalibration:
    def test_equals_the_per_scale_reference_bitwise(self):
        for s in range(2, 65):
            got = calibrate_fill_constants(s)
            want = _calibration_reference(s)
            assert got[0] == want[0] and _bits(got[1]) == _bits(want[1]), s

    @pytest.mark.parametrize("s", [1, 2, 3, 8, 32])
    def test_in_place_form_equals_the_full_copy_form_bitwise(self, s):
        got, want = calibrate_fill_constants.__wrapped__(s), _calibration_with_full_copies(s)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])

    def test_no_passing_scale_falls_back_to_three(self):
        # at support size 500 not even the last scale of the grid,
        # 3.0000000000000018, passes, so only the fallback gives 3.0 exactly
        got, want = calibrate_fill_constants(500), _calibration_reference(500)
        assert got[0] == 3.0 == want[0] and _bits(got[1]) == _bits(want[1])

    @seed(1)
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 20_000), q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    # a weight of exactly 1/2, where the two ends of the interpolation differ
    # in the last bit at this seed
    @example(n=2, q=0.5, seed=0, ties=False)
    def test_quantile_equals_numpys_bitwise(self, n, q, seed, ties):
        values = np.random.default_rng(seed).standard_normal(n)
        if ties:  # repeated values, and zeros of both signs
            values = np.round(values)
        assert _bits(packing._quantile(values, q)) == _bits(np.quantile(values, q))


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
        cutoff = c5 / math.sqrt(p.rho ** (packing.LAMBDA_EXP + packing.ETA_EXP) * p.d)
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

    def test_one_support_per_contested_column(self):
        p = self.params
        supports = resolve_supports(self.family.code[0], self.family.patterns)
        with pytest.raises(ValueError, match="need one support per contested column"):
            build_unitary(supports[:-1], p, np.zeros((64, p.t_lo - 1)), seed=0)


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
            patterns=fam.patterns, code=fam.code, unitaries=flipped), p)
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
        )
        report = verify_packing(doctored, p)
        assert report.min_pairwise_distance == 0.0
        assert not report.passed
        assert not report.checks["min_distance"]

    def test_an_empty_family_is_refused(self):
        p, fam = _built(32)
        with pytest.raises(ValueError, match="^empty family$"):
            verify_packing(PackingFamily(fam.patterns, [], []), p)

    def test_a_unitary_without_a_code_tuple_is_refused(self):
        # the third matrix, not even unitary, would otherwise go unexamined
        p, fam = _built(32)
        extra = PackingFamily(fam.patterns, fam.code[:2], fam.unitaries[:2] + [np.ones((32, 32))])
        with pytest.raises(ValueError, match="^2 code tuples but 3 unitaries$"):
            verify_packing(extra, p)
        with pytest.raises(ValueError, match="^3 code tuples but 2 unitaries$"):
            verify_packing(PackingFamily(fam.patterns, fam.code[:3], fam.unitaries[:2]), p)

    def test_a_code_tuple_must_cover_every_contested_column(self):
        p, fam = _built(64)
        assert p.n_contested == 4
        short = PackingFamily(fam.patterns, fam.code[:3] + [fam.code[3][:1]] + fam.code[4:],
                              fam.unitaries)
        with pytest.raises(ValueError, match="^member 3: code tuple of length 1, not n_contested = 4$"):
            verify_packing(short, p)

    @pytest.mark.parametrize("shape", [(32, 31), (31, 32), (32,)], ids=["narrow", "short", "vector"])
    def test_a_unitary_must_be_d_by_d(self, shape):
        p, fam = _built(32)
        for member in (0, 3):
            unitaries = list(fam.unitaries)
            unitaries[member] = np.zeros(shape)
            message = "member %d: unitary of shape %s, not (32, 32)" % (member, shape)
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                verify_packing(PackingFamily(fam.patterns, fam.code, unitaries), p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("member", [0, 2])
    def test_a_unitary_must_be_finite(self, value, member):
        # a NaN measure used to be passed over by max(), so that an all-NaN
        # member passed every check
        p, fam = _built(32)
        for entry in [(5, 5), (slice(None), slice(None))]:
            unitaries = list(fam.unitaries)
            unitaries[member] = unitaries[member].copy()
            unitaries[member][entry] = value
            with pytest.raises(ValueError, match="^member %d: unitary with a non-finite entry$"
                               % member):
                verify_packing(PackingFamily(fam.patterns, fam.code, unitaries), p)


@functools.lru_cache(maxsize=None)
def _built(d, **params):
    p = {32: _params32, 64: _params64}[d](**params)
    return p, build_family(p)


def _svd_mismatch(u, spectrum):
    """max |sigma_i(u diag(s)) - s_(i)|, measured by a full SVD."""
    sv = np.linalg.svd(u * spectrum, compute_uv=False)
    return float(np.max(np.abs(sv - np.sort(spectrum)[::-1])))


def _one_member(fam, p, u):
    return verify_packing(PackingFamily(patterns=fam.patterns, code=fam.code[:1],
                                        unitaries=[u]), p)


class TestSpectrumBound:
    """spectrum_mismatch is s_max ||u^T u - I||_F, a Weyl bound on how far the
    singular values of u diag(s) lie from the sorted spectrum."""

    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([32, 64]), member=st.integers(0, 3),
           log_delta=st.floats(-10.0, -4.0), seed=st.integers(0, 2**32 - 1),
           flat=st.booleans())
    def test_bounds_the_measured_mismatch(self, d, member, log_delta, seed, flat):
        p, fam = _built(d)
        rng = np.random.default_rng(seed)
        u = fam.unitaries[member] + 10.0 ** log_delta * rng.standard_normal((d, d))
        if not flat:  # graded below the floor, so the contested block stays put
            spectrum = p.noise_floor * np.sort(rng.uniform(0.01, 1.0, d))[::-1]
            spectrum[0] = p.noise_floor
            p = dataclasses.replace(p, spectrum=spectrum)
        assert _one_member(fam, p, u).spectrum_mismatch >= _svd_mismatch(u, p.spectrum)

    @seed(1)
    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([32, 64]), member=st.integers(0, 3),
           log_delta=st.floats(-10.0, -4.0), col=st.integers(0, 31))
    def test_a_scaled_column_reports_at_most_three_times_the_mismatch(
            self, d, member, log_delta, col):
        # flat spectrum s: the scaled column moves one singular value by s delta,
        # and E has the one entry 2 delta + delta^2 above rounding
        p, fam = _built(d)
        u = fam.unitaries[member].copy()
        u[:, col] *= 1.0 + 10.0 ** log_delta
        measured = _svd_mismatch(u, p.spectrum)
        reported = _one_member(fam, p, u).spectrum_mismatch
        assert measured <= reported <= 3.0 * measured

    def test_a_scaled_column_fails_at_the_oneshot_config(self):
        p = PackingParams(d=256, rho=0.0158, sigma_eps=1.0, n_samples=100,
                          k_patterns=16, s_size=8, seed=0)
        fam = build_family(p)
        assert verify_packing(fam, p).checks["spectrum_match"]
        u = fam.unitaries[3].copy()
        u[:, 100] *= 1.0 + 1e-6
        assert _svd_mismatch(u, p.spectrum) > 1e-8  # the SVD route fails it too
        assert not _one_member(fam, p, u).checks["spectrum_match"]

    def test_no_member_is_factorized(self, monkeypatch):
        p, fam = _built(64)
        shapes, real = [], np.linalg.svd

        def svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        report = verify_packing(fam, p)
        assert report.checks["spectrum_match"]
        assert (p.d, p.d) not in shapes


def _reference_measures(family, params):
    """max_off_support, max_support_overlap, max_pairwise_cost and
    min_pairwise_distance as the verifier measured them before its support
    indicator: block weights sliced from the spectrum, a boolean mask per
    column for the off-support entries, Python sets for the overlap, and
    every pair taken after all members."""
    d, lo, hi = params.d, params.t_lo - 1, params.t_hi
    block_w = np.asarray(params.spectrum[lo:hi], dtype=float) ** 2
    members = []
    off_support = 0.0
    for r, u in zip(family.code, family.unitaries):
        supp = resolve_supports(r, family.patterns)
        for c, support in enumerate(supp):
            mask = np.ones(d, dtype=bool)
            mask[support] = False
            off_support = max(off_support, float(np.max(np.abs(u[mask, lo + c]))))
        members.append((r, u, [set(support.tolist()) for support in supp]))
    max_cost, min_dist, max_overlap = 0.0, math.inf, 0
    for (ra, ua, sa), (rb, ub, sb) in itertools.combinations(members, 2):
        agree = np.array([a == b for a, b in zip(ra, rb)], dtype=bool)
        max_cost = max(max_cost, float(np.sum(block_w[agree])))
        diff = ua[:, lo:hi] - ub[:, lo:hi]
        min_dist = min(min_dist, float(np.sum(block_w * np.sum(diff ** 2, axis=0))))
        for a, b in zip(sa, sb):
            max_overlap = max(max_overlap, len(a & b))
    return off_support, max_overlap, max_cost, min_dist


def _inject(fam, p, fault, rng):
    """A copy of fam with one fault: an entry moved off its support, a member
    repeating another's codeword and unitary, or every pattern of one member
    replaced by another member's, so that the two share their supports."""
    code, unitaries, patterns = list(fam.code), list(fam.unitaries), [list(c) for c in fam.patterns]
    a, b = (int(m) for m in rng.choice(len(code), size=2, replace=False))
    if fault == "moved":
        c = int(rng.integers(p.n_contested))
        col = p.t_lo - 1 + c
        u = unitaries[a].copy()
        support = resolve_supports(code[a], patterns)[c]
        # a support entry can be exactly 0 where an earlier column's footprint
        # in the support is a single coordinate
        i = int(rng.choice(support[u[support, col] != 0.0]))
        j = int(rng.choice(np.setdiff1d(np.arange(p.d), support)))
        u[j, col], u[i, col] = u[i, col], 0.0
        unitaries[a] = u
    elif fault == "repeated":
        code[b], unitaries[b] = code[a], unitaries[a]
    elif fault == "shared":
        for c in range(p.n_contested):
            patterns[c][code[b][c]] = patterns[c][code[a][c]]
    return PackingFamily(patterns=patterns, code=code, unitaries=unitaries)


class TestVerifierReference:
    """verify_packing's support indicator and one pass over the members
    measure what the per-column masks, sets and sliced weights did."""

    @seed(1)
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([32, 64]), seed=st.sampled_from([1, 2, 3]),
           fault=st.sampled_from(["none", "moved", "repeated", "shared"]),
           pick=st.integers(0, 2**32 - 1))
    def test_equals_the_set_and_mask_reference(self, d, seed, fault, pick):
        p, fam = _built(d, seed=seed)
        fam = _inject(fam, p, fault, np.random.default_rng(pick))
        report = verify_packing(fam, p)
        off_support, overlap, cost, dist = _reference_measures(fam, p)
        assert report.max_off_support == off_support
        assert report.max_support_overlap == overlap
        assert report.max_pairwise_cost == cost
        assert report.min_pairwise_distance == dist
        if fault == "moved":
            assert off_support > 0.0
        elif fault != "none":  # a whole support shared in every column
            assert overlap == p.subset_size


class _CountingRng:
    """A Generator that counts the calls of one of its methods."""

    def __init__(self, rng, method):
        self.rng, self.method, self.draws = rng, method, 0

    def __getattr__(self, name):
        real = getattr(self.rng, name)
        if name != self.method:
            return real

        def draw(*args, **kwargs):
            self.draws += 1
            return real(*args, **kwargs)
        return draw


class TestRetryBudgets:
    def test_code_sampling_takes_the_budget_plus_one_draws(self, monkeypatch):
        # one pattern per column: every tuple after the first repeats it
        p = _params64(k_patterns=1, s_size=2)
        patterns = sample_sparsity_family(p)
        rngs, real = [], packing._rng
        monkeypatch.setattr(packing, "_rng", lambda params, *key: rngs.append(
            _CountingRng(real(params, *key), "integers")) or rngs[-1])
        with pytest.raises(PackingInfeasibleError):
            sample_code(p, patterns)
        # the first tuple's one draw, then the second's first draw and 20 retries
        assert rngs[0].draws == 1 + CODE_RETRY_BUDGET + 1 == 22

    def test_fill_takes_the_budget_of_draws_per_column(self, monkeypatch):
        p, fam = _built(64)
        c5, _ = calibrate_fill_constants(p.subset_size)
        # an accepted tail mass of -1 accepts no draw
        monkeypatch.setattr(packing, "calibrate_fill_constants", lambda size: (c5, -1.0))
        rngs, real = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rngs.append(
            _CountingRng(real(seed), "standard_normal")) or rngs[-1])
        supports = resolve_supports(fam.code[0], fam.patterns)
        with pytest.raises(FillInfeasibleError):
            build_unitary(supports, p, np.zeros((p.d, 0)), seed=0)
        assert rngs[0].draws == FILL_RETRY_BUDGET == 100


class TestFixedConstants:
    """The pass checks and the powers of rho, with the exponents written out:
    a min distance of at least 1.5 Psi, at most half the support shared, a
    cost bound rho^0.5 Psi, c8 and c9 the deficit over 2 rho^0.5, and a
    spread cutoff at rho^0.502."""

    @pytest.mark.parametrize("ratio", [0.5, 1.2, 1.45, 1.55, 1.9, 3.0])
    def test_min_distance_floor_and_measured_constants(self, ratio):
        # two members whose contested columns differ by a factor t, so that
        # their distance is (1 - t)^2 Psi
        p = _params64(seed=1)
        fam = build_family(p)
        u = fam.unitaries[0]
        v = u.copy()
        v[:, p.t_lo - 1:p.t_hi] *= 1.0 - math.sqrt(ratio)
        report = verify_packing(PackingFamily(fam.patterns, [fam.code[0]] * 2, [u, v]), p)
        psi = report.psi
        assert report.min_pairwise_distance == pytest.approx(ratio * psi, rel=1e-12)
        assert report.checks["min_distance"] == (ratio >= 1.5)
        deficit = max(0.0, 2.0 - ratio)
        for c in (report.measured_c8, report.measured_c9):
            assert c == pytest.approx(deficit / (2.0 * p.rho ** 0.5), rel=1e-9, abs=1e-12)
        assert report.cost_bound == pytest.approx(p.rho ** 0.5 * psi, rel=1e-12)

    @pytest.mark.parametrize("params, support", [(_params64(), 8), (_params32(), 7)],
                             ids=["even", "odd"])
    def test_overlap_budget_is_half_the_support(self, params, support):
        p = params
        assert p.subset_size == support == int(p.rho ** 0.501 * p.d)
        for shared in range(support + 1):
            pair = [np.arange(support), np.arange(support - shared, 2 * support - shared)]
            fam = PackingFamily(patterns=[pair] * p.n_contested,
                                code=[(0,) * p.n_contested, (1,) * p.n_contested],
                                unitaries=[np.eye(p.d)] * 2)
            report = verify_packing(fam, p)
            assert report.max_support_overlap == shared
            assert report.checks["support_overlap"] == (shared <= support // 2), shared

    def test_spread_cutoff_sits_at_rho_to_the_0_502(self, monkeypatch):
        # build_unitary's entry cutoff is c5 / sqrt(rho^0.502 d); the square
        # roots it takes, besides the noise floor's sqrt(d / n), are recorded
        p = _params64(seed=1)
        calibrate_fill_constants(p.subset_size)
        fam = build_family(p)
        roots, real = [], math.sqrt
        monkeypatch.setattr(math, "sqrt", lambda v: roots.append(v) or real(v))
        supports = resolve_supports(fam.code[0], fam.patterns)
        build_unitary(supports, p, np.zeros((p.d, 0)), seed=0)
        assert [v for v in roots if v != p.d / p.n_samples] == [
            pytest.approx(p.rho ** 0.502 * p.d, rel=1e-12)]


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
