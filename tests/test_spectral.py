import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from arrr.spectral import (
    ORTHONORMALITY_TOL,
    angle_matrix,
    decompose,
    find_gap_tail_index,
    numerical_rank,
    select_gap_rank,
    select_threshold_rank,
    truncate_rank,
)


class TestDecompose:
    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5), (8, 8), (1, 4)])
    def test_reconstruction_and_orthonormality(self, shape):
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=shape)
            dec = decompose(a)
            np.testing.assert_allclose(dec.truncated(dec.s.size), a, rtol=0, atol=1e-8 * np.linalg.norm(a))
            assert dec.orthonormality_residual() <= ORTHONORMALITY_TOL
            assert np.all(np.diff(dec.s) <= 0)
            assert np.all(dec.s >= 0)

    def test_sign_convention(self):
        # the largest-magnitude entry of every left singular vector is positive
        for seed in range(10):
            a = np.random.default_rng(100 + seed).normal(size=(6, 4))
            dec = decompose(a)
            for j in range(dec.u.shape[1]):
                i = np.argmax(np.abs(dec.u[:, j]))
                assert dec.u[i, j] > 0

    def test_deterministic(self):
        a = np.random.default_rng(3).normal(size=(7, 5))
        d1, d2 = decompose(a), decompose(a.copy())
        np.testing.assert_array_equal(d1.u, d2.u)
        np.testing.assert_array_equal(d1.s, d2.s)
        np.testing.assert_array_equal(d1.v, d2.v)

    def test_sign_flip_of_input_flips_v_not_u(self):
        a = np.random.default_rng(4).normal(size=(5, 5))
        d1, d2 = decompose(a), decompose(-a)
        np.testing.assert_allclose(d1.u, d2.u, atol=1e-12)
        np.testing.assert_allclose(d1.v, -d2.v, atol=1e-12)

    @staticmethod
    def _loop_signs(a):
        # the per-column sign fix, one column at a time
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        v = vt.T
        for j in range(u.shape[1]):
            i = int(np.argmax(np.abs(u[:, j])))
            if u[i, j] < 0:
                u[:, j] = -u[:, j]
                v[:, j] = -v[:, j]
        return u, s, v

    @pytest.mark.parametrize("shape", [(60, 30), (100, 150), (7, 7), (1, 4), (4, 1)])
    def test_sign_fix_matches_column_loop(self, shape):
        for seed in range(3):
            a = np.random.default_rng(200 + seed).normal(size=shape)
            dec = decompose(a)
            u, s, v = self._loop_signs(a)
            np.testing.assert_array_equal(dec.u, u)
            np.testing.assert_array_equal(dec.s, s)
            np.testing.assert_array_equal(dec.v, v)

    @pytest.mark.parametrize("a", [
        np.eye(4),                                   # every column ties at 1
        np.diag([3.0, -2.0, 1.0]),                  # negative diagonal entry
        np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]),  # tied max-abs entries
        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),    # zero column
        np.zeros((3, 2)),                            # all-zero matrix
        np.zeros((0, 3)),                            # no rows
        np.zeros((3, 0)),                            # no columns
    ])
    def test_sign_fix_matches_column_loop_on_ties_and_zeros(self, a):
        dec = decompose(a)
        u, s, v = self._loop_signs(a)
        np.testing.assert_array_equal(dec.u, u)
        np.testing.assert_array_equal(dec.s, s)
        np.testing.assert_array_equal(dec.v, v)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            decompose(np.zeros(3))
        with pytest.raises(ValueError):
            decompose(np.zeros((2, 2, 2)))


class TestTruncateRank:
    def test_diagonal_example(self):
        np.testing.assert_allclose(truncate_rank(np.diag([3.0, 2.0]), 1),
                                   np.diag([3.0, 0.0]), atol=1e-12)

    def test_rank_zero_is_zero_matrix(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(truncate_rank(a, 0), np.zeros((2, 3)))

    def test_full_rank_returns_input(self):
        a = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_allclose(truncate_rank(a, 4), a, atol=1e-8)

    def test_out_of_range(self):
        a = np.zeros((3, 2))
        with pytest.raises(ValueError):
            truncate_rank(a, -1)
        with pytest.raises(ValueError):
            truncate_rank(a, 3)

    def test_best_rank_two_against_svd_recomposition_oracle(self):
        # oracle: rebuild from the full SVD keeping exactly the top 2 triples
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        u, s, vt = np.linalg.svd(a)
        oracle = s[0] * np.outer(u[:, 0], vt[0]) + s[1] * np.outer(u[:, 1], vt[1])
        np.testing.assert_allclose(truncate_rank(a, 2), oracle, atol=1e-10)

    def test_result_rank_bounded(self):
        a = np.random.default_rng(11).normal(size=(6, 5))
        for r in range(6):
            s = np.linalg.svd(truncate_rank(a, r), compute_uv=False)
            assert np.count_nonzero(s > 1e-10) <= r

    def test_residual_equals_tail_singular_mass(self):
        a = np.random.default_rng(13).normal(size=(7, 4))
        s = np.linalg.svd(a, compute_uv=False)
        for r in range(1, 4):
            resid = np.linalg.norm(a - truncate_rank(a, r)) ** 2
            np.testing.assert_allclose(resid, np.sum(s[r:] ** 2), rtol=1e-8)


class TestNumericalRank:
    # numpy's matrix_rank uses lstsq's cutoff as its default tolerance
    @pytest.mark.parametrize("n, d, rank", [(12, 5, 5), (6, 9, 2), (9, 6, 1), (8, 8, 0)])
    def test_matches_numpy_matrix_rank(self, n, d, rank):
        rng = np.random.default_rng(n * d)
        a = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
        got = numerical_rank(np.linalg.svd(a, compute_uv=False), a.shape)
        assert got == np.linalg.matrix_rank(a) == rank

    # 5 eps lies between the cutoffs eps * 4 and eps * 10 of s_1 = 1
    @pytest.mark.parametrize("shape, rank", [((4, 3), 2), ((3, 10), 1)])
    def test_cutoff_scales_with_the_larger_dimension(self, shape, rank):
        s = np.array([1.0, 5 * np.finfo(float).eps, 0.0])
        assert numerical_rank(s, shape) == rank

    def test_empty_spectrum_has_rank_zero(self):
        assert numerical_rank(np.zeros(0), (5, 0)) == 0


class TestSelectGapRank:
    def test_hand_computed_example(self):
        assert select_gap_rank([0.5, 0.3, 0.1, 0.05, 0.03], 0.15) == 2

    def test_trailing_gap_against_implicit_zero(self):
        assert select_gap_rank([0.5, 0.5, 0.5], 0.1) == 3

    def test_no_gap_returns_none(self):
        assert select_gap_rank([1e-9, 1e-9], 0.5) is None

    def test_largest_qualifying_index_wins(self):
        # gaps are 0.5 and 0.4; both qualify at delta=0.3
        assert select_gap_rank([1.0, 0.5, 0.1], 0.3) == 2

    def test_monotone_in_delta(self):
        lam = [0.6, 0.3, 0.15, 0.1, 0.02]
        prev = len(lam) + 1
        for delta in (0.01, 0.05, 0.1, 0.2, 0.35):
            k = select_gap_rank(lam, delta)
            if k is not None:
                assert k <= prev
                prev = k

    @staticmethod
    def _loop(lambdas, delta):
        """The rule as a loop from the last index, the reference."""
        padded = np.append(np.asarray(lambdas, dtype=float), 0.0)
        for k in range(padded.size - 1, 0, -1):
            if padded[k - 1] - padded[k] >= delta:
                return k
        return None

    # quarters, so that many gaps equal delta exactly
    @seed(1)
    @settings(max_examples=300, deadline=None)
    @given(lam=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]) | st.floats(0.0, 3.0),
                        min_size=1, max_size=10),
           delta=st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-12, 3.0))
    @example(lam=[0.5], delta=0.5)
    @example(lam=[0.0], delta=0.25)
    @example(lam=[0.0, 0.0, 0.0], delta=0.25)
    @example(lam=[1.0, 0.75, 0.5, 0.0], delta=0.25)
    def test_matches_the_loop(self, lam, delta):
        lam = sorted(lam, reverse=True)
        assert select_gap_rank(lam, delta) == self._loop(lam, delta)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            select_gap_rank([], 0.1)
        with pytest.raises(ValueError):
            select_gap_rank([0.5], 0.0)


class TestSelectThresholdRank:
    @pytest.mark.parametrize("tau,expected", [(2.0, 2), (10.0, 0), (0.5, 3)])
    def test_examples(self, tau, expected):
        assert select_threshold_rank([5.0, 3.0, 1.0], tau) == expected

    def test_empty_gives_zero(self):
        assert select_threshold_rank([], 1.0) == 0

    def test_non_increasing_in_tau(self):
        sig = np.sort(np.random.default_rng(5).uniform(0, 10, size=20))[::-1]
        taus = np.linspace(0.1, 12, 30)
        counts = [select_threshold_rank(sig, t) for t in taus]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            select_threshold_rank([1.0], 0.0)


def _power_law(d, omega):
    lam = np.arange(1, d + 1, dtype=float) ** (-omega)
    return lam / lam.sum()


class TestFindGapTailIndex:
    def test_single_dominant_gap(self):
        lam = np.array([0.9 - 1e-6, 0.1, 1e-6])
        i, gap, tail = find_gap_tail_index(lam, ell=1, tau_param=0.5)
        assert i == 1
        np.testing.assert_allclose(gap, lam[0] - lam[1])
        np.testing.assert_allclose(tail, 1.0)

    def test_hand_example(self):
        # budget 0.5 at ell=2, tau=1; tails from each index: 1.0, 0.4, 0.1, 0.04
        lam = np.array([0.6, 0.3, 0.06, 0.04])
        i, gap, tail = find_gap_tail_index(lam, ell=2, tau_param=1.0)
        assert i == 2
        np.testing.assert_allclose(gap, 0.24)
        np.testing.assert_allclose(tail, 0.4)

    def test_power_law_scan_matches_bruteforce(self):
        lam = _power_law(500, 2.0)
        i, gap, tail = find_gap_tail_index(lam, ell=50, tau_param=0.9)
        budget = 50.0 ** -0.9
        assert tail <= budget
        # brute force over every feasible index
        tails = np.cumsum(lam[::-1])[::-1]
        gaps = lam - np.append(lam[1:], 0.0)
        feas = np.nonzero(tails <= budget)[0]
        assert gap == pytest.approx(np.max(gaps[feas]))
        assert i - 1 == feas[np.argmax(gaps[feas])]

    def test_tail_budget_respected_and_maximal_gap(self):
        for omega in (2.0, 2.5, 3.0):
            lam = _power_law(300, omega)
            i, gap, tail = find_gap_tail_index(lam, ell=20, tau_param=0.8)
            assert tail <= 20.0 ** -0.8 + 1e-15
            assert gap > 0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            find_gap_tail_index(np.array([0.5, 0.2]), ell=10, tau_param=0.5)

    def test_rejects_dominant_leading_eigenvalue(self):
        with pytest.raises(ValueError):
            find_gap_tail_index(np.array([1.0, 0.0]), ell=10, tau_param=0.5)

    def test_infeasible_budget(self):
        lam = _power_law(10, 2.0)
        with pytest.raises(ValueError):
            find_gap_tail_index(lam, ell=10 ** 9, tau_param=3.0)


class TestAngleMatrix:
    def test_identity(self):
        v = np.eye(4)
        np.testing.assert_allclose(angle_matrix(v, v), np.eye(4), atol=1e-12)

    def test_permutation(self):
        v = np.eye(4)
        p = v[:, [2, 0, 3, 1]]
        a = angle_matrix(v, p)
        np.testing.assert_allclose(np.sort(a.ravel())[::-1][:4], np.ones(4))
        assert a.sum() == pytest.approx(4.0)

    def test_rotation_cosines(self):
        th = 0.3
        v2 = np.array([[np.cos(th)], [np.sin(th)]])
        a = angle_matrix(np.eye(2), v2)
        np.testing.assert_allclose(a, [[np.cos(th)], [np.sin(th)]], atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(2)
        q1, _ = np.linalg.qr(rng.normal(size=(10, 4)))
        q2, _ = np.linalg.qr(rng.normal(size=(10, 6)))
        a = angle_matrix(q1, q2)
        assert np.all(a >= 0) and np.all(a <= 1)
        # full-space spans keep row/column norms at most 1
        q_full1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        q_full2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        af = angle_matrix(q_full1, q_full2)
        assert np.all(np.linalg.norm(af, axis=0) <= 1 + 1e-10)
        assert np.all(np.linalg.norm(af, axis=1) <= 1 + 1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            angle_matrix(np.eye(3), np.eye(4))
