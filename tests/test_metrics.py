import math
import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from arrr import baselines, cli
from arrr.baselines import BaselineSpec, validate_hyperparams, validation_window
from arrr.estimator import FitConfig, fit_path, rank_path_scores
from arrr.metrics import (
    evaluate,
    lowest,
    merge_splits,
    pooled_scores,
    recovered_rank_of,
    validation_mse,
)
from arrr.synth import SynthConfig, make_instance


class _Bare:
    def __init__(self, m_hat):
        self.m_hat = m_hat


class TestEvaluate:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        m = rng.normal(size=(3, 4))
        y = x @ m.T
        rep = evaluate(_Bare(m), x, y, split_label="out")
        assert rep.mse_out == 0.0
        assert rep.r2_out == pytest.approx(1.0)
        assert rep.corr_out == pytest.approx(1.0)

    def test_zero_model_on_zero_mean_response(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=(50, 4))
        y -= np.mean(y)
        rep = evaluate(np.zeros((4, 3)), x, y, split_label="out")
        assert abs(rep.mse_out - 1.0) <= 1e-9
        assert abs(rep.r2_out) <= 1e-9

    def test_recon_error_of_constructed_perturbation(self):
        inst = make_instance(SynthConfig(d1=8, d2=5, n=20, rank_m=2, eta=0.1, seed=2))
        u = np.zeros((5, 1))
        u[0, 0] = 1.0
        v = np.zeros((1, 8))
        v[0, 0] = 1.0
        m_hat = inst.m + 0.1 * (u @ v)
        rep = evaluate(_Bare(m_hat), inst.x, inst.y, m_true=inst.m)
        assert abs(rep.recon_error - 0.1) <= 1e-10

    def test_in_split_fills_in_fields_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 3))
        rep = evaluate(np.zeros((3, 2)), x, y, split_label="in")
        assert not math.isnan(rep.mse_in)
        assert math.isnan(rep.mse_out)
        assert math.isnan(rep.corr_out)

    def test_constant_response_flagged(self):
        x = np.random.default_rng(4).normal(size=(8, 2))
        rep = evaluate(np.zeros((2, 2)), x, np.full((8, 2), 3.0))
        assert rep.degenerate
        assert math.isnan(rep.mse_out)

    def test_zero_model_never_beats_ols_in_sample_r2(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 5))
            y = rng.normal(size=(40, 3))
            ols = (np.linalg.lstsq(x, y, rcond=None)[0]).T
            r2_ols = evaluate(_Bare(ols), x, y, split_label="in").r2_in
            r2_zero = evaluate(np.zeros((3, 5)), x, y, split_label="in").r2_in
            assert r2_ols >= r2_zero

    def test_corr_bounded(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=(25, 2))
        rep = evaluate(rng.normal(size=(2, 3)), x, y)
        assert -1.0 <= rep.corr_out <= 1.0

    def test_bad_split_label(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2)),
                     split_label="validation")


class TestRecoveredRank:
    def test_two_large_one_negligible(self):
        # 1e-7 and 1e-9 of the largest sit either side of the 1e-8 cutoff
        for m in (np.diag([3.0, 2.0, 1e-12]), np.diag([1.0, 1e-7, 1e-9])):
            assert recovered_rank_of(m) == 2

    def test_zero_matrix(self):
        assert recovered_rank_of(np.zeros((4, 3))) == 0

    def test_full_rank(self):
        m = np.random.default_rng(6).normal(size=(5, 7))
        assert recovered_rank_of(m) == 5


class TestMergeSplits:
    def test_gap_is_out_minus_in(self):
        rng = np.random.default_rng(7)
        x_tr = rng.normal(size=(30, 4))
        y_tr = rng.normal(size=(30, 3))
        x_te = rng.normal(size=(20, 4))
        y_te = rng.normal(size=(20, 3))
        m = rng.normal(size=(3, 4))
        rep_in = evaluate(_Bare(m), x_tr, y_tr, split_label="in")
        rep_out = evaluate(_Bare(m), x_te, y_te, split_label="out")
        merged = merge_splits(rep_in, rep_out)
        assert merged.gap_out_in == rep_out.mse_out - rep_in.mse_in
        # swapping which split carries which label negates the gap
        swapped = merge_splits(
            evaluate(_Bare(m), x_te, y_te, split_label="in"),
            evaluate(_Bare(m), x_tr, y_tr, split_label="out"),
        )
        assert swapped.gap_out_in == pytest.approx(-merged.gap_out_in)


class TestPooledScores:
    def test_matches_evaluate_out_split(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(30, 5)), rng.normal(size=(30, 3))
        m = rng.normal(size=(3, 5))
        rep = evaluate(m, x, y, split_label="out")
        assert pooled_scores(y, x @ m.T) == (rep.mse_out, rep.r2_out, rep.corr_out)

    # a broadcast would score 8 x 8 entries, and a reshape fail on its size
    @pytest.mark.parametrize("y_shape, hat_shape", [((8, 1), (1, 8)), ((8, 1), (8, 3))],
                             ids=["transposed", "wider"])
    def test_shapes_that_differ_are_refused(self, y_shape, hat_shape):
        y, y_hat = np.arange(8.0).reshape(y_shape), np.ones(hat_shape)
        with pytest.raises(ValueError, match=re.escape(
                "y and y_hat must have one shape, got %s and %s" % (y_shape, hat_shape))):
            pooled_scores(y, y_hat)

    def test_undefined_scores_are_nan(self):
        y = np.full((6, 2), 1.5)
        mse, r2, corr = pooled_scores(y, np.zeros((6, 2)))
        assert math.isnan(mse) and math.isnan(r2) and math.isnan(corr)

    # the mean of 60 copies of these rounds, so their computed variance is a
    # residue of round-off, not 0
    @pytest.mark.parametrize("value", [0.01, 0.02, 1 / 3])
    def test_constant_response_that_centers_to_round_off_is_undefined(self, value):
        y = np.full((10, 6), value)
        assert np.var(y) > 0.0
        y_hat = y + 0.1 * np.random.default_rng(0).normal(size=y.shape)
        mse, r2, corr = pooled_scores(y, y_hat)
        assert math.isnan(mse) and math.isnan(r2) and math.isnan(corr)

    @pytest.mark.parametrize("value", [0.01, 0.02, 1 / 3])
    def test_constant_prediction_that_centers_to_round_off_has_no_correlation(self, value):
        y = np.random.default_rng(1).normal(size=(10, 6))
        assert np.var(np.full((10, 6), value)) > 0.0
        _, _, corr = pooled_scores(y, np.full((10, 6), value))
        assert math.isnan(corr)

    @staticmethod
    def _reference(y, y_hat):
        """The textbook formula: two passes per quantity, np.corrcoef. An
        array is constant when its max equals its min, as pooled_scores
        promises, or when its computed variance is 0."""
        resid = y - y_hat
        y_constant = y.max() == y.min()
        var_y = float(np.var(y))
        mse = math.nan if y_constant or var_y == 0.0 else float(np.mean(resid ** 2)) / var_y
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = (math.nan if y_constant or ss_tot == 0.0
              else 1.0 - float(np.sum(resid ** 2)) / ss_tot)
        corr = math.nan
        if (not y_constant and y_hat.max() > y_hat.min()
                and np.std(y_hat) > 0 and np.std(y) > 0):
            corr = float(np.corrcoef(y_hat.ravel(), y.ravel())[0, 1])
        return mse, r2, corr

    def test_y_hat_variance_that_underflows_is_zero(self):
        # one entry of 2**-537 squares to the smallest subnormal, and the sum
        # of squares over 4 entries divided by 4 rounds to 0: np.std(y_hat) is
        # 0, so the correlation is undefined
        y = np.arange(4.0).reshape(1, 4)
        y_hat = np.array([[0.0, 0.0, 0.0, 2.0 ** -537]])
        want = self._reference(y, y_hat)
        assert math.isnan(want[2])
        assert np.array(pooled_scores(y, y_hat)).tobytes() == np.array(want).tobytes()

    @seed(1)
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           y_exp=st.floats(-160, 150), hat_exp=st.floats(-3, 3),
           kind=st.sampled_from(["noisy", "constant y", "constant y_hat", "zero y_hat"]))
    def test_one_pass_equals_the_reference_bitwise(self, n, d, seed, y_exp, hat_exp, kind):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** y_exp
        y = (rng.normal(size=(n, d)) + rng.normal()) * scale
        y_hat = rng.uniform(0, 1.2) * y + rng.normal(size=(n, d)) * scale * 10.0 ** hat_exp
        if kind == "constant y":
            y = np.full((n, d), rng.normal() * scale)
        elif kind == "constant y_hat":
            y_hat = np.full((n, d), rng.normal() * scale)
        elif kind == "zero y_hat":
            y_hat = np.zeros((n, d))
        with np.errstate(all="ignore"):  # squares of tiny entries underflow
            want = self._reference(y, y_hat)
            got = pooled_scores(y, y_hat)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestValidationMse:
    @seed(1)
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           y_exp=st.floats(-160, 150), hat_exp=st.floats(-3, 3),
           kind=st.sampled_from(["noisy", "constant y", "rounding mean", "zero y_hat"]),
           fortran=st.booleans())
    @example(n=10, d=6, seed=0, y_exp=0.0, hat_exp=-1.0, kind="rounding mean", fortran=False)
    def test_equals_pooled_scores_mse_bitwise(self, n, d, seed, y_exp, hat_exp, kind, fortran):
        # one scorer of y, called on two predictions, each scored as
        # pooled_scores scores it; a constant y whose computed mean rounds
        # (the mean of many copies of 0.01, 0.02 or 1/3) leaves a centered
        # residue, not 0, and must read NaN all the same
        rng = np.random.default_rng(seed)
        scale = 10.0 ** y_exp
        y = (rng.normal(size=(n, d)) + rng.normal()) * scale
        if kind == "constant y":
            y = np.full((n, d), rng.normal() * scale)
        elif kind == "rounding mean":
            y = np.full((n, d), (0.01, 0.02, 1 / 3)[seed % 3] * scale)
        if fortran:
            y = np.asfortranarray(y)
        y_hats = [rng.uniform(0, 1.2) * y + rng.normal(size=(n, d)) * scale * 10.0 ** hat_exp
                  for _ in range(2)]
        if kind == "zero y_hat":
            y_hats[0] = np.zeros((n, d))
        with np.errstate(all="ignore"):  # squares of tiny entries underflow
            score = validation_mse(y)
            for y_hat in y_hats:
                want = pooled_scores(y, y_hat)[0]
                assert np.float64(score(y_hat)).tobytes() == np.float64(want).tobytes()
                if kind in ("constant y", "rounding mean"):
                    assert math.isnan(want)


def _scored_path(data, pairs):
    """fit_path's models and rank_path_scores' scores of each (k1, k2) pair on
    data = (x, y, x_new, y_new, m)."""
    x, y, x_new, y_new, m = data
    configs = [FitConfig(sigma_eps=1.0, k1_override=k1, k2_override=k2) for k1, k2 in pairs]
    return (list(fit_path(x, y, configs)),
            list(rank_path_scores(x, y, configs, x_new, y_new, m)))


def _rank_data(seed, n, d1, d2, n_new, offset, eta=0.5):
    """A rank-2 coefficient matrix m, training rows (x, y) and new rows (x_new,
    y_new), the new rows shifted by `offset` in x and by 2 * offset in y."""
    rng = np.random.default_rng(seed)
    scale = np.geomspace(3.0, 0.1, d1)
    m = rng.normal(size=(d2, 2)) @ rng.normal(size=(2, d1))
    x, x_new = rng.normal(size=(n, d1)) * scale, rng.normal(size=(n_new, d1)) * scale + offset
    return (x, x @ m.T + eta * rng.normal(size=(n, d2)), x_new,
            x_new @ m.T + eta * rng.normal(size=(n_new, d2)) + 2 * offset, m)


class TestRankPathScores:
    @seed(1)
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(4, 20), d1=st.integers(2, 12),
           d2=st.integers(1, 8), n_new=st.integers(2, 25), offset=st.sampled_from([0.0, 3.0]),
           k1s=st.lists(st.floats(0, 1), min_size=1, max_size=3))
    # k1 < d2, so the residual terms are not 0, then k1 > d2; new rows with
    # an offset, fewer and more than the training rows
    @example(seed=1, n=12, d1=9, d2=6, n_new=7, offset=3.0, k1s=[0.3, 1.0])
    @example(seed=2, n=15, d1=10, d2=3, n_new=20, offset=3.0, k1s=[1.0, 0.1])
    def test_equal_to_the_scores_of_the_formed_model(self, seed, n, d1, d2, n_new, offset,
                                                     k1s):
        # every k2 of each k1 from 0 to r = min(d2, k1): recon_error and
        # mse within 1e-12 relative of the formed model's, r2 and corr within
        # 1e-12 relative or absolute (both read about 0 at k2 = 0), NaN
        # equal to NaN
        k1s = [1 + round(f * (min(n, d1) - 1)) for f in k1s]
        pairs = [(k1, k2) for k1 in k1s for k2 in range(min(d2, k1) + 1)]
        data = _rank_data(seed, n, d1, d2, n_new, offset)
        models, got = _scored_path(data, pairs)
        assert len(got) == len(pairs)
        for (_, k2), model, (recon, mse, r2, corr) in zip(pairs, models, got):
            want_mse, want_r2, want_corr = pooled_scores(data[3], data[2] @ model.m_hat.T)
            np.testing.assert_allclose([recon, mse],
                                       [np.linalg.norm(data[4] - model.m_hat), want_mse],
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose([r2, corr], [want_r2, want_corr], rtol=1e-12,
                                       atol=1e-12, equal_nan=True)
            assert math.isnan(corr) == (k2 == 0)

    @pytest.mark.parametrize("k2", [2, 4, 6])
    def test_a_noiseless_fit_keeps_its_round_off_error(self, k2):
        # y = x m^T exactly, k1 = d1 and k2 >= rank m = 2: the fit is exact, so
        # its error is round-off, not the cancellation of two squared norms
        # near ||m||^2
        inst = make_instance(SynthConfig(d1=10, d2=6, n=40, rank_m=2, eta=0.0, seed=5))
        x_new = inst.x[:7] + 1.0
        data = (inst.x, inst.y, x_new, x_new @ inst.m.T, inst.m)
        _, ((recon, *_),) = _scored_path(data, [(10, k2)])
        assert recon <= 1e-12 * np.linalg.norm(inst.m)

    def test_y_and_m_true_must_match_the_factors(self):
        x, y, x_new, y_new, m = _rank_data(0, 12, 6, 4, 5, 0.0)
        config = FitConfig(sigma_eps=1.0, k1_override=3, k2_override=1)
        for want, args in (("y must be 5 x 4", (y_new[:4], m)),
                           ("y must be 5 x 4", (y_new[:, :3], m)),
                           ("y must be 5 x 4", (y_new[:0], m)),
                           ("m_true must be d2 x d1 = 4 x 6", (y_new, m[:, :5]))):
            with pytest.raises(ValueError, match=want):
                list(rank_path_scores(x, y, [config], x_new, *args))


def _lowest_index(scores):
    return lowest(zip(scores, range(len(scores))))


class TestLowest:
    def test_ties_go_to_the_first(self):
        assert _lowest_index([0.5, 0.2, 0.7, 0.2]) == 1

    def test_leading_nan_loses(self):
        assert _lowest_index([math.nan, 0.9, 0.3]) == 2
        assert _lowest_index([math.nan, 0.9]) == 1

    def test_nan_after_the_lowest_changes_nothing(self):
        assert _lowest_index([0.4, math.nan, 0.6]) == 0

    @pytest.mark.parametrize("scores", [[], [math.nan], [math.nan, math.nan, math.nan]])
    def test_no_defined_score_gives_none(self, scores):
        assert _lowest_index(scores) is None

    def test_takes_pairs_from_a_generator(self):
        assert lowest((s, s) for s in (3.0, 1.0, 2.0)) == 1.0

    def test_validation_and_estimator_pick_the_same_index(self, monkeypatch):
        scores = [math.nan, 0.4, 0.2, 0.2, 0.3]
        want = _lowest_index(scores)
        assert want == 2
        rng = np.random.default_rng(0)
        window = (rng.normal(size=(30, 6)), rng.normal(size=(30, 5)))

        # one ridge spec per score, scored in grid order
        grid = [BaselineSpec("ridge", mu=float(i + 1)) for i in range(len(scores))]
        in_order = iter(scores)
        monkeypatch.setattr(baselines, "validation_mse", lambda y: lambda y_hat: next(in_order))
        assert validate_hyperparams(grid, validation_window(window, window)).method == grid[want]

        # one estimator candidate per score, scored by the rank of its
        # predictions, its k2; each has its own k2, since a repeated (k1, k2)
        # is one model and is scored once
        thetas = [1.0 + i for i in range(len(scores))]
        monkeypatch.setattr(baselines, "validation_mse", lambda y: lambda y_hat: (
            scores[np.linalg.matrix_rank(y_hat)]))
        candidates = [FitConfig(delta=1e-3, theta=t, sigma_eps=1.0, k1_override=5,
                                k2_override=i) for i, t in enumerate(thetas)]
        ((method, model, *_),) = cli._fit_select_score(window, window, window,
                                                       candidates, {}, "test")
        assert method == "adaptive_rrr" and model.config.theta == thetas[want]
