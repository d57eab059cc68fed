import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrr import baselines, cli
from arrr.baselines import BaselineSpec, validate_hyperparams
from arrr.estimator import FitConfig
from arrr.metrics import (
    MetricsReport,
    aggregate,
    evaluate,
    lowest,
    merge_splits,
    pooled_scores,
    recovered_rank_of,
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
        m = np.diag([3.0, 2.0, 1e-12])
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


class TestAggregate:
    def test_mean_of_single_is_itself(self):
        rep = MetricsReport(mse_in=0.5, mse_out=0.7, r2_in=0.4, r2_out=0.2,
                            corr_out=0.3, recon_error=1.1, recovered_rank=4.0,
                            gap_out_in=0.2)
        agg = aggregate([rep], "mean")
        assert agg == rep

    def test_hand_arithmetic_mean_and_sample_std(self):
        r1 = MetricsReport(mse_out=1.0)
        r3 = MetricsReport(mse_out=3.0)
        assert aggregate([r1, r3], "mean").mse_out == pytest.approx(2.0)
        assert aggregate([r1, r3], "std").mse_out == pytest.approx(math.sqrt(2.0))

    def test_identical_reports_std_zero(self):
        rep = MetricsReport(mse_in=0.5, mse_out=0.7, r2_in=0.4, r2_out=0.2,
                            corr_out=0.3, recovered_rank=4.0, gap_out_in=0.2)
        agg = aggregate([rep, rep, rep], "std")
        assert agg.mse_out == 0.0
        assert agg.recovered_rank == 0.0
        std_mean = aggregate([rep, rep, rep], "mean")
        assert std_mean.mse_out == rep.mse_out

    def test_single_report_std_is_zero(self):
        assert aggregate([MetricsReport(mse_out=0.9)], "std").mse_out == 0.0

    def test_recon_error_aggregates_only_when_all_present(self):
        with_err = MetricsReport(mse_out=1.0, recon_error=0.5)
        without = MetricsReport(mse_out=2.0)
        assert aggregate([with_err, without], "mean").recon_error is None
        assert aggregate([with_err, with_err], "mean").recon_error == 0.5

    def test_errors(self):
        with pytest.raises(ValueError):
            aggregate([], "mean")
        with pytest.raises(ValueError):
            aggregate([MetricsReport()], "median")


class TestPooledScores:
    def test_matches_evaluate_out_split(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(30, 5)), rng.normal(size=(30, 3))
        m = rng.normal(size=(3, 5))
        rep = evaluate(m, x, y, split_label="out")
        assert pooled_scores(y, x @ m.T) == (rep.mse_out, rep.r2_out, rep.corr_out)

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

    @settings(max_examples=300, deadline=None, derandomize=True)
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
        monkeypatch.setattr(baselines, "pooled_scores",
                            lambda y, y_hat: (next(in_order), 0.0, 0.0))
        assert validate_hyperparams(grid, window, window).method == grid[want]

        # one estimator candidate per score, scored by its theta; each has its
        # own k2, since a repeated (k1, k2) is one model and is scored once
        thetas = [1.0 + i for i in range(len(scores))]
        by_theta = dict(zip(thetas, scores))
        monkeypatch.setattr(cli, "_scores",
                            lambda model, x, y: (by_theta[model.config.theta], 0.0, 0.0))
        candidates = [FitConfig(delta=1e-3, theta=t, sigma_eps=1.0, k1_override=5,
                                k2_override=i) for i, t in enumerate(thetas)]
        ((method, model, *_),) = cli._fit_select_score(window, window, window,
                                                       candidates, {}, "test")
        assert method == "adaptive_rrr" and model.config.theta == thetas[want]
