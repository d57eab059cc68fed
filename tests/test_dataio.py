import csv
import io

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from arrr.dataio import (
    DataFormatError,
    ReturnPanel,
    load_panel_csv,
    make_features,
    rolling_splits,
)


def _write(tmp_path, text, name="panel.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _toy_panel(returns):
    r = np.asarray(returns, dtype=float).reshape(-1, 1)
    dates = ["2020-01-%02d" % (i + 1) for i in range(r.shape[0])]
    return ReturnPanel(dates=dates, assets=["A"], values=r)


class TestLoadPanel:
    def test_well_formed_two_by_two(self, tmp_path):
        path = _write(tmp_path, "date,AAA,BBB\n2020-01-01,0.1,-0.2\n2020-01-02,0.3,0.4\n")
        panel = load_panel_csv(path)
        assert panel.dates == ["2020-01-01", "2020-01-02"]
        assert panel.assets == ["AAA", "BBB"]
        np.testing.assert_array_equal(panel.values, [[0.1, -0.2], [0.3, 0.4]])
        assert not np.isnan(panel.values).any()

    def test_out_of_order_dates_name_the_row(self, tmp_path):
        path = _write(tmp_path, "date,A\n2020-01-05,0.1\n2020-01-02,0.2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_panel_csv(path)

    def test_duplicate_dates_name_the_row(self, tmp_path):
        path = _write(tmp_path, "date,A\n2020-01-01,0.1\n2020-01-01,0.2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_panel_csv(path)

    def test_ragged_row_names_the_row(self, tmp_path):
        path = _write(tmp_path, "date,A,B\n2020-01-01,0.1,0.2\n2020-01-02,0.3\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_panel_csv(path)

    def test_blank_rows_are_skipped_and_still_counted(self, tmp_path):
        panel = load_panel_csv(_write(tmp_path, "date,A\n2020-01-01,0.1\n\n2020-01-02,0.2\n"))
        assert panel.dates == ["2020-01-01", "2020-01-02"]
        np.testing.assert_array_equal(panel.values, [[0.1], [0.2]])
        path = _write(tmp_path, "date,A\n2020-01-01,0.1\n\n2020-01-01,0.2\n", "dup.csv")
        with pytest.raises(DataFormatError, match="line 4"):
            load_panel_csv(path)

    def test_empty_cell_flagged_missing_rest_intact(self, tmp_path):
        path = _write(tmp_path, "date,A,B\n2020-01-01,,0.2\n2020-01-02,0.3,0.4\n")
        panel = load_panel_csv(path)
        assert np.isnan(panel.values[0, 0])
        assert not np.isnan(panel.values[0, 1])
        assert panel.values[0, 1] == 0.2

    def test_unparseable_cell_flagged(self, tmp_path):
        path = _write(tmp_path, "date,A\n2020-01-01,n/a\n2020-01-02,0.5\n")
        panel = load_panel_csv(path)
        assert np.isnan(panel.values[0, 0])
        assert panel.values[1, 0] == 0.5

    def test_matches_a_per_cell_reference(self, tmp_path):
        # a bad cell first in one row and last in another; the other rows parse whole
        text = ("date,A,B,C\n"
                "2020-01-01,abc,0.5,1e-3\n"
                "2020-01-02, 0.5 ,nan,inf\n"
                "2020-01-03,1e-3,-inf,\n"
                "2020-01-04,,abc, 0.5 \n"
                "2020-01-05,0.25,1e-3,nan\n")
        want = []
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            cells = []
            for cell in row[1:]:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(float("nan"))
            want.append(cells)
        values = load_panel_csv(_write(tmp_path, text)).values
        np.testing.assert_array_equal(np.isnan(values), np.isnan(want))
        np.testing.assert_array_equal(values, want)
        assert np.isnan(values[:, 0]).tolist() == [True, False, False, True, False]
        assert np.isnan(values[:, 2]).tolist() == [False, False, True, False, True]

    @pytest.mark.parametrize("line, message", [
        ("2020-01-03,0.1", "line 4: expected 3 cells, got 2"),
        ("2020-01-02,0.1,0.2", "line 4: duplicate date '2020-01-02'"),
        ("2020-01-01,0.1,abc", "line 4: dates not increasing at '2020-01-01'"),
    ], ids=["ragged", "duplicate", "decreasing"])
    def test_bad_lines_after_bad_cells_name_the_line(self, tmp_path, line, message):
        path = _write(tmp_path, "date,A,B\n2020-01-01,abc,0.1\n2020-01-02,0.2,\n%s\n" % line)
        with pytest.raises(DataFormatError) as err:
            load_panel_csv(path)
        assert str(err.value) == "%s: %s" % (path, message)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "timestamp,A\n2020-01-01,0.1\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_panel_csv(path)


class TestMakeFeatures:
    def test_hand_alignment_single_asset(self):
        r = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
        panel = _toy_panel(r)
        x, y, dates = make_features(panel, lookbacks=[1], horizon=1)
        assert x.shape == (5, 1)
        np.testing.assert_allclose(x[:, 0], r[:5])
        np.testing.assert_allclose(y[:, 0], r[1:])
        assert dates == panel.dates[:5]

    def test_cumulative_windows_add_log_returns(self):
        r = np.arange(1.0, 9.0) / 100
        panel = _toy_panel(r)
        x, y, _ = make_features(panel, lookbacks=[1, 3], horizon=2)
        # first anchor is t=2 (0-based): past-3 window covers r[0:3]
        np.testing.assert_allclose(x[0], [r[2], r[0] + r[1] + r[2]])
        np.testing.assert_allclose(y[0], [r[3] + r[4]])

    def test_feature_count_is_assets_times_lookbacks(self):
        rng = np.random.default_rng(1)
        panel = ReturnPanel(
            dates=["d%02d" % i for i in range(30)],
            assets=["A", "B", "C", "D"],
            values=rng.normal(size=(30, 4)),
        )
        x, y, _ = make_features(panel, lookbacks=[1, 5, 10], horizon=5)
        assert x.shape[1] == 4 * 3
        assert y.shape[1] == 4

    def test_rows_with_missing_constituents_dropped(self):
        r = [0.01, 0.02, np.nan, 0.04, 0.05, 0.06]
        panel = _toy_panel(r)
        x, y, dates = make_features(panel, lookbacks=[1], horizon=1)
        # anchors 1 (response r[2]) and 2 (feature r[2]) both vanish
        assert dates == [panel.dates[0], panel.dates[3], panel.dates[4]]
        np.testing.assert_allclose(x[:, 0], [0.01, 0.04, 0.05])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(2)
        core = rng.normal(size=(12, 2))
        dates = ["d%02d" % i for i in range(15)]
        base = ReturnPanel(dates=dates[3:], assets=["A", "B"], values=core)
        padded = ReturnPanel(
            dates=dates,
            assets=["A", "B"],
            values=np.vstack([rng.normal(size=(3, 2)), core]),
        )
        xb, yb, db = make_features(base, lookbacks=[2], horizon=1)
        xp, yp, dp = make_features(padded, lookbacks=[2], horizon=1)
        np.testing.assert_allclose(xp[-xb.shape[0]:], xb)
        np.testing.assert_allclose(yp[-yb.shape[0]:], yb)
        assert dp[-len(db):] == db

    def test_insufficient_history(self):
        panel = _toy_panel([0.01, 0.02, 0.03])
        with pytest.raises(ValueError):
            make_features(panel, lookbacks=[2], horizon=1)
        with pytest.raises(ValueError):
            make_features(panel, lookbacks=[0], horizon=1)
        with pytest.raises(ValueError):
            make_features(panel, lookbacks=[1], horizon=0)


def _features_by_row(panel, lookbacks, horizon):
    """make_features written one anchor date at a time."""
    v = panel.values
    xs, ys, dates = [], [], []
    for t in range(max(lookbacks) - 1, v.shape[0] - horizon):
        feats = np.concatenate([v[t - k + 1:t + 1].sum(axis=0) for k in lookbacks])
        resp = v[t + 1:t + 1 + horizon].sum(axis=0)
        if not (np.isnan(feats).any() or np.isnan(resp).any()):
            xs.append(feats)
            ys.append(resp)
            dates.append(panel.dates[t])
    d1, d2 = v.shape[1] * len(lookbacks), v.shape[1]
    return np.array(xs).reshape(-1, d1), np.array(ys).reshape(-1, d2), dates


@seed(1)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), assets=st.integers(1, 4),
       lookbacks=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       horizon=st.integers(1, 3), extra=st.integers(1, 20),
       missing=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_make_features_matches_a_per_row_reference(seed, assets, lookbacks, horizon,
                                                   extra, missing):
    rng = np.random.default_rng(seed)
    t = max(lookbacks) + horizon + extra
    values = rng.normal(size=(t, assets))
    values[rng.random((t, assets)) < missing] = np.nan
    panel = ReturnPanel(dates=["d%03d" % i for i in range(t)],
                        assets=["A%d" % j for j in range(assets)], values=values)
    x, y, dates = make_features(panel, lookbacks, horizon)
    x_ref, y_ref, dates_ref = _features_by_row(panel, lookbacks, horizon)
    assert dates == dates_ref
    assert x.shape == x_ref.shape and y.shape == y_ref.shape
    assert x.dtype == y.dtype == np.float64
    # window sums add in another order in the reference
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)


class TestRollingSplits:
    def test_hand_enumeration_single_fold(self):
        folds = rolling_splits(list(range(10)), train_len=4, valid_len=2,
                               test_len=2, gap_len=1)
        assert len(folds) == 1
        fold = folds[0]
        assert fold.train == range(0, 4)
        assert fold.valid == range(5, 7)
        assert fold.test == range(8, 10)

    def test_second_fold_advances_by_test_len(self):
        folds = rolling_splits(list(range(12)), train_len=4, valid_len=2,
                               test_len=2, gap_len=1)
        assert len(folds) == 2
        assert folds[1].train == range(2, 6)
        assert folds[1].test == range(10, 12)

    def test_zero_gap_contiguous(self):
        folds = rolling_splits(list(range(8)), train_len=4, valid_len=2,
                               test_len=2, gap_len=0)
        fold = folds[0]
        assert fold.train == range(0, 4)
        assert fold.valid == range(4, 6)
        assert fold.test == range(6, 8)

    def test_segments_disjoint_and_tests_increase(self):
        folds = rolling_splits(list(range(40)), train_len=10, valid_len=5,
                               test_len=5, gap_len=2)
        last_test_start = -1
        for fold in folds:
            segs = set(fold.train) | set(fold.valid) | set(fold.test)
            assert len(segs) == len(fold.train) + len(fold.valid) + len(fold.test)
            assert fold.test.start > last_test_start
            last_test_start = fold.test.start

    def test_no_window_error(self):
        with pytest.raises(ValueError):
            rolling_splits(list(range(5)), train_len=4, valid_len=2,
                           test_len=2, gap_len=1)
        with pytest.raises(ValueError):
            rolling_splits(list(range(10)), train_len=0, valid_len=2,
                           test_len=2, gap_len=1)
