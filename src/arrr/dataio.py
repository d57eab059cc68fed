"""Panel ingestion, feature construction, and rolling split protocol.

Dates are opaque ordered labels (ISO strings sort correctly); there is no
calendar arithmetic. The one-period buffer between segments is a configurable
gap length in periods.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


class DataFormatError(ValueError):
    pass


class NoWindowError(ValueError):
    """Not even one rolling window fits the dates."""


@dataclass(frozen=True)
class ReturnPanel:
    dates: List[str]
    assets: List[str]
    values: np.ndarray  # dates x assets, NaN marks missing


@dataclass(frozen=True)
class RollingSplit:
    train: range
    valid: range
    test: range


def load_panel_csv(path) -> ReturnPanel:
    """Parse a `date,<asset_1>,...` CSV of log returns.

    Unparseable or empty numeric cells become missing flags. Duplicate dates,
    non-monotone dates, and ragged rows raise DataFormatError naming the
    offending 1-based file line, each message led by the path.
    """
    def bad(msg: str) -> DataFormatError:
        return DataFormatError("%s: %s" % (path, msg))

    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise bad("empty file")
        if len(header) < 2 or header[0].strip() != "date":
            raise bad("line 1: header must be 'date,<asset_1>,...'")
        assets = [h.strip() for h in header[1:]]

        dates: List[str] = []
        rows: List[List[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise bad("line %d: expected %d cells, got %d" % (lineno, len(header), len(row)))
            date = row[0].strip()
            if dates:
                if date == dates[-1]:
                    raise bad("line %d: duplicate date %r" % (lineno, date))
                if date < dates[-1]:
                    raise bad("line %d: dates not increasing at %r" % (lineno, date))
            dates.append(date)
            try:  # one call per row; only a row with a bad cell goes cell by cell
                parsed = list(map(float, row[1:]))
            except ValueError:
                parsed = []
                for cell in row[1:]:
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        parsed.append(float("nan"))
            rows.append(parsed)
    values = np.array(rows, dtype=float) if rows else np.zeros((0, len(assets)))
    return ReturnPanel(dates=dates, assets=assets, values=values)


def _window_sums(values: np.ndarray, k: int) -> np.ndarray:
    """Sliding sums over k consecutive rows; row t holds the window ending at t.

    Rows 0..k-2 are NaN (not enough history). NaN inputs propagate, which is
    exactly the missing-row-drop policy downstream.
    """
    t, a = values.shape
    out = np.full((t, a), np.nan)
    if t >= k:
        windows = np.lib.stride_tricks.sliding_window_view(values, k, axis=0)
        out[k - 1 :] = windows.sum(axis=-1)
    return out


def make_features(
    panel: ReturnPanel,
    lookbacks: Sequence[int],
    horizon: int,
) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    """Past-k cumulative log returns as features, next-horizon return as response.

    For each anchor date t: the feature row concatenates, for every k in
    lookbacks (in the given order), the sum of the last k log returns of each
    asset; the response row is each asset's cumulative return over the next
    `horizon` periods. Log returns add, so cumulative = windowed sum. Rows
    with any missing constituent are dropped.

    Returns (x, y, date_index) with d1 = assets * len(lookbacks) and
    d2 = assets.
    """
    lookbacks = [int(k) for k in lookbacks]
    if not lookbacks or min(lookbacks) < 1:
        raise ValueError("lookbacks must be positive integers")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    t_total = len(panel.dates)
    if t_total <= max(lookbacks) + horizon:
        raise ValueError(
            "insufficient history: need more than %d dates, have %d"
            % (max(lookbacks) + horizon, t_total)
        )

    # rows lo..hi-1 are the anchor dates that have a full lookback and horizon
    lo, hi = max(lookbacks) - 1, t_total - horizon
    rows = np.hstack([_window_sums(panel.values, k)[lo:hi] for k in lookbacks]
                     + [_window_sums(panel.values, horizon)[lo + horizon:]])
    keep = ~np.isnan(rows).any(axis=1)
    d1 = len(panel.assets) * len(lookbacks)
    return (rows[keep, :d1], rows[keep, d1:],
            [panel.dates[lo + i] for i in np.flatnonzero(keep)])


def rolling_splits(
    date_index: Sequence,
    train_len: int,
    valid_len: int,
    test_len: int,
    gap_len: int = 0,
) -> List[RollingSplit]:
    """Disjoint train/valid/test index ranges advancing by test_len per fold.

    Layout per fold: train, gap, valid, gap, test. Raises ValueError for a
    length below its bound, and NoWindowError when not even one full window
    fits.
    """
    for name, v in (("train_len", train_len), ("valid_len", valid_len), ("test_len", test_len)):
        if v < 1:
            raise ValueError("%s must be >= 1" % name)
    if gap_len < 0:
        raise ValueError("gap_len must be >= 0")
    n = len(date_index)
    span = train_len + gap_len + valid_len + gap_len + test_len
    if span > n:
        raise NoWindowError("no full window fits: need %d periods, have %d" % (span, n))

    folds = []
    start = 0
    while start + span <= n:
        a = start
        b = a + train_len
        c = b + gap_len
        d = c + valid_len
        e = d + gap_len
        f = e + test_len
        folds.append(RollingSplit(train=range(a, b), valid=range(c, d), test=range(e, f)))
        start += test_len
    return folds
