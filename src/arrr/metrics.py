"""Evaluation metrics: variance-normalized MSE, R^2, correlation,
reconstruction error, recovered rank, and the out-minus-in gap.

Normalization and R^2 pool all response entries (the matrix is flattened);
there is no per-column treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    mse_in: float = math.nan
    mse_out: float = math.nan
    r2_in: float = math.nan
    r2_out: float = math.nan
    corr_out: float = math.nan
    recon_error: Optional[float] = None
    recovered_rank: float = 0.0
    gap_out_in: float = math.nan
    degenerate: bool = False


def _coef_matrix(model) -> np.ndarray:
    if isinstance(model, np.ndarray):
        return model
    return np.asarray(model.m_hat, dtype=float)


def recovered_rank_of(m_hat: np.ndarray) -> int:
    """Count of singular values above 1e-8 times the largest."""
    m_hat = np.asarray(m_hat, dtype=float)
    if not np.any(m_hat):
        return 0
    s = np.linalg.svd(m_hat, compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0]))


def pooled_scores(y: np.ndarray, y_hat: np.ndarray) -> Tuple[float, float, float]:
    """(variance-normalized MSE, R^2, correlation) over all entries pooled.

    Each is NaN where it is undefined: MSE for a constant response, R^2 for
    zero total variation, the correlation for a constant y or y_hat. An
    array is constant when its max equals its min, or when its computed
    variance is 0: the mean of a constant array can round, which leaves its
    centered entries a residue, not 0.

    One pass per quantity: the residual and its squares, y and y_hat centered
    on their means, written straight into the 2 x N matrix whose product with
    its transpose np.corrcoef would form. The MSE's variance and R^2's total
    sum of squares share one sum. For C-ordered arrays whose max differs
    from their min, every score equals the textbook formula bit for bit:
    np.var(y), np.mean(resid ** 2), np.sum((y - np.mean(y)) ** 2), and
    np.corrcoef of the raveled arrays when np.std(y_hat) > 0 and
    np.std(y) > 0. y and y_hat of different shapes raise ValueError.
    """
    _require_one_shape(y, y_hat)
    n = y.size
    resid = y - y_hat
    sse = (resid * resid).sum()
    centered = np.empty((2, n))
    yc = np.subtract(y, y.sum() / n, out=centered[1].reshape(y.shape))
    y_constant = not y.max() > y.min()
    gram = None
    if not y_constant and y_hat.max() > y_hat.min():
        hc = np.subtract(y_hat, y_hat.sum() / n, out=centered[0].reshape(y_hat.shape))
        if (hc * hc).sum() / n > 0.0:
            g = np.dot(centered, centered.T)
            gram = (g[0, 0], g[0, 1], g[1, 1])
    return _pooled(n, sse, (yc * yc).sum(), y_constant, gram)


def _require_one_shape(y: np.ndarray, y_hat: np.ndarray) -> None:
    """ValueError naming both shapes unless y and y_hat have one shape; a
    broadcast would score other entries than the response's."""
    if y.shape != y_hat.shape:
        raise ValueError("y and y_hat must have one shape, got %s and %s" % (y.shape, y_hat.shape))


def validation_mse(y: np.ndarray) -> Callable[[np.ndarray], float]:
    """The scorer of one validation window: a function of y_hat that returns
    pooled_scores(y, y_hat)[0], the variance-normalized MSE, bit for bit.

    The window's centered sum of squares and its constant flag are formed
    once, here; each call forms only the residual sum of squares, and the
    division and NaN rules are `_pooled`'s. The MSE is all that
    `lowest` reads of a validation score. A y_hat of another shape than y
    raises ValueError, as in pooled_scores."""
    n = y.size
    yc = np.subtract(y, y.sum() / n, out=np.empty(y.shape))  # C order, as pooled_scores'
    sst = (yc * yc).sum()
    y_constant = not y.max() > y.min()

    def mse(y_hat: np.ndarray) -> float:
        _require_one_shape(y, y_hat)
        resid = y - y_hat
        return _pooled(n, (resid * resid).sum(), sst, y_constant, None)[0]

    return mse


def _pooled(n: int, sse: float, sst: float, y_constant: bool,
            gram: Optional[Tuple[float, float, float]]) -> Tuple[float, float, float]:
    """(mse, r2, corr) of n pooled entries from their sums: the residual sum
    of squares sse, the centered response's sum of squares sst, and gram =
    (yhc . yhc, yhc . yc, yc . yc) of the centered prediction yhc and response
    yc, None when the prediction is constant. The one statement of the rules
    that pooled_scores, validation_mse and estimator.rank_path_scores share:
    the two divisions, the NaN rules and the correlation's clip to [-1, 1]."""
    var_y, ss_tot = float(sst / n), float(sst)
    mse = math.nan if y_constant or var_y == 0.0 else float(sse / n) / var_y
    r2 = math.nan if y_constant or ss_tot == 0.0 else 1.0 - float(sse) / ss_tot
    corr = math.nan
    if not y_constant and var_y > 0.0 and gram is not None and gram[0] > 0.0:
        hh, hy, yy = (g * (1.0 / (n - 1)) for g in gram)
        corr = min(max(float(hy / math.sqrt(hh) / math.sqrt(yy)), -1.0), 1.0)
    return mse, r2, corr


def lowest(scored: Iterable[Tuple[float, Any]]) -> Any:
    """The item of the first lowest score among (score, item) pairs, the rule
    every validation winner is picked by. A NaN score never wins, and None
    means no score is defined. Only the best pair so far is held, so the
    pairs may come from a generator that fits one model at a time."""
    best = None
    for score, item in scored:
        if not math.isnan(score) and (best is None or score < best[0]):
            best = (score, item)
    return None if best is None else best[1]


def evaluate(
    model,
    x: np.ndarray,
    y: np.ndarray,
    m_true: Optional[np.ndarray] = None,
    split_label: str = "out",
) -> MetricsReport:
    """Score one (x, y) split of a fitted linear model.

    `model` is anything carrying an m_hat attribute, or a bare coefficient
    matrix. The named split's mse/r2 fields are filled; the correlation is
    recorded for the out-of-sample split only. A constant response makes the
    normalized MSE undefined: the report comes back with NaN there and the
    degenerate flag set.
    """
    if split_label not in ("in", "out"):
        raise ValueError("split_label must be 'in' or 'out'")
    m_hat = _coef_matrix(model)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mse, r2, corr = pooled_scores(y, x @ m_hat.T)

    recon = None
    if m_true is not None:
        recon = float(np.linalg.norm(np.asarray(m_true, dtype=float) - m_hat))

    kwargs = dict(
        recon_error=recon,
        recovered_rank=float(recovered_rank_of(m_hat)),
        degenerate=math.isnan(mse),
    )
    if split_label == "in":
        kwargs.update(mse_in=mse, r2_in=r2)
    else:
        kwargs.update(mse_out=mse, r2_out=r2, corr_out=corr)
    return MetricsReport(**kwargs)


def merge_splits(report_in: MetricsReport, report_out: MetricsReport) -> MetricsReport:
    """Combine an in-sample and an out-of-sample report; gap = out - in."""
    return MetricsReport(
        mse_in=report_in.mse_in,
        mse_out=report_out.mse_out,
        r2_in=report_in.r2_in,
        r2_out=report_out.r2_out,
        corr_out=report_out.corr_out,
        recon_error=report_out.recon_error
        if report_out.recon_error is not None
        else report_in.recon_error,
        recovered_rank=report_out.recovered_rank,
        gap_out_in=report_out.mse_out - report_in.mse_in,
        degenerate=report_in.degenerate or report_out.degenerate,
    )
