"""Two-stage adaptive reduced-rank regression.

Stage 1 whitens the features through a gap-thresholded PCA; stage 2 denoises
the response cross-moment matrix through absolute-value thresholding of its
singular values; the composition yields the coefficient estimate.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ._serde import NUM, _get, read_json, read_matrix_csv, write_json, write_matrix_csv
from ._version import __version__
from .metrics import _pooled
from .spectral import (
    NumericalFailure,
    SpectralDecomposition,
    decompose,
    numerical_rank,
    select_gap_rank,
    select_threshold_rank,
)


class NoGapError(NumericalFailure, ValueError):
    """No consecutive-eigenvalue gap reaches delta.

    Lower delta or pass an explicit k1 override; silently keeping full rank
    would reintroduce the ill-posed regime this estimator exists to avoid.
    """


class ZeroResidualError(NumericalFailure, ValueError):
    """The noise pilot's residual is exactly zero, so it measures no noise: a
    numerical failure. Pass an explicit sigma_eps."""


class NonFiniteError(NumericalFailure, ValueError):
    """An input matrix holds NaN or infinity: a numerical failure, which the
    estimator reports before any factorization runs."""


def require_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise NonFiniteError, naming `what`, unless every array holds only
    finite values. Callers run it before they factor the arrays."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteError("%s must hold only finite values" % what)


def require_xy(what: str, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """x and y as float matrices with equal row counts and only finite values:
    the check every fit entry point runs before it factors them. A bad shape
    raises ValueError and NaN or infinity NonFiniteError, each naming `what`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("%s must be matrices with equal row counts, got shapes %s and %s"
                         % (what, x.shape, y.shape))
    require_finite(what, x, y)
    return x, y


def _require_x_new(x_new: np.ndarray, d1: int) -> np.ndarray:
    """x_new as a float matrix of d1 columns, the feature rows predict and
    rank_path_scores take: ValueError for another shape, NonFiniteError for
    NaN or infinity."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 2 or x_new.shape[1] != d1:
        raise ValueError("x_new must have %d columns" % d1)
    require_finite("x_new", x_new)
    return x_new


@dataclass(frozen=True)
class FitConfig:
    delta: float = 1e-3
    theta: float = 2.0
    sigma_eps: Union[float, str] = "auto"
    k1_override: Optional[int] = None
    k2_override: Optional[int] = None

    def __post_init__(self) -> None:
        # written as "not 0 < v < inf" so that NaN and infinity fail too
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if self.sigma_eps != "auto" and (
                isinstance(self.sigma_eps, str) or not 0 < self.sigma_eps < math.inf):
            raise ValueError("sigma_eps must be a positive finite number or 'auto'")
        for name in ("k1_override", "k2_override"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError("%s must be non-negative" % name)


@dataclass(frozen=True)
class FittedModel:
    """A fitted estimator: two factors, ranks and diagnostics. The estimate
    m_hat = n_hat_trunc @ pi_hat is formed on first read and then kept."""

    pi_hat: np.ndarray           # k1 x d1, whitening map
    n_hat_trunc: np.ndarray      # d2 x k1, denoised cross-moment matrix
    k1: int
    k2: int
    lambdas: np.ndarray          # empirical feature eigenvalues, sigma_i^2 / n
    n_hat_sigmas: np.ndarray     # singular values of the raw cross-moment matrix
    threshold_used: float
    config: FitConfig
    sigma_eps_used: float
    n: int

    @functools.cached_property
    def m_hat(self) -> np.ndarray:  # d2 x d1, coefficient estimate
        return self.n_hat_trunc @ self.pi_hat


def step1_pca_x(dec: SpectralDecomposition, delta: float,
                k1_override: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Whitening stage, a rule on `dec`, the thin SVD of the n x d1 design x.

    Converts singular values to eigenvalue scale lambda_i = sigma_i^2 / n,
    picks k1 by the consecutive-gap rule among the eigenvalues within the
    numerical rank of x (or the override), and returns (pi_hat, lambdas),
    pi_hat the k1 x d1 map such that x @ pi_hat.T is the whitened scores
    z_hat, sqrt(n) times the top-k1 left singular vectors.

    Raises:
        NoGapError: no gap >= delta and no override given.
        ValueError: an all-zero x (numerical rank 0), or an override beyond
            the numerical rank.
    """
    n = dec.u.shape[0]
    lambdas = dec.s ** 2 / n
    rank = numerical_rank(dec.s, (n, dec.v.shape[0]))
    if rank == 0:
        raise ValueError("x is identically zero")

    if k1_override is not None:
        k1 = int(k1_override)
        if not (1 <= k1 <= lambdas.size):
            raise ValueError("k1 override %d outside [1, %d]" % (k1, lambdas.size))
        if k1 > rank:
            raise ValueError("k1=%d exceeds the numerical rank of x" % k1)
    else:
        # past the numerical rank an eigenvalue is round-off, whose gap can
        # reach delta when x is large
        picked = select_gap_rank(lambdas[:rank], delta)
        if picked is None:
            raise NoGapError(
                "no consecutive eigenvalue gap >= %g; lower delta or set k1 explicitly"
                % delta
            )
        k1 = picked

    pi_hat = dec.v[:, :k1].T / np.sqrt(lambdas[:k1])[:, None]
    return pi_hat, lambdas


def _k2_in_range(k2_override: int, size: int) -> int:
    """A k2 override as an int, checked against the `size` singular values of
    the cross-moment matrix it truncates."""
    k2 = int(k2_override)
    if not (0 <= k2 <= size):
        raise ValueError("k2 override %d outside [0, %d]" % (k2, size))
    return k2


def step2_pca_denoise(dec: SpectralDecomposition, n: int, theta: float, sigma_eps: float,
                      k2_override: Optional[int] = None
                      ) -> Tuple[np.ndarray, int, np.ndarray, float]:
    """Denoising stage, a rule on `dec`, the thin SVD of the d2 x k1
    cross-moment matrix (y.T @ z_hat) / n of n samples.

    Keeps the singular directions whose values reach
    theta * sigma_eps * sqrt(max(d2, k1) / n) (or the top k2_override), and
    returns (truncated matrix, k2, singular values, threshold). The noise
    part's top singular value is about sigma_eps * (sqrt(d2) + sqrt(k1)) /
    sqrt(n), so for theta >= 2 the threshold clears it at any k1.
    """
    threshold = theta * sigma_eps * np.sqrt(max(dec.u.shape[0], dec.v.shape[0]) / n)

    if k2_override is not None:
        k2 = _k2_in_range(k2_override, dec.s.size)
    else:
        k2 = select_threshold_rank(dec.s, threshold)
    return dec.truncated(k2), k2, dec.s, float(threshold)


def estimate_noise_sigma(
    x: np.ndarray,
    y: np.ndarray,
    dec: Optional[SpectralDecomposition] = None,
) -> float:
    """Pilot estimate of the noise standard deviation. Heuristic.

    Regresses y on the top k = min(n, d1)//2 principal-component scores of x
    and returns the standard deviation of the residual entries. The scores
    x @ V_k are U_k S_k on the SVD of x (`dec`, when the caller already has
    it), so the residual is y - U_r U_r^T y, where r is the numerical rank
    of the n x k scores, as lstsq's default cutoff sets it.

    Raises:
        ValueError: y is constant, so there is no noise to measure, or x and
            y fail `require_xy`'s shape check.
        NonFiniteError: x or y holds NaN or infinity.
        ZeroResidualError: the residual is exactly zero, as when y lies in
            the span of the scores or its entries are so small that their
            squares underflow.
    """
    x, y = require_xy("x and y", x, y)
    if float(np.ptp(y)) == 0.0:
        raise ValueError("the response y is constant, so the noise pilot cannot "
                         "estimate sigma_eps from it; give sigma_eps explicitly")
    n, d1 = x.shape
    k = max(1, min(n, d1) // 2)
    if dec is None:
        dec = decompose(x)
    u = dec.u[:, :numerical_rank(dec.s[:k], (n, k))]
    resid = y - u @ (u.T @ y)
    sigma = float(np.std(resid))
    if sigma == 0.0:
        raise ZeroResidualError("the noise pilot's residual is exactly zero, so it "
                                "measures no noise; give sigma_eps explicitly")
    return sigma


def _stages(x: np.ndarray, y: np.ndarray, configs: Sequence[FitConfig],
            dec: Optional[SpectralDecomposition]) -> Iterator[tuple]:
    """What fit_path and rank_path_scores share, for each config in order:
    (config, n, sigma_eps, stage 1's (pi_hat, lambdas) or its NoGapError, the
    SVD of the cross-moment matrix (y.T @ z_hat) / n or None after a
    NoGapError).

    x and y are checked and have one SVD, or `dec`. The noise pilot runs at
    most once, for the first config with sigma_eps "auto"; stage 1 runs once
    per distinct (delta, k1_override); the cross-moment matrix has one SVD
    per k1.

    Each stage-1 result is dropped after the last config of its (delta,
    k1_override) and, when every config pins k1, each cross-moment SVD after
    the last config of its k1_override, so that a path grouped by k1 holds
    one k1's factors at a time. A k1 that the gap rule picks can recur under
    any later delta, so without pinned k1 every SVD is kept to the end of the
    path."""
    x, y = require_xy("x and y", x, y)
    n = x.shape[0]
    # checked before the pilot, which would report an all-zero panel's
    # response as constant
    if n < 2:
        raise ValueError("x must be a matrix with at least 2 rows")
    if not np.any(x):
        raise ValueError("x is identically zero")
    x_dec = decompose(x) if dec is None else dec
    pilot, stage1, n_hat_decs = None, {}, {}
    configs = list(configs)  # read by the two look-aheads and by the path
    last_stage1 = {(c.delta, c.k1_override): i for i, c in enumerate(configs)}
    last_k1 = ({c.k1_override: i for i, c in enumerate(configs)}
               if all(c.k1_override is not None for c in configs) else {})
    for i, config in enumerate(configs):
        if config.sigma_eps == "auto" and pilot is None:
            pilot = estimate_noise_sigma(x, y, x_dec)
        sigma_eps = pilot if config.sigma_eps == "auto" else float(config.sigma_eps)
        key = (config.delta, config.k1_override)
        if key not in stage1:
            try:
                stage1[key] = step1_pca_x(x_dec, config.delta, config.k1_override)
            except NoGapError as e:
                # kept with its traceback, it would hold this frame, and so
                # every stage-1 result, in a reference cycle past the path
                stage1[key] = e.with_traceback(None)
        k1 = None  # after a NoGapError; n_hat_decs has no None key
        if not isinstance(stage1[key], NoGapError):
            k1 = stage1[key][0].shape[0]
            if k1 not in n_hat_decs:
                n_hat_decs[k1] = decompose(y.T @ (np.sqrt(n) * x_dec.u[:, :k1]) / n)
        yield config, n, sigma_eps, stage1[key], n_hat_decs.get(k1)
        if last_stage1[key] == i:
            del stage1[key]
        if last_k1.get(config.k1_override) == i:
            del n_hat_decs[k1]


def fit_path(
    x: np.ndarray,
    y: np.ndarray,
    configs: Sequence[FitConfig],
    dec: Optional[SpectralDecomposition] = None,
) -> Iterator[Union[FittedModel, NoGapError]]:
    """Fit every config on one (x, y), sharing the factorizations as
    `_stages` shares them: stage 2 is a rule on its cross-moment SVD.

    Yields, in config order, what fit_adaptive_rrr would return for each
    config, bit for bit, or, for a config whose stage 1 finds no admissible
    gap, the NoGapError it would raise, one shared by the configs of its
    (delta, k1_override). Every other error is raised: NonFiniteError when x
    or y holds NaN or infinity, the pilot's errors, and ValueError for a
    shape, fewer than 2 rows, an all-zero x or an override beyond the data.
    """
    for config, n, sigma_eps, stage1, n_hat_dec in _stages(x, y, configs, dec):
        if isinstance(stage1, NoGapError):
            yield stage1
            continue
        pi_hat, lambdas = stage1
        n_hat_trunc, k2, sigmas, threshold = step2_pca_denoise(
            n_hat_dec, n, config.theta, sigma_eps, config.k2_override
        )
        yield FittedModel(
            pi_hat=pi_hat,
            n_hat_trunc=n_hat_trunc,
            k1=pi_hat.shape[0],
            k2=k2,
            lambdas=lambdas,
            n_hat_sigmas=sigmas,
            threshold_used=threshold,
            config=config,
            sigma_eps_used=sigma_eps,
            n=n,
        )


def rank_path_scores(x: np.ndarray, y: np.ndarray, configs: Sequence[FitConfig],
                     x_new: np.ndarray, y_new: np.ndarray, m_true: np.ndarray
                     ) -> Iterator[Tuple[float, float, float, float]]:
    """(recon_error, mse, r2, corr) of fit_path's model for each config, in
    config order, for configs that pin both k1 and k2, without forming the
    model: recon_error = ||m_true - m_hat||_F, and pooled_scores(y_new, y_hat)
    up to rounding, y_hat = x_new @ m_hat.T.

    x and y are checked and factored, the pilot runs and stage 1 runs as in
    fit_path, through the same `_stages`, with the same errors; x_new is then
    checked as predict checks it. Each k1 is scored on its one cross-moment
    SVD u diag(s) v^T, r = min(d2, k1) columns wide: with w = v^T pi_hat
    (r x d1) and p = (x_new @ pi_hat.T) @ v diag(s) (n_new x r), the model of
    rank k2 is m_hat = sum_{i<k2} s_i u_i w_i and its prediction y_hat =
    sum_{i<k2} p_i u_i^T, w_i the rows of w and p_i the columns of p. The
    columns u_i are orthonormal, so each sum a score needs splits along them
    into per-direction terms:
        ||M - m_hat||^2 = ||M - U U^T M||^2 + sum_{i>=k2} ||u_i^T M||^2
                          + sum_{i<k2} ||u_i^T M - s_i w_i||^2,
        ||y - y_hat||^2 = ||y - y U U^T||^2 + sum_{i>=k2} ||y u_i||^2
                          + sum_{i<k2} ||y u_i - p_i||^2,
    and sum(y_hat) = sum_{i<k2} (1^T p_i)(1^T u_i), ||y_hat||^2 = sum_{i<k2}
    ||p_i||^2, <yc, y_hat> = sum_{i<k2} p_i^T (yc u_i), yc the centered y.
    Each k1's terms are summed once, over all r, into prefix and suffix sums,
    so a k2 costs O(1) and its bits do not depend on the other k2 scored.
    Every summed term is non-negative or uses the centered y, so an exact fit
    keeps its round-off-level error; only the prediction's centering,
    ||y_hat||^2 - sum(y_hat)^2 / (n_new d2), subtracts, and the prediction
    counts as constant, its correlation NaN, where that computes to 0 or
    less, as at k2 = 0. The residual terms are taken directly; they are 0 in
    exact arithmetic when r = d2. The scoring rules are metrics._pooled's.

    Raises ValueError for an x_new with no rows, unless y_new has the rows of
    x_new and d2 columns and m_true is d2 x d1, and for a k2 beyond
    min(d2, k1), as stage 2 does.
    """
    if any(c.k1_override is None or c.k2_override is None for c in configs):
        raise ValueError("rank_path_scores needs configs that pin both k1 and k2")
    m_true, y_new = np.asarray(m_true, dtype=float), np.asarray(y_new, dtype=float)
    sums = {}  # k1 -> (residual terms, prefix sums, suffix sums)
    for config, _, _, (pi_hat, _), dec in _stages(x, y, configs, None):
        k1 = pi_hat.shape[0]
        if not sums:
            x_new = _require_x_new(x_new, pi_hat.shape[1])
            if not x_new.shape[0]:
                raise ValueError("x_new must have at least one row to score")
        k2 = _k2_in_range(config.k2_override, dec.s.size)
        if k1 not in sums:
            if not sums:  # the first k1: the shapes, then y_new's own terms
                d2 = dec.u.shape[0]
                if y_new.shape != (x_new.shape[0], d2):
                    raise ValueError("y must be %d x %d, the rows of x_new by d2, got shape %s"
                                     % (x_new.shape[0], d2, y_new.shape))
                if m_true.shape != (d2, x_new.shape[1]):
                    raise ValueError("m_true must be d2 x d1 = %d x %d, got shape %s"
                                     % (d2, x_new.shape[1], m_true.shape))
                n = y_new.size
                yc = y_new - y_new.sum() / n
                sst = (yc * yc).sum()
                y_constant = not y_new.max() > y_new.min()
            sums[k1] = _direction_sums(dec.u, dec.s, dec.v.T @ pi_hat,
                                       (x_new @ pi_hat.T) @ (dec.v * dec.s), m_true, y_new, yc)
        # not held while `_stages` forms the next k1's factors
        del pi_hat, dec
        (m_res, y_res), pre, suf = sums[k1]
        total, hh, hy = pre[2:, k2]
        gram = (hh - total * total / n, hy, sst)
        yield ((math.sqrt(m_res + suf[0, k2] + pre[0, k2]),)
               + _pooled(n, y_res + suf[1, k2] + pre[1, k2], sst, y_constant, gram))
    if not sums:  # no configs; `_stages` has checked x
        _require_x_new(x_new, np.shape(x)[1])


def _direction_sums(u: np.ndarray, s: np.ndarray, w: np.ndarray, p: np.ndarray,
                    m_true: np.ndarray, y: np.ndarray, yc: np.ndarray):
    """rank_path_scores' terms of one k1: the two residuals, the prefix sums
    over i < k2 (recon, sse, sum(y_hat), ||y_hat||^2, <yc, y_hat>) and the
    suffix sums over i >= k2 (recon, sse), each indexed by k2 in [0, r].

    Each temporary as large as m_true or y is written in place and dropped
    after its last read, so at most two are live at a time. Every term is
    what the out-of-place expressions (m_true - u @ um, um - s w, ...) give,
    bit for bit: the same float operations on the same operands (tested
    against an out-of-place copy)."""
    r = u.shape[1]
    um = u.T @ m_true
    res = u @ um
    m_res = _sum_of_squares(np.subtract(m_true, res, out=res))
    del res
    um_sq = (um * um).sum(1)
    dm_sq = _sum_of_squares(np.subtract(um, s[:, None] * w, out=um), 1)
    del um
    yu = y @ u
    res = yu @ u.T
    y_res = _sum_of_squares(np.subtract(y, res, out=res))
    del res
    yu_sq = (yu * yu).sum(0)
    dy_sq = _sum_of_squares(np.subtract(yu, p, out=yu), 0)
    del yu
    ycu = yc @ u
    pre = np.zeros((5, r + 1))
    np.cumsum([dm_sq, dy_sq, p.sum(0) * u.sum(0), (p * p).sum(0),
               np.multiply(p, ycu, out=ycu).sum(0)], axis=1, out=pre[:, 1:])
    suf = np.zeros((2, r + 1))
    suf[:, :r] = np.cumsum([um_sq[::-1], yu_sq[::-1]], axis=1)[:, ::-1]
    return (m_res, y_res), pre, suf


def _sum_of_squares(a: np.ndarray, axis: Optional[int] = None):
    """(a * a).sum(axis), bit for bit, with a, a temporary, squared in place."""
    return np.multiply(a, a, out=a).sum(axis)


def fit_adaptive_rrr(x: np.ndarray, y: np.ndarray, config: FitConfig,
                     dec: Optional[SpectralDecomposition] = None) -> FittedModel:
    """Run both stages and compose the coefficient estimate.

    With config.sigma_eps == "auto" the noise scale is estimated by
    estimate_noise_sigma first. Raises NoGapError when stage 1 finds no
    admissible gap and no override was given, and NonFiniteError when x or y
    holds NaN or infinity. The one-config case of fit_path, which takes the
    SVD of x from `dec` when the caller already has it.
    """
    (model,) = fit_path(x, y, [config], dec)
    if isinstance(model, NoGapError):
        raise model
    return model


def predict(model: FittedModel, x_new: np.ndarray) -> np.ndarray:
    """Predictions x_new @ m_hat.T for new feature rows, of a fitted or a
    baseline model."""
    return _require_x_new(x_new, model.m_hat.shape[1]) @ model.m_hat.T


def save_model(model: FittedModel, dirpath: str) -> None:
    """Persist a fitted model as meta.json, pi_hat.csv and n_hat.csv."""
    os.makedirs(dirpath, exist_ok=True)
    cfg = model.config
    meta = {
        "k1": model.k1,
        "k2": model.k2,
        "delta": cfg.delta,
        "theta": cfg.theta,
        "sigma_eps": model.sigma_eps_used,
        "d1": model.pi_hat.shape[1],
        "d2": model.n_hat_trunc.shape[0],
        "n": model.n,
        "library_version": __version__,
    }
    write_json(os.path.join(dirpath, "meta.json"), meta)
    write_matrix_csv(os.path.join(dirpath, "pi_hat.csv"), model.pi_hat)
    write_matrix_csv(os.path.join(dirpath, "n_hat.csv"), model.n_hat_trunc)


def load_model(dirpath: str) -> FittedModel:
    """Inverse of save_model: the model that meta.json, pi_hat.csv and
    n_hat.csv describe, its m_hat derived from the two factors as for a
    fitted model. Any other file in the directory, such as the m_hat.csv
    that older versions wrote, is ignored.

    Raises ValueError, naming the file, when meta.json does not parse, one
    of its values is missing or has the wrong JSON type (k1, k2, d1, d2 and
    n must be integers, delta, theta and sigma_eps numbers, as `_serde._get`
    checks them), k2 is outside [0, min(d2, k1)], n is below 2, or a
    factor's shape disagrees with it: pi_hat must be k1 x d1 and n_hat
    d2 x k1. Raises NonFiniteError, naming the file, when a factor holds NaN
    or infinity. Diagnostics not stored in the directory (eigenvalues, raw
    singular values) come back empty."""
    meta_path = os.path.join(dirpath, "meta.json")
    meta = read_json(meta_path)
    try:
        ints = {k: _get(meta, "", k, int) for k in ("k1", "k2", "d1", "d2", "n")}
        nums = {k: float(_get(meta, "", k, NUM)) for k in ("delta", "theta", "sigma_eps")}
    except ValueError as e:
        raise ValueError("%s: %s" % (meta_path, e)) from None
    if not 0 <= ints["k2"] <= min(ints["d2"], ints["k1"]):
        raise ValueError("%s: k2 must be in [0, min(d2, k1)] = [0, %d], got %d" % (
            meta_path, min(ints["d2"], ints["k1"]), ints["k2"]))
    if ints["n"] < 2:
        raise ValueError("%s: n must be >= 2, got %d" % (meta_path, ints["n"]))
    factors = []
    for name, rows, cols in (("pi_hat", "k1", "d1"), ("n_hat", "d2", "k1")):
        path = os.path.join(dirpath, name + ".csv")
        a = read_matrix_csv(path)
        if a.shape != (ints[rows], ints[cols]):
            raise ValueError("%s is %dx%d, but meta.json gives %s x %s = %d x %d" % (
                path, a.shape[0], a.shape[1], rows, cols, ints[rows], ints[cols]))
        require_finite(path, a)
        factors.append(a)
    return FittedModel(
        pi_hat=factors[0],
        n_hat_trunc=factors[1],
        k1=ints["k1"],
        k2=ints["k2"],
        lambdas=np.array([]),
        n_hat_sigmas=np.array([]),
        threshold_used=float("nan"),
        config=FitConfig(**nums),
        sigma_eps_used=nums["sigma_eps"],
        n=ints["n"],
    )
