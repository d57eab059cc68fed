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


def _require_design(x: np.ndarray) -> None:
    """Stage 1's checks on x: a matrix of at least 2 rows, not all zero."""
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("x must be a matrix with at least 2 rows")
    if not np.any(x):
        raise ValueError("x is identically zero")


def _cross_moment(z_hat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix stage 2 denoises, (y.T @ z_hat) / n."""
    return y.T @ z_hat / z_hat.shape[0]


def step1_pca_x(
    x: np.ndarray,
    delta: float,
    k1_override: Optional[int] = None,
    dec: Optional[SpectralDecomposition] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitening stage.

    Takes the thin SVD of x (or `dec`, when the caller already has it),
    converts singular values to eigenvalue scale lambda_i = sigma_i^2 / n,
    picks k1 by the consecutive-gap rule (or the override), and returns
    (z_hat, pi_hat, lambdas) with z_hat = sqrt(n) times the top-k1 left
    singular vectors and pi_hat the map such that z_hat = x @ pi_hat.T.

    Raises:
        NoGapError: no gap >= delta and no override given.
        ValueError: fewer than 2 rows, zero input, or an override beyond the
            numerical rank.
    """
    x = np.asarray(x, dtype=float)
    _require_design(x)
    n = x.shape[0]
    if dec is None:
        dec = decompose(x)
    lambdas = dec.s ** 2 / n

    if k1_override is not None:
        k1 = int(k1_override)
        if not (1 <= k1 <= lambdas.size):
            raise ValueError("k1 override %d outside [1, %d]" % (k1, lambdas.size))
    else:
        picked = select_gap_rank(lambdas, delta)
        if picked is None:
            raise NoGapError(
                "no consecutive eigenvalue gap >= %g; lower delta or set k1 explicitly"
                % delta
            )
        k1 = picked
    if lambdas[k1 - 1] <= 0:
        raise ValueError("k1=%d exceeds the numerical rank of x" % k1)

    z_hat = np.sqrt(n) * dec.u[:, :k1]
    pi_hat = dec.v[:, :k1].T / np.sqrt(lambdas[:k1])[:, None]
    return z_hat, pi_hat, lambdas


def step2_pca_denoise(
    z_hat: np.ndarray,
    y: np.ndarray,
    theta: float,
    sigma_eps: float,
    k2_override: Optional[int] = None,
    dec: Optional[SpectralDecomposition] = None,
) -> Tuple[np.ndarray, int, np.ndarray, float]:
    """Denoising stage.

    Forms the cross-moment matrix (y.T @ z_hat) / n and takes its thin SVD
    (or uses `dec`, when the caller already has that SVD), keeps singular
    directions whose values reach theta * sigma_eps * sqrt(d2 / n), and
    returns (truncated matrix, k2, singular values, threshold).
    """
    z_hat = np.asarray(z_hat, dtype=float)
    y = np.asarray(y, dtype=float)
    if z_hat.shape[0] != y.shape[0]:
        raise ValueError("z_hat and y must have the same number of rows")
    n = z_hat.shape[0]
    d2 = y.shape[1]
    if dec is None:
        dec = decompose(_cross_moment(z_hat, y))
    threshold = theta * sigma_eps * np.sqrt(d2 / n)

    if k2_override is not None:
        k2 = int(k2_override)
        if not (0 <= k2 <= dec.s.size):
            raise ValueError("k2 override %d outside [0, %d]" % (k2, dec.s.size))
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


def fit_path(
    x: np.ndarray,
    y: np.ndarray,
    configs: Sequence[FitConfig],
    dec: Optional[SpectralDecomposition] = None,
) -> Iterator[Union[FittedModel, NoGapError]]:
    """Fit every config on one (x, y), sharing the factorizations.

    One SVD of x, taken from `dec` when the caller already has it, serves the
    noise pilot, which runs at most once (for the first config with sigma_eps
    "auto"), and stage 1 of every config. One SVD of the cross-moment matrix
    per distinct k1 serves stage 2 of every config with that k1. Yields, in
    config order, what fit_adaptive_rrr would return for each config, bit for
    bit, or, for a config whose stage 1 finds no admissible gap, the
    NoGapError it would raise. Every other error is raised: NonFiniteError
    when x or y holds NaN or infinity, the pilot's errors, and ValueError for
    a shape, an all-zero x or an override beyond the data.
    """
    x, y = require_xy("x and y", x, y)
    # stage 1 checks x too, but only after the pilot, which would report an
    # all-zero panel's response as constant
    _require_design(x)

    x_dec = decompose(x) if dec is None else dec
    pilot_sigma = None
    n_hat_decs = {}
    for config in configs:
        if config.sigma_eps == "auto" and pilot_sigma is None:
            pilot_sigma = estimate_noise_sigma(x, y, x_dec)
        sigma_eps = pilot_sigma if config.sigma_eps == "auto" else float(config.sigma_eps)
        try:
            z_hat, pi_hat, lambdas = step1_pca_x(x, config.delta, config.k1_override, x_dec)
        except NoGapError as e:
            yield e
            continue
        k1 = pi_hat.shape[0]
        if k1 not in n_hat_decs:
            n_hat_decs[k1] = decompose(_cross_moment(z_hat, y))
        n_hat_trunc, k2, sigmas, threshold = step2_pca_denoise(
            z_hat, y, config.theta, sigma_eps, config.k2_override, n_hat_decs[k1]
        )
        yield FittedModel(
            pi_hat=pi_hat,
            n_hat_trunc=n_hat_trunc,
            k1=k1,
            k2=k2,
            lambdas=lambdas,
            n_hat_sigmas=sigmas,
            threshold_used=threshold,
            config=config,
            sigma_eps_used=sigma_eps,
            n=x.shape[0],
        )


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
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 2 or x_new.shape[1] != model.m_hat.shape[1]:
        raise ValueError(
            "x_new must have %d columns" % model.m_hat.shape[1]
        )
    require_finite("x_new", x_new)
    return x_new @ model.m_hat.T


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
    checks them), or a factor's shape disagrees with it: pi_hat must be
    k1 x d1 and n_hat d2 x k1. Diagnostics not stored in the directory
    (eigenvalues, raw singular values) come back empty."""
    meta_path = os.path.join(dirpath, "meta.json")
    meta = read_json(meta_path)
    try:
        ints = {k: _get(meta, "", k, int) for k in ("k1", "k2", "d1", "d2", "n")}
        nums = {k: float(_get(meta, "", k, NUM)) for k in ("delta", "theta", "sigma_eps")}
    except ValueError as e:
        raise ValueError("%s: %s" % (meta_path, e)) from None
    factors = []
    for name, rows, cols in (("pi_hat", "k1", "d1"), ("n_hat", "d2", "k1")):
        path = os.path.join(dirpath, name + ".csv")
        a = read_matrix_csv(path)
        if a.shape != (ints[rows], ints[cols]):
            raise ValueError("%s is %dx%d, but meta.json gives %s x %s = %d x %d" % (
                path, a.shape[0], a.shape[1], rows, cols, ints[rows], ints[cols]))
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
