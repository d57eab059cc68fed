"""Synthetic benchmark generator: power-law covariance, ternary coefficient
matrix truncated to a target rank, Gaussian noise scaled to the signal."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .spectral import truncate_rank


@dataclass(frozen=True)
class SynthConfig:
    d1: int
    d2: int
    n: int
    rank_m: int
    omega: float = 2.0
    eta: float = 0.0
    upsilon: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        # comparisons are written so that NaN and infinity fail them
        if self.d1 < 2 or self.d2 < 1 or self.n < 2:
            raise ValueError("need d1 >= 2, d2 >= 1 and n >= 2")
        if not 1 <= self.rank_m <= min(self.d1, self.d2):
            raise ValueError("rank_m must lie in [1, min(d1, d2)]")
        if not 2 <= self.omega < math.inf:
            raise ValueError("omega must be finite and >= 2")
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be finite and >= 0")
        if not 0 < self.upsilon < math.inf:
            raise ValueError("upsilon must be positive and finite")


@dataclass(frozen=True)
class SyntheticInstance:
    """One generated problem. Its whitened coefficients n_mat are formed on
    first read and then kept."""

    config: SynthConfig
    v_star: np.ndarray
    lambda_star: np.ndarray
    m: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sigma_noise: float

    @functools.cached_property
    def n_mat(self) -> np.ndarray:
        return orthogonalized_n(self.m, self.v_star, self.lambda_star)


def gen_covariance(d1: int, omega: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Trace-normalized power-law spectrum and a Haar-random basis.

    lambda_i = i**(-omega) / Z with Z = sum_j j**(-omega), so the eigenvalues
    sum to 1 and the expected squared feature norm is 1. The basis comes from
    QR of a Gaussian matrix with the R diagonal sign fixed, which makes the
    distribution Haar and the output deterministic per seed.
    """
    if d1 < 2:
        raise ValueError("d1 must be >= 2")
    if not 2 <= omega < math.inf:  # NaN fails too
        raise ValueError("omega must be finite and >= 2")
    idx = np.arange(1, d1 + 1, dtype=float)
    lam = idx ** (-float(omega))
    lam /= lam.sum()

    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d1, d1)))
    q *= np.sign(np.diag(r))
    return q, lam


def gen_coefficients(d2: int, d1: int, rank_m: int, upsilon: float, seed: int) -> np.ndarray:
    """Ternary {-1,0,1} matrix truncated to rank_m, spectral norm capped at upsilon."""
    if rank_m < 1 or rank_m > min(d1, d2):
        raise ValueError("rank_m must be in [1, min(d1, d2)]")
    if upsilon <= 0:
        raise ValueError("upsilon must be positive")
    rng = np.random.default_rng(seed)
    raw = rng.integers(-1, 2, size=(d2, d1)).astype(float)
    # full-rank truncation is the identity; skipping it keeps entries ternary
    m = truncate_rank(raw, rank_m) if rank_m < min(d1, d2) else raw
    top = np.linalg.norm(m, 2)
    if top > upsilon:
        m *= upsilon / top
    return m


def gen_design(v_star: np.ndarray, lambda_star: np.ndarray, n: int, seed) -> np.ndarray:
    """n rows of x = V* diag(lambda*)^(1/2) g with g standard Gaussian.

    `seed` may also be a Generator, which is drawn from in place.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, len(lambda_star)))
    g *= np.sqrt(lambda_star)
    return g @ v_star.T


def gen_dataset(
    m: np.ndarray,
    v_star: np.ndarray,
    lambda_star: np.ndarray,
    n: int,
    eta: float,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sample (x, y, sigma_noise) with y = x m^T + noise.

    sigma_noise = eta * std(vec(x m^T)) with the population (element-count)
    divisor. The same seed yields the same x and the same unit-variance noise
    draw at every eta; only the scale changes.
    """
    rng = np.random.default_rng(seed)
    x = gen_design(v_star, lambda_star, n, rng)
    y = x @ m.T  # the signal, to which the noise is added in place
    sigma_noise = float(eta) * float(np.std(y))
    noise = rng.standard_normal(y.shape)
    noise *= sigma_noise
    y += noise
    return x, y, sigma_noise


def orthogonalized_n(m: np.ndarray, v_star: np.ndarray, lambda_star: np.ndarray) -> np.ndarray:
    """Coefficients in the whitened coordinates: m @ V* @ diag(lambda*)^(1/2)."""
    lam = np.asarray(lambda_star, dtype=float)
    if np.any(lam < 0):
        raise ValueError("negative eigenvalues")
    return m @ v_star @ np.diag(np.sqrt(lam))


def make_instance(config: SynthConfig) -> SyntheticInstance:
    """Assemble a full synthetic instance from one master seed.

    Child seeds for the covariance, the coefficients, and the dataset are
    derived through a SeedSequence so the three draws are independent streams.
    """
    s_cov, s_coef, s_data = np.random.SeedSequence(config.seed).generate_state(3)
    v_star, lambda_star = gen_covariance(config.d1, config.omega, int(s_cov))
    m = gen_coefficients(config.d2, config.d1, config.rank_m, config.upsilon, int(s_coef))
    x, y, sigma_noise = gen_dataset(m, v_star, lambda_star, config.n, config.eta, int(s_data))
    return SyntheticInstance(
        config=config,
        v_star=v_star,
        lambda_star=lambda_star,
        m=m,
        x=x,
        y=y,
        sigma_noise=sigma_noise,
    )
