"""Spectral primitives shared by every other module.

Deterministic SVD with a fixed sign convention, best rank-r approximation,
the numerical rank, the two rank-selection rules (consecutive-eigenvalue gap
and absolute-value thresholding), a gap/tail search over normalized spectra,
and subspace-angle diagnostics. `NumericalFailure`, the base of the
numerical errors, lives here because the modules that raise them and the CLI
all import this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

ORTHONORMALITY_TOL = 1e-10


class NumericalFailure(Exception):
    """Base of the library's numerical failures, which the CLI reports with
    exit 3 and error.json. Each subclass also derives from the builtin error
    it refines, so callers may catch either."""


@dataclass(frozen=True)
class SpectralDecomposition:
    """Thin SVD a = u @ diag(s) @ v.T with deterministic signs.

    Invariants: s is non-increasing and non-negative; u and v have
    orthonormal columns within 1e-10 (max-abs entrywise).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def truncated(self, r: int) -> np.ndarray:
        """P_r of the decomposed matrix, from its top r singular triplets."""
        return (self.u[:, :r] * self.s[:r]) @ self.v[:, :r].T

    def orthonormality_residual(self) -> float:
        ru = np.max(np.abs(self.u.T @ self.u - np.eye(self.u.shape[1])))
        rv = np.max(np.abs(self.v.T @ self.v - np.eye(self.v.shape[1])))
        return float(max(ru, rv))


def decompose(a: np.ndarray) -> SpectralDecomposition:
    """Thin SVD with a fixed sign convention.

    The sign of each singular-vector pair is chosen so the largest-magnitude
    entry of the left singular vector is positive, making the output a
    deterministic function of the input.

    Args:
        a: real matrix, 2-dimensional.

    Returns:
        SpectralDecomposition with non-increasing singular values.

    Raises:
        ValueError: if `a` is not a 2-d real matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix, got ndim=%d" % a.ndim)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    if u.size:
        top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        signs = np.where(top < 0, -1.0, 1.0)
        u *= signs
        v *= signs
    return SpectralDecomposition(u=u, s=s, v=v)


def truncate_rank(a: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation of `a` in Frobenius norm.

    Args:
        a: real matrix.
        r: target rank, 0 <= r <= min(a.shape).

    Returns:
        P_r(a), the top-r singular reconstruction; the zero matrix for r=0.

    Raises:
        ValueError: if r is outside [0, min(a.shape)].
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not (0 <= r <= min(a.shape)):
        raise ValueError("rank %r outside [0, %d]" % (r, min(a.shape)))
    if r == 0:
        return np.zeros_like(a)
    return decompose(a).truncated(r)


def numerical_rank(s: np.ndarray, shape: Tuple[int, ...]) -> int:
    """Count of the non-increasing singular values s of a matrix of the given
    shape above lstsq's default cutoff eps * max(shape) * s[0], 0 for none."""
    return int(np.count_nonzero(s > np.finfo(float).eps * max(shape) * s[0])) if s.size else 0


def _gaps(lam: np.ndarray) -> np.ndarray:
    """Consecutive gaps lam[i] - lam[i+1], the entry past the end taken as 0."""
    return lam - np.append(lam[1:], 0.0)


def select_gap_rank(lambdas: np.ndarray, delta: float) -> Optional[int]:
    """Largest 1-based index k with lambdas[k] - lambdas[k+1] >= delta.

    Entries beyond the end of the list are treated as 0, so a dominant final
    eigenvalue can be selected. Returns None when no index qualifies.

    Args:
        lambdas: non-increasing eigenvalues.
        delta: positive gap threshold.

    Raises:
        ValueError: empty input or delta <= 0.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty eigenvalue list")
    if delta <= 0:
        raise ValueError("delta must be positive")
    k = np.flatnonzero(_gaps(lam) >= delta)
    return int(k[-1]) + 1 if k.size else None


def select_threshold_rank(sigmas: np.ndarray, tau: float) -> int:
    """Count of singular values >= tau (absolute-value thresholding)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return int(np.count_nonzero(np.asarray(sigmas, dtype=float).ravel() >= tau))


def find_gap_tail_index(
    lambdas: np.ndarray,
    ell: int,
    tau_param: float,
) -> Tuple[int, float, float]:
    """Exhaustive gap/tail scan over a normalized non-increasing spectrum.

    Among all 1-based indices i whose tail sum_{j>=i} lambda_j is within the
    budget ell**(-tau_param), returns the one maximizing the consecutive gap
    lambda_i - lambda_{i+1} (entries past the end are 0). Ties go to the
    smallest index.

    Args:
        lambdas: non-increasing, non-negative, summing to 1, lambdas[0] < 1.
        ell: scale parameter, >= 1.
        tau_param: tail exponent, > 0.

    Returns:
        (i_star, gap, tail) with gap = lambda_{i*} - lambda_{i*+1} and
        tail = sum_{i >= i*} lambda_i.

    Raises:
        ValueError: non-normalized input, lambdas[0] >= 1, or an empty
            feasible set.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("empty eigenvalue list")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if tau_param <= 0:
        raise ValueError("tau_param must be positive")
    if abs(float(lam.sum()) - 1.0) > 1e-8:
        raise ValueError("eigenvalues must sum to 1")
    if lam[0] >= 1.0:
        raise ValueError("leading eigenvalue must be < 1")
    if np.any(np.diff(lam) > 1e-12):
        raise ValueError("eigenvalues must be non-increasing")

    budget = float(ell) ** (-tau_param)
    # tails[i] = sum_{j >= i} lambda_j, 1-based i.
    tails = np.cumsum(lam[::-1])[::-1]
    gaps = _gaps(lam)
    feasible = np.nonzero(tails <= budget)[0]
    if feasible.size == 0:
        raise ValueError(
            "no index satisfies the tail budget %.3g" % budget
        )
    best = feasible[int(np.argmax(gaps[feasible]))]
    return int(best) + 1, float(gaps[best]), float(tails[best])


def angle_matrix(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Pairwise absolute cosines between columns of v1 and v2.

    Entry (i, j) = |v1[:, i] . v2[:, j]|, clipped into [0, 1].

    Raises:
        ValueError: row dimensions differ.
    """
    v1 = np.atleast_2d(np.asarray(v1, dtype=float))
    v2 = np.atleast_2d(np.asarray(v2, dtype=float))
    if v1.shape[0] != v2.shape[0]:
        raise ValueError(
            "row dimension mismatch: %d vs %d" % (v1.shape[0], v2.shape[0])
        )
    return np.clip(np.abs(v1.T @ v2), 0.0, 1.0)
