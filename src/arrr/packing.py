"""Constructive verifier for the local-minimax packing family.

Builds a family of d x d unitary matrices that share a fixed spectrum and the
first t_lo - 1 columns, whose middle-block columns live on sparse random
supports chosen by a low-collision code, and whose pairwise distances (in the
spectrum-weighted column metric over the contested block) stay large. Every
property the construction promises is measured, never assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spectral import NumericalFailure, numerical_rank

UNITARITY_TOL = 1e-10
# The construction's exponents: a support of floor(rho^LAMBDA_EXP d) entries,
# a code cost budget of rho^ZETA Psi, and a spread cutoff at rho^(LAMBDA_EXP +
# ETA_EXP). With rho in (0, 1), every power of rho taken is positive and finite.
LAMBDA_EXP = 0.501  # 1/2 + xi
ZETA = 0.5
ETA_EXP = 0.001
# A family passes with a min pairwise distance of at least DISTANCE_FLOOR Psi
# and at most half the support shared between two members' columns.
DISTANCE_FLOOR = 1.5


class PackingInfeasibleError(NumericalFailure, RuntimeError):
    """Code sampling could not push the max pairwise cost under the target."""

    def __init__(self, message, achieved_cost):
        super().__init__(message)
        self.achieved_cost = achieved_cost


class FillInfeasibleError(NumericalFailure, RuntimeError):
    """A middle-block column failed the tail-mass acceptance within budget."""

    def __init__(self, message, tail_mass):
        super().__init__(message)
        self.tail_mass = tail_mass


@dataclass(frozen=True)
class PackingParams:
    """A packing problem, whose contested block [t_lo, t_hi] follows from its
    fields. No spectrum means a flat one at the noise floor."""

    d: int
    rho: float
    sigma_eps: float
    n_samples: int
    k_patterns: int                # subsets sampled per contested column
    s_size: int                    # family size
    seed: int
    spectrum: Optional[np.ndarray] = None  # non-increasing singular values, length d

    @property
    def noise_floor(self) -> float:
        """rho * sigma_eps * sqrt(d / n), where the contested block starts."""
        return self.rho * self.sigma_eps * math.sqrt(self.d / self.n_samples)

    @property
    def subset_size(self) -> int:
        return int(self.rho ** LAMBDA_EXP * self.d)

    @property
    def t_lo(self) -> int:
        """First contested column, 1-based: the first singular value at or below the floor."""
        return int(np.argmax(self.spectrum <= self.noise_floor)) + 1

    @property
    def t_hi(self) -> int:
        """Last contested column, 1-based: floor(rho^lambda * d / 2)."""
        return self.subset_size // 2

    @property
    def n_contested(self) -> int:
        return self.t_hi - self.t_lo + 1

    @property
    def block_weights(self) -> np.ndarray:
        """sigma_i^2 on the contested block [t_lo, t_hi]: the one slice of the
        spectrum, by which Psi, the code cost and the pair distance weigh columns."""
        return self.spectrum[self.t_lo - 1 : self.t_hi] ** 2

    def __post_init__(self) -> None:
        # comparisons are written so that NaN fails them
        if self.d < 2 or not 0 < self.rho < 1:
            raise ValueError("need d >= 2 and rho in (0, 1)")
        if not 0 < self.sigma_eps < math.inf or self.n_samples < 1:
            raise ValueError("sigma_eps must be positive and finite, n_samples >= 1")
        if self.k_patterns < 1 or self.s_size < 1:
            raise ValueError("k_patterns and s_size must be >= 1")
        if self.subset_size < 2:
            raise ValueError("support size floor(rho^lambda * d) must be >= 2")
        spectrum = np.asarray(np.full(self.d, self.noise_floor) if self.spectrum is None
                              else self.spectrum, dtype=float)
        object.__setattr__(self, "spectrum", spectrum)
        if spectrum.shape != (self.d,):
            raise ValueError("spectrum must have length d")
        if np.any(np.diff(spectrum) > 1e-12) or not np.all((spectrum > 0) & (spectrum < np.inf)):
            raise ValueError("spectrum must be non-increasing, positive and finite")
        if not np.any(spectrum[:self.t_hi] <= self.noise_floor):  # t_lo <= t_hi
            raise ValueError("no singular value up to t_hi = %d is at or below the noise "
                             "floor %.6g" % (self.t_hi, self.noise_floor))


@dataclass(frozen=True)
class PackingFamily:
    patterns: List[List[np.ndarray]]   # per contested column: k_patterns index subsets
    code: List[Tuple[int, ...]]        # per member: pattern index per contested column
    unitaries: List[np.ndarray]


def psi_mass(params: PackingParams) -> float:
    """Spectral mass over the contested block, Psi: the sum of its block weights."""
    return float(np.sum(params.block_weights))


def _rng(params: PackingParams, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=params.seed, spawn_key=key))


def sample_sparsity_family(params: PackingParams) -> List[List[np.ndarray]]:
    """k_patterns random supports of size floor(rho^lambda * d) per column.

    Elements within one support are drawn without replacement; supports are
    independent across draws and columns.
    """
    size = params.subset_size
    if params.k_patterns > math.comb(params.d, size):
        raise ValueError("k_patterns exceeds the number of available subsets")
    rng = _rng(params, 1)
    patterns = []
    for _ in range(params.n_contested):
        column = [np.sort(rng.choice(params.d, size=size, replace=False)) for _ in range(params.k_patterns)]
        patterns.append(column)
    return patterns


def weighted_cost(r1: Sequence[int], r2: Sequence[int], weights: np.ndarray) -> float:
    """Spectrum-weighted agreement count: the sum of the block weights
    (PackingParams.block_weights, sigma_i^2 on [t_lo, t_hi]) over positions
    where the two code tuples pick the same pattern index."""
    if len(r1) != len(r2) or len(r1) != len(weights):
        raise ValueError("code tuples must cover the contested block")
    agree = np.fromiter((a == b for a, b in zip(r1, r2)), dtype=bool, count=len(r1))
    return float(np.sum(weights[agree]))


CODE_RETRY_BUDGET = 20
FILL_RETRY_BUDGET = 100


def sample_code(params: PackingParams, patterns: List[List[np.ndarray]]) -> List[Tuple[int, ...]]:
    """Draw s_size distinct tuples from the pattern product, resampling any
    tuple whose max pairwise cost against the accepted ones exceeds
    rho^ZETA * Psi. Budget: a first draw and 20 retries per tuple."""
    weights = params.block_weights
    target = params.rho ** ZETA * psi_mass(params)
    rng = _rng(params, 2)
    code: List[Tuple[int, ...]] = []
    for _ in range(params.s_size):
        for _ in range(CODE_RETRY_BUDGET + 1):
            cand = tuple(int(v) for v in rng.integers(0, params.k_patterns, size=params.n_contested))
            worst = max((weighted_cost(cand, prev, weights) for prev in code), default=0.0)
            if cand not in code and worst <= target:
                code.append(cand)
                break
        else:
            raise PackingInfeasibleError(
                "could not sample a tuple with max cost <= %.6g (achieved %.6g)" % (target, worst),
                achieved_cost=worst,
            )
    return code


def resolve_supports(r: Sequence[int], patterns: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Map a code tuple to its per-column index subsets."""
    return [patterns[c][idx] for c, idx in enumerate(r)]


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) of a 1-d array, bit for bit, without its index
    set-up, which loads numpy.ma: numpy's 'linear' rule on np.quantile's own
    partition pivots, so that 0.0 and -0.0 land where it puts them."""
    n = values.size
    virtual = (n - 1) * q
    i = math.floor(virtual)
    if i >= n - 1:  # at the last value numpy measures the weight from index -1
        i, j, gamma = n - 1, n - 1, virtual + 1
    else:
        j, gamma = i + 1, virtual - i
    part = np.partition(values, sorted({0, i, j, n - 1}))
    a, b = part[i], part[j]
    # interpolated from the nearer end, so that gamma 0 and 1 are exact
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


@functools.lru_cache(maxsize=None)
def calibrate_fill_constants(subset_size: int) -> Tuple[float, float]:
    """One-time Monte-Carlo calibration of the spread-acceptance constants.

    Over 10^4 normalized Gaussian draws in the support dimension, picks the
    smallest entry-cutoff scale (in units of 1/sqrt(support dim)) for which at
    most 2 entries exceed the cutoff in >= 90% of draws, then sets the
    accepted tail-mass level at the 60th percentile so that typical draws are
    accepted. At most 2 entries of a draw reach a cutoff exactly when its
    third-largest magnitude is below it, so that magnitude is taken once per
    draw and each scale is one comparison. The magnitudes overwrite the
    draws, are partitioned a block of rows at a time, and are squared in
    place for the tail masses, so one array of the draws' size is held.
    Cached per support size; the internal seed is fixed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=20240131, spawn_key=(subset_size,)))
    draws = rng.standard_normal((10_000, subset_size))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    mags = np.abs(draws, out=draws)
    third = np.zeros(len(mags))  # each draw's third-largest magnitude
    if subset_size > 2:
        for start in range(0, len(mags), 1000):
            third[start:start + 1000] = np.partition(mags[start:start + 1000], -3, axis=1)[:, -3]
    for scale in np.arange(1.0, 3.01, 0.05):
        cutoff = scale / math.sqrt(subset_size)
        if np.mean(third < cutoff) >= 0.9:
            chosen = float(scale)
            break
    else:
        chosen = 3.0
    heavy = mags >= chosen / math.sqrt(subset_size)
    mags *= mags
    mags *= heavy  # the squares of the entries at or above the cutoff, others 0
    return chosen, _quantile(np.sum(mags, axis=1), 0.6)


def build_unitary(
    supports: List[np.ndarray],
    params: PackingParams,
    shared_prefix: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Assemble one family member.

    Region 1 copies the shared prefix. Region 2 fills each contested column
    inside its support with a unit vector orthogonal to everything built so
    far, resampled until the mass sitting on entries above the spread cutoff
    is small and at most 2 entries exceed the cutoff (budget: 100 draws per
    column). Region 3 completes the basis with the trailing columns of the
    complete Householder QR of the built columns; the built columns are kept
    as they are, so contested supports are preserved exactly.
    """
    d = params.d
    prefix = np.asarray(shared_prefix, dtype=float).reshape(d, -1)
    if prefix.shape[1] != params.t_lo - 1:
        raise ValueError("shared prefix must have t_lo - 1 columns")
    if len(supports) != params.n_contested:
        raise ValueError("need one support per contested column")

    c5_scale, accept_level = calibrate_fill_constants(params.subset_size)
    # cutoff = c5 / sqrt(rho^(lambda+eta) * d); rho^lambda * d is the support
    # size, so this is c5/sqrt(support) up to the tiny eta correction.
    cutoff = c5_scale / math.sqrt(params.rho ** (LAMBDA_EXP + ETA_EXP) * d)
    rng = np.random.default_rng(seed)

    u = np.zeros((d, d))
    u[:, : prefix.shape[1]] = prefix
    ncols = prefix.shape[1]

    for support in supports:
        prior = u[np.ix_(support, range(ncols))]
        # Orthonormal basis of the orthogonal complement of the prior
        # columns' footprint inside the support coordinates; with no prior
        # column, full_u is the identity.
        full_u, sv, _ = np.linalg.svd(prior, full_matrices=True)
        basis = full_u[:, numerical_rank(sv, prior.shape):]
        if basis.shape[1] < 1:
            raise FillInfeasibleError("no orthogonal direction left inside the support", math.inf)

        tail = math.inf
        for _ in range(FILL_RETRY_BUDGET):
            w = basis @ rng.standard_normal(basis.shape[1])
            norm = float(np.linalg.norm(w))
            if norm < 1e-12:
                continue
            vec = w / norm
            heavy = np.abs(vec) >= cutoff
            tail = float(np.sum(vec[heavy] ** 2))
            if tail <= accept_level and int(np.sum(heavy)) <= 2:
                break
        else:
            raise FillInfeasibleError(
                "tail mass %.4g stayed above the accepted level %.4g" % (tail, accept_level),
                tail_mass=tail,
            )
        col = np.zeros(d)
        col[support] = vec
        u[:, ncols] = col
        ncols += 1

    u[:, ncols:] = np.linalg.qr(u[:, :ncols], mode="complete")[0][:, ncols:]
    return u


def build_family(params: PackingParams) -> PackingFamily:
    """Patterns, code, shared prefix, and all unitaries from one master seed."""
    patterns = sample_sparsity_family(params)
    code = sample_code(params, patterns)

    prefix_rng = _rng(params, 0)
    # at t_lo = 1 the QR of a d x 0 draw is the empty d x 0 prefix
    q, r = np.linalg.qr(prefix_rng.standard_normal((params.d, params.t_lo - 1)))
    prefix = q * np.sign(np.diag(r))

    member_seeds = np.random.SeedSequence(entropy=params.seed, spawn_key=(3,)).generate_state(params.s_size)
    unitaries = [
        build_unitary(resolve_supports(r, patterns), params, prefix, int(member_seeds[j]))
        for j, r in enumerate(code)
    ]
    return PackingFamily(patterns=patterns, code=code, unitaries=unitaries)


@dataclass(frozen=True)
class PackingReport:
    """What verify_packing measured, each field a max over members or pairs.

    spectrum_mismatch is a bound, not a measured difference: s_max times the
    Frobenius norm of u^T u - I bounds how far the singular values of
    u diag(spectrum) lie from the sorted spectrum (see verify_packing).
    """

    family_size: int
    psi: float
    unitarity_residual: float
    max_support_overlap: int
    max_off_support: float
    prefix_mismatch: float
    spectrum_mismatch: float
    max_pairwise_cost: float
    cost_bound: float
    min_pairwise_distance: float
    distance_bound: float
    measured_c8: float
    measured_c9: float
    checks: Dict[str, bool] = field(default_factory=dict)
    passed: bool = False


def verify_packing(family: PackingFamily, params: PackingParams) -> PackingReport:
    """Measure every promised property of a built family.

    Every member is measured, or ValueError names what keeps it from being:
    code and unitaries of different counts, a code tuple without n_contested
    entries, a unitary that is not d x d or not finite. Each member's supports
    become one d x n_contested indicator, for its off-support entries and,
    with an earlier member's, the column sums of their overlap. The pairwise
    distance is the block_weights-weighted squared column distance over the
    contested block (ideal 2 * Psi for disjoint supports). The family passes
    at a min distance of DISTANCE_FLOOR * Psi or more and an overlap of at
    most half the support size. A single-member family reports an infinite
    min distance.

    The spectrum check needs no factorization. With E = u^T u - I, the polar
    decomposition u = Q P has Q orthogonal and P = (I + E)^(1/2), whose
    eigenvalues are sqrt(1 + l) over the eigenvalues l of E, so
    ||P - I||_2 <= ||E||_2 <= ||E||_F. The singular values of u diag(s) are
    those of P diag(s) = diag(s) + (P - I) diag(s), so Weyl's inequality for
    singular values gives |sigma_i(u diag(s)) - s_(i)| <= s_max ||E||_2, with
    s_(i) the spectrum sorted non-increasing. spectrum_mismatch reports the
    bound s_max ||E||_F, maximized over members, from the Gram already formed
    for the unitarity check. It leaves out the rounding of forming u^T u, which
    moves each entry of E by at most gamma_d (1 + unitarity_residual),
    gamma_d = d eps / (1 - d eps) for the unit roundoff eps, just as a
    measured SVD leaves out its own backward error. Adding its Frobenius
    share, d gamma_d s_max, would alone fail the 1e-8 check at d 1024 and
    s_max 100.
    """
    if not family.unitaries:
        raise ValueError("empty family")
    if len(family.code) != len(family.unitaries):
        raise ValueError("%d code tuples but %d unitaries" % (len(family.code), len(family.unitaries)))
    d, n = params.d, params.n_contested
    lo, hi = params.t_lo - 1, params.t_hi  # python slice bounds for the block
    weights = params.block_weights
    psi = psi_mass(params)

    # One pass over the members, each compared with the members before it.
    eye = np.eye(d)
    unit_res = off_support = prefix_mismatch = gram_fro = max_cost = 0.0
    min_dist, max_overlap = math.inf, 0
    earlier = []  # code tuple, contested block and support indicator per member
    for j, (r, u) in enumerate(zip(family.code, family.unitaries)):
        if len(r) != n:
            raise ValueError("member %d: code tuple of length %d, not n_contested = %d" % (j, len(r), n))
        if np.shape(u) != (d, d):
            raise ValueError("member %d: unitary of shape %s, not (%d, %d)" % (j, np.shape(u), d, d))
        if not np.all(np.isfinite(u)):  # max() would pass over a NaN measure
            raise ValueError("member %d: unitary with a non-finite entry" % j)
        e = u.T @ u - eye
        unit_res = max(unit_res, float(np.max(np.abs(e))))
        gram_fro = max(gram_fro, float(np.linalg.norm(e)))
        prefix_mismatch = max(prefix_mismatch, float(np.max(
            np.abs(u[:, :lo] - family.unitaries[0][:, :lo]), initial=0.0)))
        block = u[:, lo:hi]
        inside = np.zeros((d, n), dtype=bool)  # inside[i, c]: row i in column c's support
        for c, support in enumerate(resolve_supports(r, family.patterns)):
            inside[support, c] = True
        off_support = max(off_support, float(np.max(np.abs(block[~inside]), initial=0.0)))
        for ra, block_a, inside_a in earlier:
            max_cost = max(max_cost, weighted_cost(ra, r, weights))
            min_dist = min(min_dist, float(np.sum(weights * np.sum((block_a - block) ** 2, axis=0))))
            max_overlap = max(max_overlap, int(np.max(np.sum(inside_a & inside, axis=0))))
        earlier.append((r, block, inside))
    spectrum_mismatch = float(np.max(params.spectrum)) * gram_fro

    cost_bound = params.rho ** ZETA * psi
    # Two existential constants, one measured deficit: split the deficit
    # evenly between the two scales (a reporting convention, nothing more).
    deficit = 0.0 if math.isinf(min_dist) else max(0.0, 2.0 - min_dist / psi) if psi > 0 else 0.0
    c8 = deficit / (2.0 * params.rho ** (LAMBDA_EXP - ETA_EXP))
    c9 = deficit / (2.0 * params.rho ** ZETA)

    checks = {
        "unitarity": unit_res <= UNITARITY_TOL,
        "support_containment": off_support == 0.0,
        "shared_prefix": prefix_mismatch <= 1e-12,
        "spectrum_match": spectrum_mismatch <= 1e-8,
        "code_cost": max_cost <= cost_bound + 1e-12,
        "support_overlap": max_overlap <= params.subset_size // 2,
        "min_distance": min_dist >= DISTANCE_FLOOR * psi,
    }
    return PackingReport(
        family_size=len(family.unitaries),
        psi=psi,
        unitarity_residual=unit_res,
        max_support_overlap=max_overlap,
        max_off_support=off_support,
        prefix_mismatch=prefix_mismatch,
        spectrum_mismatch=spectrum_mismatch,
        max_pairwise_cost=max_cost,
        cost_bound=cost_bound,
        min_pairwise_distance=min_dist,
        distance_bound=psi * (2.0 - deficit),
        measured_c8=c8,
        measured_c9=c9,
        checks=checks,
        passed=all(checks.values()),
    )


def kl_divergence(n1: np.ndarray, n2: np.ndarray, n_samples: int, sigma_eps: float) -> float:
    """KL divergence between the n-sample Gaussian channels y = N z + eps
    induced by two coefficient matrices: n * ||N1 - N2||_F^2 / (2 sigma^2)."""
    if sigma_eps <= 0:
        raise ValueError("sigma_eps must be positive")
    diff = np.asarray(n1, dtype=float) - np.asarray(n2, dtype=float)
    return n_samples * float(np.sum(diff ** 2)) / (2.0 * sigma_eps ** 2)
