"""Constructive verifier for the local-minimax packing family.

Builds a family of d x d unitary matrices that share a fixed spectrum and the
first t_lo - 1 columns, whose middle-block columns live on sparse random
supports chosen by a low-collision code, and whose pairwise distances (in the
spectrum-weighted column metric over the contested block) stay large. Every
property the construction promises is measured, never assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spectral import NumericalFailure, numerical_rank

UNITARITY_TOL = 1e-10


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
    lambda_exp: float = 0.501      # support-size exponent (1/2 + xi)
    zeta: float = 0.5              # cost-budget exponent
    eta_exp: float = 0.001         # spread-cutoff exponent

    @property
    def noise_floor(self) -> float:
        """rho * sigma_eps * sqrt(d / n), where the contested block starts."""
        return self.rho * self.sigma_eps * math.sqrt(self.d / self.n_samples)

    @property
    def subset_size(self) -> int:
        return int(self.rho ** self.lambda_exp * self.d)

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

    def __post_init__(self) -> None:
        # comparisons are written so that NaN fails them
        if self.d < 2 or not 0 < self.rho < 1:
            raise ValueError("need d >= 2 and rho in (0, 1)")
        if not 0 < self.sigma_eps < math.inf or self.n_samples < 1:
            raise ValueError("sigma_eps must be positive and finite, n_samples >= 1")
        if self.k_patterns < 1 or self.s_size < 1:
            raise ValueError("k_patterns and s_size must be >= 1")
        if not all(e > 0 for e in (self.lambda_exp, self.zeta, self.eta_exp)):
            raise ValueError("lambda_exp, zeta and eta_exp must be positive")
        # the cost budget, the spread cutoff and c8 divide by these powers
        for name, e in (("zeta", self.zeta),
                        ("lambda_exp + eta_exp", self.lambda_exp + self.eta_exp),
                        ("lambda_exp - eta_exp", self.lambda_exp - self.eta_exp)):
            if not _positive_finite_power(self.rho, e):
                raise ValueError("rho ** (%s) must be positive and finite" % name)
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


def _positive_finite_power(base: float, e: float) -> bool:
    """Whether base ** e neither underflows to 0 nor overflows, NaN e failing."""
    try:
        return 0 < float(base) ** float(e) < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class PackingFamily:
    patterns: List[List[np.ndarray]]   # per contested column: k_patterns index subsets
    code: List[Tuple[int, ...]]        # per member: pattern index per contested column
    unitaries: List[np.ndarray]


def psi_mass(params: PackingParams) -> float:
    """Spectral mass over the contested block, sum of sigma_i^2 on [t_lo, t_hi]."""
    block = np.asarray(params.spectrum[params.t_lo - 1 : params.t_hi], dtype=float)
    return float(np.sum(block ** 2))


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


def weighted_cost(
    r1: Sequence[int],
    r2: Sequence[int],
    spectrum: np.ndarray,
    t_lo: int,
    t_hi: int,
) -> float:
    """Spectrum-weighted agreement count: sum of sigma_i^2 over positions
    where the two code tuples pick the same pattern index."""
    if len(r1) != len(r2) or len(r1) != t_hi - t_lo + 1:
        raise ValueError("code tuples must cover [t_lo, t_hi]")
    block = np.asarray(spectrum[t_lo - 1 : t_hi], dtype=float) ** 2
    agree = np.fromiter((a == b for a, b in zip(r1, r2)), dtype=bool, count=len(r1))
    return float(np.sum(block[agree]))


CODE_RETRY_BUDGET = 20
FILL_RETRY_BUDGET = 100


def sample_code(params: PackingParams, patterns: List[List[np.ndarray]]) -> List[Tuple[int, ...]]:
    """Draw s_size distinct tuples from the pattern product, resampling any
    tuple whose max pairwise cost against the accepted ones exceeds
    rho^zeta * Psi. Budget: 20 retries per tuple."""
    target = params.rho ** params.zeta * psi_mass(params)
    rng = _rng(params, 2)
    code: List[Tuple[int, ...]] = []
    for _ in range(params.s_size):
        retries = 0
        while True:
            cand = tuple(int(v) for v in rng.integers(0, params.k_patterns, size=params.n_contested))
            worst = max(
                (weighted_cost(cand, prev, params.spectrum, params.t_lo, params.t_hi) for prev in code),
                default=0.0,
            )
            if cand not in code and worst <= target:
                code.append(cand)
                break
            retries += 1
            if retries > CODE_RETRY_BUDGET:
                raise PackingInfeasibleError(
                    "could not sample a tuple with max cost <= %.6g (achieved %.6g)"
                    % (target, worst),
                    achieved_cost=worst,
                )
    return code


def resolve_supports(r: Sequence[int], patterns: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Map a code tuple to its per-column index subsets."""
    return [patterns[c][idx] for c, idx in enumerate(r)]


@functools.lru_cache(maxsize=None)
def calibrate_fill_constants(subset_size: int) -> Tuple[float, float]:
    """One-time Monte-Carlo calibration of the spread-acceptance constants.

    Over 10^4 normalized Gaussian draws in the support dimension, picks the
    smallest entry-cutoff scale (in units of 1/sqrt(support dim)) for which at
    most 2 entries exceed the cutoff in >= 90% of draws, then sets the
    accepted tail-mass level at the 60th percentile so that typical draws are
    accepted. Cached per support size; the internal seed is fixed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=20240131, spawn_key=(subset_size,)))
    draws = rng.standard_normal((10_000, subset_size))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    chosen = None
    for scale in np.arange(1.0, 3.01, 0.05):
        cutoff = scale / math.sqrt(subset_size)
        heavy_counts = np.sum(np.abs(draws) >= cutoff, axis=1)
        if np.mean(heavy_counts <= 2) >= 0.9:
            chosen = float(scale)
            break
    if chosen is None:
        chosen = 3.0
    cutoff = chosen / math.sqrt(subset_size)
    masses = np.sum(np.where(np.abs(draws) >= cutoff, draws ** 2, 0.0), axis=1)
    level = float(np.quantile(masses, 0.6))
    return chosen, level


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
    cutoff = c5_scale / math.sqrt(params.rho ** (params.lambda_exp + params.eta_exp) * d)
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

        accepted = None
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
                accepted = vec
                break
        if accepted is None:
            raise FillInfeasibleError(
                "tail mass %.4g stayed above the accepted level %.4g" % (tail, accept_level),
                tail_mass=tail,
            )
        col = np.zeros(d)
        col[support] = accepted
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


def verify_packing(
    family: PackingFamily,
    params: PackingParams,
    distance_floor: float = 1.5,
    overlap_max: Optional[int] = None,
) -> PackingReport:
    """Measure every promised property of a built family.

    The pairwise distance is the spectrum-weighted squared column distance
    over the contested block [t_lo, t_hi] (the ideal for disjoint supports is
    2 * Psi). distance_floor scales Psi to give the pass threshold; the
    default overlap budget is half the support size. A single-member family
    reports an infinite min distance.
    """
    if not family.unitaries:
        raise ValueError("empty family")
    if not 0 < distance_floor < math.inf:  # NaN and infinity fail too
        raise ValueError("distance_floor must be positive and finite")
    if overlap_max is not None and overlap_max < 0:
        raise ValueError("overlap_max must be >= 0")
    d = params.d
    lo, hi = params.t_lo - 1, params.t_hi  # python slice bounds for the block
    block_w = np.asarray(params.spectrum[lo:hi], dtype=float) ** 2
    psi = psi_mass(params)
    if overlap_max is None:
        overlap_max = params.subset_size // 2

    # One pass over the members, one member's d x d temporaries at a time.
    eye = np.eye(d)
    prefix = family.unitaries[0][:, :lo]
    spec_sorted = np.sort(np.asarray(params.spectrum, dtype=float))[::-1]
    members = [(r, u, resolve_supports(r, family.patterns))
               for r, u in zip(family.code, family.unitaries)]
    unit_res = off_support = prefix_mismatch = spectrum_mismatch = 0.0
    for _, u, supp in members:
        unit_res = max(unit_res, float(np.max(np.abs(u.T @ u - eye))))
        for c, s in enumerate(supp):
            mask = np.ones(d, dtype=bool)
            mask[s] = False
            off_support = max(off_support, float(np.max(np.abs(u[mask, lo + c]))))
        prefix_mismatch = max(prefix_mismatch,
                              float(np.max(np.abs(u[:, :lo] - prefix), initial=0.0)))
        sv = np.linalg.svd(u * params.spectrum, compute_uv=False)
        spectrum_mismatch = max(spectrum_mismatch, float(np.max(np.abs(sv - spec_sorted))))

    max_cost, min_dist, max_overlap = 0.0, math.inf, 0
    for (ra, ua, sa), (rb, ub, sb) in itertools.combinations(members, 2):
        max_cost = max(max_cost, weighted_cost(ra, rb, params.spectrum, params.t_lo, params.t_hi))
        diff = ua[:, lo:hi] - ub[:, lo:hi]
        min_dist = min(min_dist, float(np.sum(block_w * np.sum(diff ** 2, axis=0))))
        for a, b in zip(sa, sb):
            max_overlap = max(max_overlap, len(np.intersect1d(a, b)))

    cost_bound = params.rho ** params.zeta * psi
    # Two existential constants, one measured deficit: split the deficit
    # evenly between the two scales (a reporting convention, nothing more).
    deficit = 0.0 if math.isinf(min_dist) else max(0.0, 2.0 - min_dist / psi) if psi > 0 else 0.0
    c8 = deficit / (2.0 * params.rho ** (params.lambda_exp - params.eta_exp))
    c9 = deficit / (2.0 * params.rho ** params.zeta)

    checks = {
        "unitarity": unit_res <= UNITARITY_TOL,
        "support_containment": off_support == 0.0,
        "shared_prefix": prefix_mismatch <= 1e-12,
        "spectrum_match": spectrum_mismatch <= 1e-8,
        "code_cost": max_cost <= cost_bound + 1e-12,
        "support_overlap": max_overlap <= overlap_max,
        "min_distance": min_dist >= distance_floor * psi,
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
