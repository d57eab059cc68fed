"""Structured unitary families and channel divergence.

Builds a family of unitaries that agree on a shared prefix block, differ
on sparse contested columns, and stay far apart in a spectrum-weighted
distance. Then checks the closed-form divergence between two linear
channels against simulation.
"""

import numpy as np

from arrr.packing import (
    PackingParams,
    build_family,
    kl_divergence,
    psi_mass,
    verify_packing,
)

params = PackingParams(d=64, rho=0.0158, sigma_eps=1.0, n_samples=100,
                       k_patterns=16, s_size=8, seed=1)
print("dimension %d, contested block [%d, %d], subset size %d"
      % (params.d, params.t_lo, params.t_hi, params.subset_size))

family = build_family(params)
report = verify_packing(family, params)
psi = psi_mass(params)
print("family of %d unitaries" % len(family.unitaries))
print("  unitarity residual   %.2e" % report.unitarity_residual)
print("  min pairwise dist    %.4f  (%.2fx the block mass %.4f)"
      % (report.min_pairwise_distance,
         report.min_pairwise_distance / psi, psi))
print("  max support overlap  %d" % report.max_support_overlap)
print("  verdict:", "pass" if report.passed else "fail")

# Two family members define two regression channels y = N z + noise with
# N = U * diag(spectrum). Their distinguishability from n samples has a
# closed form; a quick simulation agrees.
n1 = family.unitaries[0] * params.spectrum
n2 = family.unitaries[1] * params.spectrum
closed = kl_divergence(n1, n2, params.n_samples, params.sigma_eps)

rng = np.random.default_rng(0)
draws = 200_000
z = rng.standard_normal((draws, params.d))
y = z @ n1.T + params.sigma_eps * rng.standard_normal((draws, params.d))
llr = (np.sum((y - z @ n2.T) ** 2, axis=1)
       - np.sum((y - z @ n1.T) ** 2, axis=1)) / (2 * params.sigma_eps ** 2)
mc = params.n_samples * float(np.mean(llr))
print("channel divergence: closed form %.4f, simulated %.4f" % (closed, mc))
