"""The spectral utilities on their own.

Rank selection rules, the gap/tail index scan, and the absolute cosines of
the angles between sample and population eigenvectors.
"""

import numpy as np

from arrr.spectral import (
    angle_matrix,
    decompose,
    find_gap_tail_index,
    select_gap_rank,
    select_threshold_rank,
)
from arrr.synth import gen_covariance, gen_design

# --- rank selection on a spectrum with one clean gap
lambdas = np.array([5.0, 4.8, 2.0, 0.3, 0.29, 0.28])
print("gap rule, delta=1.0 ->", select_gap_rank(lambdas, delta=1.0))
print("threshold rule, tau=1.0 ->", select_threshold_rank(lambdas, tau=1.0))

# --- gap/tail scan: find an index where the spectrum both drops sharply
# and has little mass left behind it
d = 1000
lam = np.arange(1, d + 1, dtype=float) ** -2.0
lam /= lam.sum()
for ell in (20, 50, 100):
    idx, gap, tail = find_gap_tail_index(lam, ell=ell, tau_param=0.9)
    print("ell=%3d -> index %d, gap %.2e, tail %.4f (budget %.4f)"
          % (ell, idx, gap, tail, ell ** -0.9))

# --- sample eigenvectors vs the truth: the leading directions are
# recovered well even at n << d1, the rest are progressively noisier;
# angle_matrix gives |cos| of each angle, so 1 is a perfect match
v_star, lambda_star = gen_covariance(300, omega=2.0, seed=0)
x = gen_design(v_star, lambda_star, n=100, seed=1)
dec = decompose(x)
cosines = angle_matrix(dec.v[:, :6], v_star[:, :6])
print("|cos| of the angles between top-6 sample/true directions:")
print(np.array2string(np.diag(cosines), precision=3))
