"""Convergence samples of the lasso and nuclear-norm ADMM fits.

Each sample is FITS small fits drawn as the solver property tests in
tests/test_baselines.py draw theirs (`_iterative_cases`): n and d1 from 3 to
12, d2 from 1 to 4, x and y standard normal, x's first column zeroed and its
last a copy of its second each with probability 1/2, and mu = scale *
max |x^T y| with scale one of 0, 0.01, 0.1, 0.3, 1 and 1.5. Each sample's draws
come from one numpy seed of SEEDS. For each sample the script prints, per method, the
fits, the unconverged fits and the iterations taken, so that a solver change
can be checked against its parent on the same draws.

Run from the repository root:

    PYTHONPATH=src python tools/admm_convergence.py
"""

from __future__ import annotations

import numpy as np

from arrr.baselines import BaselineSpec, fit_baseline

SCALES = (0.0, 0.01, 0.1, 0.3, 1.0, 1.5)
METHODS = ("lasso", "nuclear")
SEEDS = (1000, 1001, 1002)  # one sample per numpy seed
FITS = 1000  # fits per sample


def draw_case(rng):
    """(method, mu, x, y) for one fit, as `_iterative_cases` draws it."""
    n, d1, d2 = (int(v) for v in rng.integers([3, 3, 1], [13, 13, 5]))
    data = np.random.default_rng(int(rng.integers(0, 2 ** 16 + 1)))
    x, y = data.normal(size=(n, d1)), data.normal(size=(n, d2))
    if rng.random() < 0.5:
        x[:, 0] = 0.0
    if rng.random() < 0.5:
        x[:, -1] = x[:, 1]
    scale = SCALES[int(rng.integers(len(SCALES)))]
    method = METHODS[int(rng.integers(len(METHODS)))]
    return method, scale * float(np.max(np.abs(x.T @ y))), x, y


def sample(seed):
    """Per method: [fits, unconverged fits, iterations] over one sample."""
    rng = np.random.default_rng(seed)
    counts = {method: [0, 0, 0] for method in METHODS}
    for _ in range(FITS):
        method, mu, x, y = draw_case(rng)
        model = fit_baseline(BaselineSpec(method, mu=mu), x, y)
        tally = counts[method]
        tally[0] += 1
        tally[1] += not model.converged
        tally[2] += model.iterations_used
    return counts


def main():
    print("seed method fits unconverged iterations")
    for seed in SEEDS:
        for method, (n, bad, iters) in sample(seed).items():
            print(seed, method, n, bad, iters)


if __name__ == "__main__":
    main()
