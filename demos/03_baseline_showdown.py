"""Head-to-head with classical penalized regressions.

Each baseline gets its hyperparameter chosen on a validation draw, then
everyone is scored on a held-out test draw. n < d1 here, so ordinary
least squares interpolates and the regularizer does all the work.
"""

import numpy as np

from arrr.baselines import BaselineSpec, validate_hyperparams, validation_window
from arrr.estimator import FitConfig, fit_adaptive_rrr, predict
from arrr.metrics import pooled_scores
from arrr.synth import SynthConfig, gen_dataset, make_instance

inst = make_instance(SynthConfig(d1=120, d2=40, n=80, rank_m=5,
                                 eta=0.5, seed=3))
x_val, y_val, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                              80, 0.5, seed=501)
x_te, y_te, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                            80, 0.5, seed=502)


def held_out_mse(fitted):
    return pooled_scores(y_te, predict(fitted, x_te))[0]


rows = []

model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
rows.append(("adaptive_rrr", "k2=%d" % model.k2, held_out_mse(model)))

grids = {
    "ridge": [BaselineSpec("ridge", mu=mu) for mu in (0.1, 1.0, 10.0)],
    "rrr": [BaselineSpec("rrr", rank=r) for r in (2, 5, 10)],
    "reduced_rank_ridge": [BaselineSpec("reduced_rank_ridge", mu=mu, rank=r)
                           for mu in (0.1, 1.0) for r in (5, 10)],
    "lasso": [BaselineSpec("lasso", mu=mu) for mu in (0.01, 0.1)],
    "nuclear": [BaselineSpec("nuclear", mu=mu) for mu in (0.1, 1.0)],
}
window = validation_window((inst.x, inst.y), (x_val, y_val))  # one SVD for every grid
for name, grid in grids.items():
    fitted = validate_hyperparams(grid, window)
    best = fitted.method
    tag = "mu=%g" % best.mu
    if best.rank is not None:
        tag += " rank=%d" % best.rank
    rows.append((name, tag, held_out_mse(fitted)))

print("test normalized MSE (lower is better), hyperparams picked on validation")
for name, tag, mse in sorted(rows, key=lambda r: r[2]):
    print("  %-20s %-16s %.4f" % (name, tag, mse))
