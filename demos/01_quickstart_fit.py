"""Quickstart: generate a low-rank instance, fit it in two stages, score it.

The estimator whitens the design with one SVD, denoises the response
cross-moments with a second, and multiplies the two maps back together.
Everything below runs in well under a second.
"""

import tempfile

import numpy as np

from arrr.estimator import FitConfig, fit_adaptive_rrr, load_model, predict, save_model
from arrr.metrics import pooled_scores
from arrr.synth import SynthConfig, gen_dataset, make_instance

# A rank-3 coefficient matrix observed through 80 noisy samples. The
# feature covariance has power-law eigenvalues, so most of the design's
# energy lives in a handful of directions.
config = SynthConfig(d1=60, d2=20, n=80, rank_m=3, eta=0.5, seed=7)
inst = make_instance(config)
print("instance: d1=%d d2=%d n=%d rank=%d, noise sigma %.4f"
      % (config.d1, config.d2, config.n, config.rank_m, inst.sigma_noise))

# Fit with the generator's own noise level. Leaving sigma_eps="auto"
# estimates it from a pilot regression instead.
model = fit_adaptive_rrr(inst.x, inst.y, FitConfig(sigma_eps=inst.sigma_noise))
print("selected k1=%d whitened directions, kept k2=%d of them" % (model.k1, model.k2))

# Raw coefficient error is dominated by directions the design barely
# excites (tiny covariance eigenvalues); weight by the covariance square
# root to see the part that matters for prediction.
half = inst.v_star * np.sqrt(inst.lambda_star)
raw = np.linalg.norm(model.m_hat - inst.m) / np.linalg.norm(inst.m)
weighted = (np.linalg.norm((model.m_hat - inst.m) @ half)
            / np.linalg.norm(inst.m @ half))
print("coefficient error: %.3f raw, %.3f covariance-weighted" % (raw, weighted))

# Out-of-sample check on a fresh draw from the same instance.
x_new, y_new, _ = gen_dataset(inst.m, inst.v_star, inst.lambda_star,
                              200, config.eta, seed=1234)
mse, _, corr = pooled_scores(y_new, predict(model, x_new))
print("test normalized MSE %.3f, per-column correlation %.3f" % (mse, corr))

# Models round-trip through a plain directory of CSV + JSON.
with tempfile.TemporaryDirectory() as tmp:
    save_model(model, tmp)
    reloaded = load_model(tmp)
    same = np.array_equal(predict(reloaded, x_new), predict(model, x_new))
    print("persisted and reloaded, predictions identical:", same)
