"""A small end-to-end panel workflow without the CLI.

Builds a return panel, turns it into lookback features and forward
targets, walks rolling train/validation/test windows, and fits the
two-stage estimator per fold. The `arrr rolling` subcommand wraps this
same loop behind a JSON config.
"""

import numpy as np

from arrr.dataio import ReturnPanel, make_features, rolling_splits
from arrr.estimator import FitConfig, fit_adaptive_rrr
from arrr.metrics import evaluate

# Synthetic panel: 240 periods x 8 assets driven by one persistent common
# factor, so yesterday's returns genuinely forecast today's. Two missing
# cells exercise the feature builder's row dropping.
rng = np.random.default_rng(42)
periods, assets = 240, 8
factor = np.zeros(periods)
for t in range(1, periods):
    factor[t] = 0.8 * factor[t - 1] + rng.normal()
loadings = rng.uniform(0.5, 1.5, size=assets)
returns = np.outer(factor, loadings) + 0.8 * rng.normal(size=(periods, assets))
returns[17, 2] = np.nan
returns[63, 5] = np.nan
panel = ReturnPanel(dates=["t%03d" % i for i in range(periods)],
                    assets=["A%d" % j for j in range(assets)],
                    values=returns)

x, y, anchors = make_features(panel, lookbacks=[1], horizon=1)
print("panel %dx%d -> %d usable rows, %d features, %d targets"
      % (periods, assets, x.shape[0], x.shape[1], y.shape[1]))

folds = rolling_splits(anchors, train_len=80, valid_len=20,
                       test_len=20, gap_len=2)
print("%d rolling folds, gap of 2 periods between windows" % len(folds))

mse, corr = [], []
for k, fold in enumerate(folds):
    tr, te = list(fold.train), list(fold.test)
    model = fit_adaptive_rrr(x[tr], y[tr], FitConfig(sigma_eps="auto"))
    rep = evaluate(model, x[te], y[te])
    mse.append(rep.mse_out)
    corr.append(rep.corr_out)
    print("  fold %d: train %s..%s, kept rank %d, test mse %.3f corr %+.3f"
          % (k, anchors[tr[0]], anchors[tr[-1]], model.k2,
             rep.mse_out, rep.corr_out))

# The fit keeps a single direction per fold: the common factor is the
# only thing in this panel worth forecasting with, and it found it.
print("across folds: mse %.3f +/- %.3f, corr %+.3f"
      % (np.mean(mse), np.std(mse, ddof=1), np.mean(corr)))
