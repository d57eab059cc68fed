"""Adaptive reduced rank regression for the n < d1 + d2 regime.

Two-stage estimator (gap-thresholded PCA whitening, then hard-thresholded
matrix denoising), synthetic benchmark generator, classical baselines,
evaluation harness, rolling backtest utilities, and a constructive verifier
for the matching minimax lower-bound packing.
"""

from ._version import __version__
from .estimator import (
    FitConfig,
    FittedModel,
    NoGapError,
    ZeroResidualError,
    estimate_noise_sigma,
    fit_adaptive_rrr,
    fit_path,
    load_model,
    predict,
    save_model,
)
from .synth import SynthConfig, SyntheticInstance, make_instance
from .baselines import BaselineSpec, LinearModel, fit_baseline, predict_linear
from .metrics import MetricsReport, evaluate, merge_splits, aggregate

__all__ = [
    "__version__",
    "FitConfig",
    "FittedModel",
    "NoGapError",
    "ZeroResidualError",
    "estimate_noise_sigma",
    "fit_adaptive_rrr",
    "fit_path",
    "load_model",
    "predict",
    "save_model",
    "SynthConfig",
    "SyntheticInstance",
    "make_instance",
    "BaselineSpec",
    "LinearModel",
    "fit_baseline",
    "predict_linear",
    "MetricsReport",
    "evaluate",
    "merge_splits",
    "aggregate",
]
