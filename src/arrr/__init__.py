"""Adaptive reduced rank regression for the n < d1 + d2 regime.

Two-stage estimator (gap-thresholded PCA whitening, then hard-thresholded
matrix denoising), synthetic benchmark generator, classical baselines,
evaluation harness, rolling backtest utilities, and a constructive verifier
for the matching minimax lower-bound packing.
"""

from ._version import __version__
