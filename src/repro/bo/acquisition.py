"""Acquisition functions for Bayesian optimization.

The paper ranks candidates with the upper-confidence bound (Eq. 3)::

    UCB(h) = μ(h) + κ σ(h)

for a *maximization* objective (validation accuracy).  ``κ = 0`` is pure
exploitation; larger κ explores high-variance regions.  The paper's key
finding (Fig. 8) is that strong exploitation (κ = 0.001) dominates the
conventional κ = 1.96 inside AgEBO.
"""

from __future__ import annotations

import numpy as np

__all__ = ["upper_confidence_bound"]


def upper_confidence_bound(mu: np.ndarray, sigma: np.ndarray, kappa: float) -> np.ndarray:
    """UCB scores for maximization: ``μ + κ σ``."""
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != sigma.shape:
        raise ValueError(f"mu/sigma shape mismatch: {mu.shape} vs {sigma.shape}")
    return mu + kappa * sigma

