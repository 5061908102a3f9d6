"""Acquisition functions for Bayesian optimization."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

#: sqrt(2 pi), computed as ``scipy.stats.norm`` computes its pdf constant
_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal pdf; ``scipy.stats.norm.pdf`` bit for bit, except
    that a NaN ``z`` may yield a NaN of the other sign."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: "float | np.ndarray",
    xi: float = 0.01,
) -> np.ndarray:
    """EI for minimization: E[max(best - f - xi, 0)] under N(mean, std^2).

    Balances exploitation (low predicted mean) against exploration (high
    predictive uncertainty) — the balance Section 3.2 asks of the batch
    sampler's acquisition.  ``best`` may be a scalar or an array that
    broadcasts against ``mean`` (one incumbent per row of a pool matrix).
    The normal cdf/pdf come from ``scipy.special.ndtr`` and the closed
    form, which is what ``scipy.stats.norm`` evaluates, without importing
    ``scipy.stats`` (a large share of CLI start-up).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = best - mean - xi
    z = improvement / std
    return improvement * ndtr(z) + std * _norm_pdf(z)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, beta: float = 2.0
) -> np.ndarray:
    """Lower-confidence bound for minimization (named UCB by convention)."""
    return -(np.asarray(mean, dtype=float) - beta * np.asarray(std, dtype=float))
