"""Initialization, penalty, and loss primitives (the activations and their
derivatives are the layers' own, in layers.py).

Gradient convention that matters for finite-difference checks: sign(0) = 0
in the L1 penalty gradient.
"""

from __future__ import annotations

import numpy as np

from ..errors import BadOneHot
from ..numerics import PROB_FLOOR, softmax  # noqa: F401  (softmax re-exported)


def categorical_cross_entropy(p: np.ndarray, y_one_hot: np.ndarray) -> float:
    """-sum(y * log p) for one sample, with p floored at 1e-12."""
    y = np.asarray(y_one_hot, dtype=float)
    if y.ndim != 1 or not np.all((y == 0.0) | (y == 1.0)) or y.sum() != 1.0:
        raise BadOneHot("target must be a one-hot vector")
    p = np.asarray(p, dtype=float)
    return float(-np.sum(y * np.log(np.maximum(p, PROB_FLOOR))))


def elastic_net_penalty(
    weights: list[np.ndarray], l1: float, l2: float
) -> tuple[float, list[np.ndarray]]:
    """lambda1 * sum|w| + lambda2 * sum w^2 over weight matrices only,
    with per-matrix gradient contributions lambda1*sign(w) + 2*lambda2*w."""
    if l1 < 0 or l2 < 0:
        raise ValueError("penalty strengths must be non-negative")
    penalty = 0.0
    grads = []
    for w in weights:
        penalty += l1 * np.abs(w).sum() + l2 * (w**2).sum()
        grads.append(l1 * np.sign(w) + 2.0 * l2 * w)
    return float(penalty), grads


def glorot_uniform_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0) / np.sqrt(fan_in + fan_out))


def glorot_uniform(n_in: int, n_out: int, rng: np.random.Generator) -> np.ndarray:
    """(n_in, n_out) matrix sampled uniformly from (-b, b), b = sqrt(6/(n_in+n_out))."""
    if n_in < 1 or n_out < 1:
        raise ValueError("fan sizes must be >= 1")
    bound = glorot_uniform_bound(n_in, n_out)
    return rng.uniform(-bound, bound, size=(n_in, n_out))
