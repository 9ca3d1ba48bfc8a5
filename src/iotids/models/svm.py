"""Linear support-vector classifier trained by seeded stochastic subgradient
descent on the primal hinge objective (1/2)||w||^2 + C * sum hinge_i."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SingleClass, WidthMismatch
from ..jsontypes import bundle_field


@dataclass(frozen=True)
class SvmParams:
    C: float = 1.0
    epochs: int = 20
    lr0: float = 0.1
    decay: float = 0.01
    seed: int = 0


@dataclass
class SvmClassifier:
    """Linear SVM over class indices: class 1 on a non-negative margin."""

    w: np.ndarray
    b: float
    C: float
    epochs_trained: int

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    @property
    def n_classes(self) -> int:
        return 2

    def predict(self, X: np.ndarray) -> np.ndarray:
        labels, _ = predict_svm(self, X)
        return ((labels + 1) // 2).astype(np.int64)

    def to_dict(self) -> dict:
        return {"w": self.w.tolist(), "b": self.b, "C": self.C, "epochs_trained": self.epochs_trained}

    @classmethod
    def from_dict(cls, d: dict) -> "SvmClassifier":
        return cls(
            np.asarray(bundle_field(d, "w", list), dtype=float),
            bundle_field(d, "b", float),
            bundle_field(d, "C", float),
            bundle_field(d, "epochs_trained", int),
        )


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = y * (X @ w + b)
    return float(0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - margins).sum())


def fit_linear_svm(X: np.ndarray, y: np.ndarray, params: SvmParams = SvmParams()) -> SvmClassifier:
    """SGD over per-sample subgradients with step lr0 / (1 + t * decay).

    y must be in {-1, +1}.  Row visit order reshuffles each epoch from the
    seeded generator, so training is reproducible and order-contractual.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise SingleClass("labels must contain both -1 and +1")

    n, d = X.shape
    w = np.zeros(d)
    step = np.empty(d)
    b = 0.0
    t = 0
    rows, labels = list(X), y.tolist()
    rng = np.random.default_rng(params.seed)
    for _ in range(params.epochs):
        for i in rng.permutation(n).tolist():
            eta = params.lr0 / (1.0 + t * params.decay)
            t += 1
            x_i, y_i = rows[i], labels[i]
            violated = y_i * (x_i @ w + b) < 1.0
            # in place, with the same operations in the same order as
            # w = (1 - eta) * w + eta * C * y_i * x_i, so w keeps its bits
            w *= 1.0 - eta
            if violated:
                np.multiply(eta * params.C * y_i, x_i, out=step)
                w += step
                b = b + eta * params.C * y_i
    return SvmClassifier(w, b, params.C, params.epochs)


def predict_svm(model: SvmClassifier, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels in {-1,+1}, margins); a zero margin classifies as +1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.w.shape[0]:
        raise WidthMismatch(model.w.shape[0], X.shape[1] if X.ndim == 2 else -1)
    margins = X @ model.w + model.b
    labels = np.where(margins >= 0.0, 1, -1)
    return labels, margins

