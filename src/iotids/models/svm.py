"""Linear support-vector classifier trained by seeded stochastic subgradient
descent on the primal hinge objective (1/2)||w||^2 + C * sum hinge_i."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelDataMismatch, SingleClass
from ..jsontypes import bundle_field, bundle_float_array
from . import input_rows

# bound on the elements (steps x width) of one chunk's gathered rows, and of
# its step rows: the steps of a chunk are max(1, _CHUNK_ELEMENTS // width)
_CHUNK_ELEMENTS = 1 << 17


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
        w = bundle_float_array(d, "w")
        if w.ndim != 1:
            raise ModelDataMismatch("an SVM bundle needs w as one list of numbers")
        return cls(
            w,
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
    Each step computes, in this order, with these IEEE operations:
    violated = y_i * (x_i . w + b) < 1; w = (1 - eta) * w; and if violated,
    w = w + (eta * C * y_i) * x_i and b = b + eta * C * y_i.  The rows of
    a chunk of consecutive steps (_CHUNK_ELEMENTS // width of them), and
    their step rows (eta * C * y_i) * x_i, are gathered and computed at
    once, so a step makes three numpy calls.
    """
    X = np.ascontiguousarray(X, dtype=float)  # contiguous rows: the dot product's bits depend on the stride
    y = np.asarray(y, dtype=float)
    if set(y.ravel().tolist()) != {-1.0, 1.0}:  # not np.unique, which imports numpy.ma
        raise SingleClass("labels must contain both -1 and +1")

    n, d = X.shape
    chunk_steps = max(1, _CHUNK_ELEMENTS // max(1, d))
    w = np.zeros(d)
    b = 0.0
    t = 0
    rng = np.random.default_rng(params.seed)
    for _ in range(params.epochs):
        order = rng.permutation(n)
        for start in range(0, n, chunk_steps):
            chunk = order[start : start + chunk_steps]
            rows, labels = X[chunk], y[chunk]
            etas = np.array([params.lr0 / (1.0 + (t + j) * params.decay) for j in range(chunk.shape[0])])
            t += chunk.shape[0]
            c = (etas * params.C) * labels
            steps = c[:, None] * rows
            for x_i, y_i, eta, c_i, step_i in zip(rows, labels.tolist(), etas.tolist(), c.tolist(), steps):
                violated = y_i * (x_i.dot(w) + b) < 1.0
                np.multiply(w, 1.0 - eta, out=w)
                if violated:
                    np.add(w, step_i, out=w)
                    b = b + c_i
    return SvmClassifier(w, b, params.C, params.epochs)


def predict_svm(model: SvmClassifier, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels in {-1,+1}, margins); a zero margin classifies as +1."""
    X = input_rows(X, model.w.shape[0])
    margins = X @ model.w + model.b
    labels = np.where(margins >= 0.0, 1, -1)
    return labels, margins

