"""K-nearest-neighbour classification by exhaustive Euclidean search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import BadK, WidthMismatch

_CHUNK = 64  # query rows per distance block; bounds memory at chunk*n*d floats


@dataclass
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def predict(self, X_query: np.ndarray) -> np.ndarray:
        return predict_knn(self, X_query)

    def to_dict(self) -> dict:
        return {"k": self.k, "X": self.X.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "KnnModel":
        return fit_knn(d["X"], d["y"], d["k"])


def fit_knn(X: np.ndarray, y: np.ndarray, k: int = 5) -> KnnModel:
    """Lazy learner: stores the (scaled) training data verbatim."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if type(k) is not int or not 1 <= k <= X.shape[0]:
        raise BadK(f"k={k!r} is not an int in [1, {X.shape[0]}]")
    return KnnModel(X, y, k)


def predict_knn(model: KnnModel, X_query: np.ndarray) -> np.ndarray:
    """Majority label of the k nearest stored rows.

    Distance ties take the lower stored index; majority ties take the class
    with the smaller summed neighbour distance, then the lower class index.
    """
    X_query = np.asarray(X_query, dtype=float)
    if X_query.ndim != 2 or X_query.shape[1] != model.X.shape[1]:
        raise WidthMismatch(model.X.shape[1], X_query.shape[1] if X_query.ndim == 2 else -1)
    n_classes = int(model.y.max()) + 1
    out = np.empty(X_query.shape[0], dtype=np.int64)
    for start in range(0, X_query.shape[0], _CHUNK):
        chunk = X_query[start : start + _CHUNK]
        # elementwise differences keep exact ties exact (duplicates -> 0)
        dists = np.sqrt(((chunk[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=-1))
        order = np.argsort(dists, axis=1, kind="stable")[:, : model.k]
        for i in range(chunk.shape[0]):
            nn = order[i]
            labels = model.y[nn]
            counts = np.bincount(labels, minlength=n_classes)
            top = counts.max()
            tied = np.flatnonzero(counts == top)
            if tied.shape[0] == 1:
                out[start + i] = tied[0]
                continue
            sums = np.array([dists[i, nn[labels == c]].sum() for c in tied])
            out[start + i] = tied[np.argmin(sums)]  # first min -> lower class index
    return out
