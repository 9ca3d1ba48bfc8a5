"""Multi-class AdaBoost (SAMME) over shallow CART trees."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import EmptyInput, WidthMismatch
from ..jsontypes import bundle_field
from .tree import DecisionTree, TreeParams, grow_tree, presort, stack_trees

# floor for the weighted error when a weak learner is perfect; caps the stage weight
_EPS = 1e-10


@dataclass(frozen=True)
class AdaParams:
    n_rounds: int = 50
    weak_depth: int = 1
    min_samples_leaf: int = 1


@dataclass
class AdaModel:
    stages: list[tuple[DecisionTree, float]]
    n_classes: int
    n_features: int
    params: AdaParams

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_adaboost(self, X)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "stages": [{"tree": t.to_dict(), "alpha": a} for t, a in self.stages],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AdaModel":
        n_classes = bundle_field(d, "n_classes", int)
        n_features = bundle_field(d, "n_features", int)
        return cls(
            stages=[
                (DecisionTree.from_dict(s["tree"], n_features, n_classes), bundle_field(s, "alpha", float))
                for s in bundle_field(d, "stages", list)
            ],
            n_classes=n_classes,
            n_features=n_features,
            params=AdaParams(**bundle_field(d, "params", AdaParams)),
        )


def fit_adaboost(X: np.ndarray, y: np.ndarray, params: AdaParams = AdaParams(), *, n_classes: int) -> AdaModel:
    """SAMME boosting over labels in [0, n_classes): stage weight ln((1-e)/e) + ln(C-1), misclassified rows
    reweighted by exp(alpha) and renormalized each round.

    A round with weighted error >= 1 - 1/C is discarded and training stops;
    a perfect round gets the capped alpha (error floored at 1e-10) and stops.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyInput("fit_adaboost needs at least one row")
    if params.n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    n, d = X.shape
    tree_params = TreeParams(
        max_depth=params.weak_depth,
        min_samples_leaf=params.min_samples_leaf,
        task="classification",
        n_classes=n_classes,
    )

    w = np.full(n, 1.0 / n)
    sorted_rows = presort(X)  # only the weights change between rounds
    stages: list[tuple[DecisionTree, float]] = []
    for _ in range(params.n_rounds):
        tree, leaves = grow_tree(X, y, w, tree_params, presorted=sorted_rows)
        miss = tree.predict_from_leaves(leaves) != y
        err = float(w[miss].sum())
        if err >= 1.0 - 1.0 / n_classes:
            break
        if err <= 0.0:
            stages.append((tree, math.log((1.0 - _EPS) / _EPS) + math.log(n_classes - 1)))
            break
        alpha = math.log((1.0 - err) / err) + math.log(n_classes - 1)
        stages.append((tree, alpha))
        w = w * np.exp(alpha * miss)
        w = w / w.sum()

    return AdaModel(stages, n_classes, d, params)


def predict_adaboost(model: AdaModel, X: np.ndarray) -> np.ndarray:
    """argmax over summed stage weights of each stage's hard vote."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise WidthMismatch(model.n_features, X.shape[1] if X.ndim == 2 else -1)
    table = stack_trees([tree for tree, _ in model.stages])

    def labels(X: np.ndarray) -> np.ndarray:
        scores = np.zeros((X.shape[0], model.n_classes))
        for rows, leaves in table.leaf_blocks(X):
            votes, block = table.value[leaves], scores[rows]
            at = np.arange(block.shape[0])
            for s, (_, alpha) in enumerate(model.stages):  # stage by stage, as fit
                block[at, votes[s]] += alpha
        return np.argmax(scores, axis=1)

    return np.concatenate(table.map_row_ranges(labels, X))
